package fd

import (
	"context"

	"fuzzyfd/internal/intern"
)

// cancelEvery is how many candidate expansions pass between context polls
// inside a component closure. Small enough that a deadline interrupts even
// the hub component that dominates wall-clock on data-lake inputs, large
// enough that the poll is invisible next to the merge work it brackets.
const cancelEvery = 1024

// cancelCheck amortizes context polling over cancelEvery calls. The zero
// countdown forces a poll on the first call, so a dead context is noticed
// before any work happens.
type cancelCheck struct {
	ctx  context.Context
	left int
}

// poll returns a Canceled-wrapped error once the context is dead, checking
// the context only every cancelEvery calls.
func (c *cancelCheck) poll() error {
	if c.left > 0 {
		c.left--
		return nil
	}
	c.left = cancelEvery
	if err := c.ctx.Err(); err != nil {
		return Canceled(err)
	}
	return nil
}

// postingIndex is an inverted index from (output column, value symbol) to
// the tuples holding that symbol. Complementation candidates must share at
// least one equal non-null value, so scanning a tuple's posting lists
// enumerates exactly the connected pairs. Keys are interned symbols, so a
// probe hashes one machine word instead of a cell's text.
//
// With pivot >= 0 the index is additionally pivot-bucketed: every posting
// list is sub-bucketed by each tuple's value in the pivot column (the
// component's most selective column, see choosePivot), plus a null-pivot
// bucket. Two tuples holding different non-null pivot values are
// inconsistent on that column, so a probe for a tuple with pivot value p
// only iterates the p-bucket and the null bucket of each of its posting
// lists — candidates that conflict on the pivot are skipped without being
// iterated. The flat lists are kept alongside the buckets: null-pivot
// probes, subsumption's ascending suffix scans (subsumeIncremental), and
// the partitioner read them unchanged.
type postingIndex struct {
	byCol []map[uint32][]int
	// pivot is the output column the lists are sub-bucketed by, or -1 for
	// an unbucketed index. byPivot[c][pivotKey(sym, p)] holds the tuples of
	// byCol[c][sym] whose pivot cell is p, in the same ascending order.
	pivot   int
	byPivot []map[uint64][]int
	// sealed marks the end of seeding; buckets minted past this point were
	// created by merged tuples carrying (list, pivot) pairs no seed tuple
	// had. buckets counts all buckets, minted only the post-seal ones.
	sealed  bool
	buckets int
	minted  int
}

func newPostingIndex(nCols int) *postingIndex {
	idx := &postingIndex{byCol: make([]map[uint32][]int, nCols), pivot: -1}
	for i := range idx.byCol {
		idx.byCol[i] = make(map[uint32][]int)
	}
	return idx
}

// newPivotIndex returns a posting index bucketed by the given pivot column
// (-1 yields a plain unbucketed index).
func newPivotIndex(nCols, pivot int) *postingIndex {
	idx := newPostingIndex(nCols)
	if pivot >= 0 {
		idx.pivot = pivot
		idx.byPivot = make([]map[uint64][]int, nCols)
		for i := range idx.byPivot {
			idx.byPivot[i] = make(map[uint64][]int)
		}
	}
	return idx
}

// pivotKey packs a posting list's value symbol and a pivot-column symbol
// into one bucket key.
func pivotKey(sym, p uint32) uint64 { return uint64(sym)<<32 | uint64(p) }

func (idx *postingIndex) add(tupleID int, cells []uint32) {
	for c, sym := range cells {
		if sym == intern.Null {
			continue
		}
		idx.byCol[c][sym] = append(idx.byCol[c][sym], tupleID)
		if idx.pivot >= 0 {
			key := pivotKey(sym, cells[idx.pivot])
			l, ok := idx.byPivot[c][key]
			if !ok {
				idx.buckets++
				if idx.sealed {
					idx.minted++
				}
			}
			idx.byPivot[c][key] = append(l, tupleID)
		}
	}
}

// stampSet deduplicates candidate IDs in O(1) per probe using epoch
// stamping: marks[j] == epoch means j was already seen this round. Growing
// and re-zeroing a map per tuple dominated Full Disjunction runtime on
// low-selectivity columns; the stamp array removes that cost.
type stampSet struct {
	marks []uint32
	epoch uint32
}

// next starts a new deduplication round, growing the mark array to size n.
func (s *stampSet) next(n int) {
	if len(s.marks) < n {
		s.marks = append(s.marks, make([]uint32, n-len(s.marks))...)
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: clear and restart
		for i := range s.marks {
			s.marks[i] = 0
		}
		s.epoch = 1
	}
}

func (s *stampSet) seen(j int) bool {
	if s.marks[j] == s.epoch {
		return true
	}
	s.marks[j] = s.epoch
	return false
}

// candidates calls fn for every tuple sharing an equal non-null value with
// cells, deduplicated, excluding self. On a pivoted index a probe with a
// non-null pivot cell iterates only the matching-pivot and null-pivot
// buckets; the return value is how many candidate iterations that pruning
// skipped (always 0 on an unbucketed index or a null-pivot probe).
func (idx *postingIndex) candidates(self int, cells []uint32, seen *stampSet, fn func(j int)) (skipped int) {
	visit := func(list []int) {
		for _, j := range list {
			if j == self || seen.seen(j) {
				continue
			}
			fn(j)
		}
	}
	if idx.pivot >= 0 && cells[idx.pivot] != intern.Null {
		p := cells[idx.pivot]
		for c, sym := range cells {
			if sym == intern.Null {
				continue
			}
			same := idx.byPivot[c][pivotKey(sym, p)]
			null := idx.byPivot[c][pivotKey(sym, intern.Null)]
			skipped += len(idx.byCol[c][sym]) - len(same) - len(null)
			visit(same)
			visit(null)
		}
		return skipped
	}
	for c, sym := range cells {
		if sym == intern.Null {
			continue
		}
		visit(idx.byCol[c][sym])
	}
	return 0
}

// pivotMinTuples is the smallest seed store a pivoted index is built for;
// below it the per-column statistics cost more than the pruning saves.
const pivotMinTuples = 32

// choosePivot picks the bucketing column for a seed store: the column
// minimizing the expected per-probe scan cost — a probe iterates the
// matching bucket (nonNull/distinct tuples on average) plus the null
// bucket (the column's null count) — or -1 when no column's estimated
// cost beats half of scanning the store, i.e. the schema is uniformly
// unselective and bucketing would only add overhead. Deterministic:
// depends only on the seed tuples' cells, so every engine variant picks
// the same pivot for the same component.
func choosePivot(tuples []Tuple, nCols int) int {
	n := len(tuples)
	if n < pivotMinTuples {
		return -1
	}
	nonNull := make([]int, nCols)
	distinct := make([]int, nCols)
	seen := make(map[uint64]struct{}, n)
	for i := range tuples {
		for c, sym := range tuples[i].Cells {
			if sym == intern.Null {
				continue
			}
			nonNull[c]++
			key := uint64(c)<<32 | uint64(sym)
			if _, ok := seen[key]; !ok {
				seen[key] = struct{}{}
				distinct[c]++
			}
		}
	}
	best, bestCost := -1, 0.0
	for c := 0; c < nCols; c++ {
		if distinct[c] < 2 {
			continue
		}
		cost := float64(n-nonNull[c]) + float64(nonNull[c])/float64(distinct[c])
		if best < 0 || cost < bestCost {
			best, bestCost = c, cost
		}
	}
	if best >= 0 && 2*bestCost >= float64(n) {
		return -1
	}
	return best
}

// pivotFor resolves the pivot column for a closure over the given seed,
// honoring the noPivot test hook.
func pivotFor(opts Options, tuples []Tuple, nCols int) int {
	if opts.noPivot {
		return -1
	}
	return choosePivot(tuples, nCols)
}

// closure is the mutable state of one complementation run: the growing
// tuple store with its signature and posting indexes, plus the (possibly
// shared) tuple budget. A closure covers one connected component, or the
// null-pivot seeds of one (pivotpar.go).
type closure struct {
	eng    *engine
	tuples []Tuple
	sigs   *sigIndex
	idx    *postingIndex
	bud    *budget
}

// newClosure wraps an existing store whose signature index is already
// populated, building a posting index bucketed by pivot (-1 = unbucketed).
func newClosure(eng *engine, tuples []Tuple, sigs *sigIndex, bud *budget, pivot int) *closure {
	idx := newPivotIndex(eng.nCols, pivot)
	for i := range tuples {
		idx.add(i, tuples[i].Cells)
	}
	idx.sealed = true
	return &closure{eng: eng, tuples: tuples, sigs: sigs, idx: idx, bud: bud}
}

// run closes the store under pairwise complementation using a worklist. New
// merged tuples are appended and indexed, so merges compose transitively
// until fixpoint. The context is polled every cancelEvery candidate
// expansions, so cancellation interrupts even one giant component.
func (c *closure) run(ctx context.Context, stats *Stats) error {
	return c.runFrom(ctx, nil, stats)
}

// runFrom is run with a seeded worklist: only the listed store IDs (and
// tuples produced from them, transitively) are expanded. Pairs among the
// unlisted tuples are assumed already closed — the incremental index seeds
// a dirty component's store with its previous closure and lists only the
// tuples that arrived or changed since. A nil worklist expands everything.
func (c *closure) runFrom(ctx context.Context, work []int, stats *Stats) error {
	if len(c.tuples) > 0 {
		if err := c.bud.check(); err != nil {
			return err
		}
	}
	var queue []int
	if work == nil {
		queue = make([]int, len(c.tuples))
		for i := range queue {
			queue[i] = i
		}
	} else {
		queue = append(make([]int, 0, len(work)), work...)
	}
	var scratch stampSet
	var stopErr error
	chk := cancelCheck{ctx: ctx}
	mbuf := make([]uint32, 0, c.eng.nCols)
	skipped, minted0 := 0, c.idx.minted

	for len(queue) > 0 && stopErr == nil {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]

		scratch.next(len(c.tuples))
		var newIDs []int
		skipped += c.idx.candidates(i, c.tuples[i].Cells, &scratch, func(j int) {
			if stopErr != nil {
				return
			}
			if stopErr = chk.poll(); stopErr != nil {
				return
			}
			stats.MergeAttempts++
			merged, ok := tryMergeInto(mbuf, c.tuples[i].Cells, c.tuples[j].Cells)
			if !ok {
				return
			}
			mbuf = merged
			at, hash, exists := c.sigs.find(merged, c.tuples)
			if exists {
				if p := c.tuples[at].Prov; !provContains(p, c.tuples[i].Prov) || !provContains(p, c.tuples[j].Prov) {
					c.tuples[at].Prov = mergeProv(p, mergeProv(c.tuples[i].Prov, c.tuples[j].Prov))
				}
				return
			}
			stats.Merges++
			id := len(c.tuples)
			c.sigs.addHashed(hash, id)
			c.tuples = append(c.tuples, Tuple{Cells: cloneCells(merged), Prov: mergeProv(c.tuples[i].Prov, c.tuples[j].Prov)})
			newIDs = append(newIDs, id)
			stopErr = c.bud.add(1)
		})
		for _, id := range newIDs {
			c.idx.add(id, c.tuples[id].Cells)
			queue = append(queue, id)
		}
	}
	stats.PivotSkipped += skipped
	stats.PivotMinted += c.idx.minted - minted0
	return stopErr
}
