package fd

import (
	"sort"
	"sync"

	"fuzzyfd/internal/intern"
	"fuzzyfd/internal/table"
)

// subsumeParMin is the least number of store tuples per worker at which
// the subsumer search fans out; below it goroutine startup outweighs the
// scan.
const subsumeParMin = 256

// subsume removes every tuple strictly subsumed by another (minimal-union
// semantics), folding the provenance of each removed tuple into one of its
// subsumers so every input TID stays represented in the output. The choice
// of subsumer is canonical — the most informative one, ties by value order
// — so every engine variant (global, per-component, naive) folds
// identically.
//
// A subsumer must agree on every non-null cell of the subsumed tuple, so it
// necessarily appears in the posting list of any of the subsumed tuple's
// values; scanning the tuple's rarest posting list therefore finds all
// potential subsumers without a quadratic pass.
func (e *engine) subsume(tuples []Tuple) []Tuple {
	kept, _ := e.subsumeIncremental(tuples, nil, nil, 0, 1)
	return kept
}

// subsumeIncremental is the full computation behind subsume, extended for
// incremental re-closure: it returns, alongside the kept tuples, each store
// entry's canonical subsumer position (-1 when kept) so the session index
// can cache it. When oldSub covers the first n0 entries — the previous
// run's store, whose entries and subsumption relations only ever grow —
// those entries seed their search with the cached subsumer and scan only
// the ascending posting lists' suffixes of entries ≥ n0, so re-subsumption
// costs work proportional to the delta, not the store. Pass nil/0 to
// compute from scratch.
//
// The provenance fold pass always covers the whole store: folds are
// set unions guarded by provContains, so re-folding a chain the previous
// run already folded is an allocation-free no-op, and chains through new
// subsumers pick up exactly the provenance a from-scratch subsume would
// propagate.
//
// The subsumer search is a pure function of the (now frozen) store: each
// sub[i] reads only tuples, the index, and nonNulls. With workers > 1 the
// search chunks across goroutines — same sub array, bit for bit, as the
// sequential scan — and a nil index is built per-column in parallel
// (posting lists stay ascending because each column worker walks tuple ids
// in order). The fold and kept passes stay sequential; they are linear in
// the store and order-sensitive.
func (e *engine) subsumeIncremental(tuples []Tuple, idx *postingIndex, oldSub []int32, n0, workers int) ([]Tuple, []int32) {
	if len(tuples) <= 1 {
		sub := make([]int32, len(tuples))
		for i := range sub {
			sub[i] = -1
		}
		return tuples, sub
	}
	if workers > len(tuples)/subsumeParMin {
		workers = len(tuples) / subsumeParMin
	}
	if workers < 1 {
		workers = 1
	}
	if idx == nil {
		idx = newPostingIndex(e.nCols)
		if workers > 1 {
			var wg sync.WaitGroup
			for c0 := 0; c0 < e.nCols; c0++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					col := idx.byCol[c]
					for i := range tuples {
						if sym := tuples[i].Cells[c]; sym != intern.Null {
							col[sym] = append(col[sym], i)
						}
					}
				}(c0)
			}
			wg.Wait()
		} else {
			for i := range tuples {
				idx.add(i, tuples[i].Cells)
			}
		}
	}

	nonNulls := make([]int, len(tuples))
	for i := range tuples {
		nonNulls[i] = nonNullCount(tuples[i].Cells)
	}

	// better reports whether candidate j beats the current subsumer of i
	// under the canonical rule.
	better := func(j, cur int) bool {
		if cur < 0 {
			return true
		}
		if nonNulls[j] != nonNulls[cur] {
			return nonNulls[j] > nonNulls[cur]
		}
		return e.lessCells(tuples[j].Cells, tuples[cur].Cells)
	}

	// sub[i] is the chosen subsumer of dropped tuple i, or -1.
	sub := make([]int32, len(tuples))
	search := func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			cur := -1
			from := 0
			if i < n0 {
				// Cached: the best subsumer among the previous store; only
				// entries appended since can beat it.
				cur = int(oldSub[i])
				from = n0
			}
			cells := tuples[i].Cells

			// Scan the posting list with the fewest candidates at or past
			// `from` among i's non-null values. Posting lists are ascending
			// (stores and their indexes grow append-only), so the candidates
			// ≥ from form a suffix located by binary search.
			best := -1
			bestLen := 0
			bestFrom := 0
			for c, sym := range cells {
				if sym == intern.Null {
					continue
				}
				l := idx.byCol[c][sym]
				lo := 0
				if from > 0 {
					lo = sort.SearchInts(l, from)
				}
				if n := len(l) - lo; best < 0 || n < bestLen {
					best, bestLen, bestFrom = c, n, lo
				}
			}
			if best < 0 {
				// All-null tuple (only from fully-empty input rows): subsumed by
				// any informative tuple; pick the canonical one. The partitioned
				// engine applies the same rule across components in foldAllNull.
				for j := range tuples {
					if j != i && nonNulls[j] > 0 && better(j, cur) {
						cur = j
					}
				}
				sub[i] = int32(cur)
				continue
			}
			for _, j := range idx.byCol[best][cells[best]][bestFrom:] {
				if j == i || !subsumes(tuples[j].Cells, cells) {
					continue
				}
				if better(j, cur) {
					cur = j
				}
			}
			sub[i] = int32(cur)
		}
	}
	if workers > 1 {
		var wg sync.WaitGroup
		chunk := (len(tuples) + workers - 1) / workers
		for i0 := 0; i0 < len(tuples); i0 += chunk {
			i1 := i0 + chunk
			if i1 > len(tuples) {
				i1 = len(tuples)
			}
			wg.Add(1)
			go func(i0, i1 int) {
				defer wg.Done()
				search(i0, i1)
			}(i0, i1)
		}
		wg.Wait()
	} else {
		search(0, len(tuples))
	}

	// Fold provenance along subsumption chains, processing least-informative
	// tuples first so provenance propagates to the surviving maximal tuples
	// (chains strictly increase in informativeness, so ties need no order).
	order := make([]int, len(tuples))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return nonNulls[order[a]] < nonNulls[order[b]] })
	for _, i := range order {
		if s := sub[i]; s >= 0 {
			if !provContains(tuples[s].Prov, tuples[i].Prov) {
				tuples[s].Prov = mergeProv(tuples[s].Prov, tuples[i].Prov)
			}
		}
	}

	kept := make([]Tuple, 0, len(tuples))
	for i := range tuples {
		if sub[i] < 0 {
			kept = append(kept, tuples[i])
		}
	}
	return kept, sub
}

// subsumesRows is the decoded counterpart of subsumes, over materialized
// table rows — used by invariant checks and cross-operator comparisons that
// work on result tables rather than interned tuples.
func subsumesRows(u, t table.Row) bool {
	extra := false
	for i := range t {
		if t[i].IsNull {
			if !u[i].IsNull {
				extra = true
			}
			continue
		}
		if u[i].IsNull || u[i].Val != t[i].Val {
			return false
		}
	}
	return extra
}
