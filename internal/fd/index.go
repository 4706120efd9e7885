package fd

import (
	"context"
	"slices"
	"sort"
	"sync"
	"time"

	"fuzzyfd/internal/intern"
	"fuzzyfd/internal/table"
)

// Index is the persistent Full Disjunction state of an integration
// session: the append-only value dictionary, the outer-union tuple store
// with its signature and posting indexes, the union-find component forest,
// and the kept (closed + subsumption-reduced) tuples of every component
// from the last Update. Repeated Updates over a growing integration set
// close only the *delta*: new tuples probe the existing component
// structure through the posting lists, merge or extend the components they
// touch, and only those dirty components are re-closed and re-subsumed —
// the kept tuples of untouched components are reused as is.
//
// Correctness rests on the component confinement argument documented in
// partition.go: the mergeable-pair graph only ever gains vertices and
// edges as tuples arrive, so components can merge but never split, and a
// component whose member set and provenance are unchanged has an unchanged
// closure. Every Update therefore produces output byte-identical — tables
// and provenance — to a fresh Index's first Update over the accumulated
// input, which is what FullDisjunction runs.
//
// Update verifies, cheaply, that previously ingested rows still project to
// their recorded tuples under the current schema and dictionary. When they
// do not (a value-matching round elected different representatives, or
// content alignment re-mapped columns), the tuple store is rebuilt from
// scratch; the dictionary survives rebuilds, so interned symbols and the
// embedding work keyed on them stay amortized.
//
// An Index is safe for concurrent use. Updates serialize their ingest and
// bookkeeping under a store lock, but each Update claims the dirty
// components it is about to close and runs the closures — the dominant
// cost — with the lock released. Concurrent Updates whose deltas touch
// disjoint components therefore close in parallel; Updates needing a
// component another Update has claimed wait for its publication
// (Stats.PendingWaits counts those waits). Each Update is linearized at
// its ingest: its result reflects at least its own input, plus any input
// concurrent Updates ingested before it assembled. An Update handed a
// stale view of the integration set — fewer tables or rows than a
// concurrent Update already ingested, as happens when session calls race —
// adopts the newer accumulated state rather than rebuilding, and returns
// its Full Disjunction.
type Index struct {
	mu   sync.Mutex
	cond *sync.Cond

	dict    *intern.Dict
	nCols   int
	schema  Schema
	started bool

	rowsSeen []int   // per table: rows already ingested
	rowBase  [][]int // per table, per ingested row: base tuple id

	base []Tuple       // outer-union tuples, in ingest (outer-union) order
	sigs *sigIndex     // signature dedup over base
	post *postingIndex // posting lists over base, used to partition the delta
	uf   *unionFind    // component forest over base

	// dirty marks base tuples that are new or whose provenance grew since
	// their component was last closed. Claiming a component for closure
	// clears its members' marks; a failed closure (budget, cancellation)
	// restores them, so the next Update re-closes from the base tuples.
	dirty []bool
	// claimed marks base tuples whose component a concurrent Update is
	// closing right now (lock released); other Updates needing the
	// component wait for its publication.
	claimed []bool
	claims  int // claimed component groups outstanding across all Updates
	// resetWanted gates new claims while an Update waits to rebuild the
	// store: claim-holding Updates finish and publish, new claims hold off,
	// and the drain terminates.
	resetWanted bool

	lastTables []*table.Table // per table, the object seen last Update

	comps    map[int]*cachedComp // by smallest member base id at last close
	rebuilds int                 // verification failures that forced a full rebuild

	// restored stages snapshot-exported component closures for adoption by
	// the next Update, keyed by smallest member id (see persist.go). Entries
	// are consumed — adopted or invalidated — on first examination.
	restored map[int]*CompExport
}

// cachedComp is one component's state at the end of the last Update.
type cachedComp struct {
	members []int   // base tuple ids, ascending
	kept    []Tuple // closure + subsumption result
	closure int     // closure size, for stats and budget accounting
	// store holds the component's full closure store from the last run,
	// provenance enriched by every fold the closure performed (including
	// folds into base tuples whose cells subsume each other). When the
	// component goes dirty, the store seeds the re-closure so only pairs
	// involving a new or changed tuple are expanded, instead of re-deriving
	// the whole closure from base tuples. (Provenance may carry subsumption
	// folds from the previous run; that is harmless — a fold only ever adds
	// provenance of tuples the carrier subsumes, which the re-closure's
	// provenance fixpoint contains anyway.)
	store []Tuple
	// basePos maps members[k] to its position in store (new base tuples
	// append behind the previous store, and a new base whose cells
	// duplicate a derived tuple folds into it, so positions are not a
	// prefix in general).
	basePos []int
	// sigs and post are the signature and posting indexes covering store,
	// kept from the sequential closure that produced it — at any worker
	// count, since every re-closure and every unpivoted hub runs that
	// closure. A dirty re-closure extends them in place — appending only
	// the delta — instead of re-indexing the whole store. They are nil
	// (forcing an index rebuild on the next re-closure) after schema
	// widening, a component merge, or a full hub closure by the
	// pivot-partitioned engine.
	sigs *sigIndex
	post *postingIndex
	// sub caches each store entry's canonical subsumer position (-1 =
	// kept); re-subsumption then scans only the store's growth.
	sub []int32
}

// NewIndex returns an empty index. The schema is fixed by the first
// Update and may only be extended (new output columns appended) by later
// ones; any other schema change triggers a rebuild.
func NewIndex() *Index {
	x := &Index{
		dict:  intern.NewDict(),
		comps: make(map[int]*cachedComp),
	}
	x.cond = sync.NewCond(&x.mu)
	return x
}

// Values reports the size of the session dictionary (distinct interned
// values across all Updates, including rebuilt-away ones).
func (x *Index) Values() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.dict.Len()
}

// BaseTuples reports the current outer-union size.
func (x *Index) BaseTuples() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.base)
}

// Rebuilds reports how many Updates had to rebuild the tuple store because
// previously ingested rows no longer projected to their recorded tuples.
func (x *Index) Rebuilds() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.rebuilds
}

// Snapshot captures the current dictionary state; symbols in tuples held
// by the caller remain decodable through it regardless of later Updates.
func (x *Index) Snapshot() intern.Snapshot {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.dict.Snapshot()
}

// Update ingests the accumulated integration set (all tables of the
// session, in a stable order; previously seen tables must come first and
// may only have grown) and returns the Full Disjunction of the whole set.
// Only components touched by new or re-deduplicated tuples are re-closed;
// see the Stats work counters for what was actually done.
func (x *Index) Update(tables []*table.Table, schema Schema, opts Options) (*Result, error) {
	return x.UpdateContext(context.Background(), tables, schema, opts)
}

// UpdateContext is Update under a context. Cancellation is observed at
// component boundaries, inside component closures (every cancelEvery
// candidate expansions), and while waiting on components claimed by
// concurrent Updates. A canceled Update keeps the ingested delta: its
// dirty marks persist, so the next Update simply re-closes the affected
// components — from their base tuples where the cancellation consumed a
// cached closure — without rebuilding the store.
func (x *Index) UpdateContext(ctx context.Context, tables []*table.Table, schema Schema, opts Options) (*Result, error) {
	start := time.Now()
	if err := schema.Validate(tables); err != nil {
		return nil, err
	}
	var stats Stats
	stats.PivotColumn = -1
	for _, t := range tables {
		stats.InputTuples += len(t.Rows)
	}

	groups, eng, outSchema, err := x.update(ctx, tables, schema, opts, &stats, nil)
	if err != nil {
		return nil, err
	}
	var kept []Tuple
	for _, g := range groups {
		kept = append(kept, g.kept...)
	}
	kept = eng.foldAllNull(kept)
	stats.Subsumed = stats.Closure - len(kept)
	stats.Elapsed = time.Since(start)
	return eng.materialize(kept, outSchema, stats), nil
}

// groupKept is one component's contribution to an Update's assembly: its
// member base ids and a snapshot of its kept (closed + subsumption-reduced)
// tuples, taken under the index lock so later widenings cannot race with
// readers. streamed marks groups a streaming Update already emitted while
// they closed (see Index.StreamContext).
type groupKept struct {
	members  []int
	kept     []Tuple
	streamed bool
}

// dirtyEmit observes one dirty component group once it and every group
// claimed before it in its round have closed, on the updating goroutine
// with the index lock released. eng is the round's engine (dictionary
// snapshot), groups the number of component groups in the round that
// closed it.
type dirtyEmit func(eng *engine, members []int, groups int, r compResult) error

// StreamContext ingests the accumulated integration set exactly like
// UpdateContext but emits the result rows instead of materializing a
// table: every component this call (re)closes streams as soon as it and
// the components before it have closed — the delta flows first, while
// other dirty components are still closing — and once the index is fully
// clean the untouched components replay from their cached kept tuples,
// paying only decode cost.
// Rows within a component are emitted in value order; components arrive in
// ingest order (by smallest member), first the re-closed delta and then
// the clean replay, so the byte stream is the same at any worker count.
// The emitted row multiset equals UpdateContext's output up to row order,
// with one caveat: a fully-empty input row's all-null output is dropped
// rather than provenance-folded when other components exist, because its
// subsumer may already be out.
//
// emit runs on the calling goroutine. An emit error (or cancellation)
// aborts the stream; rows already emitted stay emitted, the consumed
// component caches are marked dirty again, and a later Update re-closes
// them — nothing is lost. A stream racing concurrent Updates on the same
// Index keeps every published row correct, but a component merged by a
// concurrent ingest mid-stream can be emitted again in merged (superset)
// form; serialize streams against Updates (as the serving layer does per
// session) for an exact one-to-one row multiset.
func (x *Index) StreamContext(ctx context.Context, tables []*table.Table, schema Schema, opts Options, emit func(row table.Row, prov []TID) error) (Stats, error) {
	start := time.Now()
	var stats Stats
	stats.PivotColumn = -1
	if err := schema.Validate(tables); err != nil {
		return stats, err
	}
	for _, t := range tables {
		stats.InputTuples += len(t.Rows)
	}

	emitted := 0 // rows handed to emit
	kept := 0    // tuples surviving subsumption in emitted + replayed groups
	emitComp := func(eng *engine, tuples []Tuple, groups int) error {
		if len(tuples) == 1 && allNull(tuples[0].Cells) && groups > 1 {
			// Dropped all-null singleton: counts as subsumed, exactly as the
			// batch path's foldAllNull does.
			kept--
			return nil
		}
		sort.Slice(tuples, func(a, b int) bool {
			return eng.lessCells(tuples[a].Cells, tuples[b].Cells)
		})
		for _, tp := range tuples {
			if err := emit(eng.decodeRow(tp.Cells), tp.Prov); err != nil {
				return err
			}
			emitted++
		}
		return nil
	}
	onDirty := func(eng *engine, members []int, groups int, r compResult) error {
		kept += len(r.kept)
		return emitComp(eng, r.kept, groups)
	}

	groups, eng, _, err := x.update(ctx, tables, schema, opts, &stats, onDirty)
	if err == nil {
		for _, g := range groups {
			if g.streamed {
				continue // emitted while it closed; kept already counted
			}
			kept += len(g.kept)
			if err = emitComp(eng, g.kept, len(groups)); err != nil {
				break
			}
		}
	}
	stats.Subsumed = stats.Closure - kept
	stats.Output = emitted
	stats.Elapsed = time.Since(start)
	return stats, err
}

// update runs the locked stages of an Update — reconcile, ingest, and the
// claim/close/publish fixpoint — and returns the assembled component
// groups (kept tuples snapshotted under the lock) with the engine and
// schema to materialize or decode them under. The lock is held throughout
// except while closing this Update's claimed components; a non-nil onDirty
// observes each dirty component in those unlocked windows. The batch path
// passes nil and concatenates the groups.
func (x *Index) update(ctx context.Context, tables []*table.Table, schema Schema, opts Options, stats *Stats, onDirty dirtyEmit) ([]groupKept, *engine, Schema, error) {
	x.mu.Lock()
	defer x.mu.Unlock()

	// Cancellation must also interrupt condition waits: a helper goroutine
	// broadcasts once the context dies, and every wait loop rechecks
	// ctx.Err() on wakeup.
	if done := ctx.Done(); done != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-done:
				x.mu.Lock()
				x.cond.Broadcast()
				x.mu.Unlock()
			case <-stop:
			}
		}()
	}

	// Stage 1: reconcile the schema, then verify that every previously
	// ingested row still projects to its recorded tuple. A stale view of
	// the set (a concurrent Update ingested more first) adopts the newer
	// accumulated state instead; genuine drift rebuilds the store after
	// outstanding claims drain (the dictionary survives).
	for {
		if err := ctx.Err(); err != nil {
			x.clearResetWanted()
			return nil, nil, Schema{}, Canceled(err)
		}
		x.adoptStale(&tables, &schema)
		if !x.started || x.schemaExtends(tables, schema) {
			x.widen(len(schema.Columns))
			if x.verify(tables, schema) {
				break
			}
		}
		if x.claims > 0 {
			x.resetWanted = true
			stats.PendingWaits++
			x.cond.Wait()
			continue
		}
		x.clearResetWanted()
		x.reset()
	}
	x.clearResetWanted()
	x.schema = schema
	x.started = true

	// Stage 2: ingest the delta. New tuples dedup against the signature
	// index (re-deduplication dirties the owning component) or join the
	// forest by probing the posting lists for mergeable neighbors. Dirty
	// marks persist on the store until a closure claims them.
	x.ingest(tables, schema, stats)
	x.lastTables = append([]*table.Table(nil), tables...)

	// Stage 3: claim and close dirty components until every component is
	// clean and cached, then assemble.
	groups, err := x.closeLocked(ctx, opts, stats, onDirty)
	if err != nil {
		return nil, nil, Schema{}, err
	}

	// Materialization runs after the lock is released; snapshot everything
	// it needs while the state is still consistent.
	eng := &engine{dict: x.dict.Snapshot(), nCols: x.nCols}
	stats.OuterUnion = len(x.base)
	stats.Values = x.dict.Len()
	return groups, eng, x.schema, nil
}

// clearResetWanted lifts the claim gate and wakes Updates held at it.
// Callers hold x.mu.
func (x *Index) clearResetWanted() {
	if x.resetWanted {
		x.resetWanted = false
		x.cond.Broadcast()
	}
}

// adoptStale detects an input older than what the index has already
// ingested — fewer tables, or fewer rows in an ingested table — and adopts
// the accumulated state's tables and schema instead. Session calls race:
// an Update prepared against a shorter set can reach the index after a
// concurrent Update ingested a longer one, and rebuilding for it would
// throw the newer data away. Adoption linearizes the stale Update after
// the newer one: it returns the Full Disjunction of the newer view.
// Callers hold x.mu.
func (x *Index) adoptStale(tables *[]*table.Table, schema *Schema) {
	if len(x.rowsSeen) == 0 || len(x.lastTables) < len(x.rowsSeen) {
		return
	}
	stale := len(*tables) < len(x.rowsSeen)
	if !stale {
		for ti, n := range x.rowsSeen {
			if len((*tables)[ti].Rows) < n {
				stale = true
				break
			}
		}
	}
	if stale {
		*tables = x.lastTables
		*schema = x.schema
	}
}

// reset drops the tuple store, indexes, and cached components, keeping the
// dictionary (append-only by contract; stale symbols are harmless).
// Callers hold x.mu and have drained outstanding claims.
func (x *Index) reset() {
	x.base = nil
	x.sigs = nil
	x.post = nil
	x.uf = nil
	x.comps = make(map[int]*cachedComp)
	x.rowsSeen = nil
	x.rowBase = nil
	x.lastTables = nil
	x.dirty = nil
	x.claimed = nil
	x.restored = nil // base ids shift under a rebuild; staged exports can never match
	x.nCols = 0
	x.started = false
	x.rebuilds++
}

// schemaExtends reports whether the new schema is an extension of the last
// Update's: previously seen tables keep their column mappings, existing
// output columns keep their positions, and new output columns only append.
func (x *Index) schemaExtends(tables []*table.Table, schema Schema) bool {
	old := x.schema
	if len(schema.Columns) < len(old.Columns) || len(tables) < len(x.rowsSeen) {
		return false
	}
	for i, name := range old.Columns {
		if schema.Columns[i] != name {
			return false
		}
	}
	for ti := range x.rowsSeen {
		if !slices.Equal(schema.Mapping[ti], old.Mapping[ti]) {
			return false
		}
	}
	return true
}

// widenComp brings one cached component to nCols output columns. Cell
// hashes cover the full width and the next slow-path seeding relays the
// store, so the cached closure indexes go stale. Widening replaces cell
// slices rather than mutating them, so tuple headers snapshotted by
// concurrent Updates keep their (narrower) cells untouched.
func widenComp(c *cachedComp, nCols int) {
	widenCells := func(cells []uint32) []uint32 {
		nc := make([]uint32, nCols)
		copy(nc, cells)
		return nc
	}
	for k := range c.kept {
		c.kept[k].Cells = widenCells(c.kept[k].Cells)
	}
	for k := range c.store {
		c.store[k].Cells = widenCells(c.store[k].Cells)
	}
	c.sigs, c.post = nil, nil
}

// widen brings the store to nCols output columns: tuples gain trailing
// null cells, the posting index gains empty columns, and the signature
// index is rebuilt (cell hashes cover the full width). Initializes the
// store on first use or after a reset. Callers hold x.mu; components
// claimed by in-flight closures have nil stores here and are width-fixed
// at publication instead.
func (x *Index) widen(nCols int) {
	if x.post == nil {
		x.nCols = nCols
		x.sigs = newSigIndex()
		x.post = newPostingIndex(nCols)
		x.uf = newUnionFind(0)
		return
	}
	if nCols == x.nCols {
		return
	}
	widenCells := func(cells []uint32) []uint32 {
		nc := make([]uint32, nCols)
		copy(nc, cells)
		return nc
	}
	for i := range x.base {
		x.base[i].Cells = widenCells(x.base[i].Cells)
	}
	for _, c := range x.comps {
		widenComp(c, nCols)
	}
	for len(x.post.byCol) < nCols {
		x.post.byCol = append(x.post.byCol, make(map[uint32][]int))
	}
	x.sigs = newSigIndex()
	for i := range x.base {
		x.sigs.add(x.base[i].Cells, i)
	}
	x.nCols = nCols
}

// verify checks that every previously ingested row still projects to its
// recorded base tuple under the current schema and dictionary — the guard
// against value-matching rounds rewriting history. Runs after widen, so
// widths agree. Tables pointer-identical to the last Update are assumed
// unchanged (ingested rows must not be mutated, per the Update contract)
// and skipped, so a pure-append session pays nothing here; the fuzzy
// pipeline hands the index fresh rewritten clones each round, which are
// always re-verified.
func (x *Index) verify(tables []*table.Table, schema Schema) bool {
	if len(x.rowsSeen) == 0 {
		return true
	}
	scratch := make([]uint32, x.nCols)
	for ti := range x.rowsSeen {
		t := tables[ti]
		if ti < len(x.lastTables) && x.lastTables[ti] == t {
			continue
		}
		if x.rowsSeen[ti] > len(t.Rows) {
			return false // rows disappeared; not an extension
		}
		mapping := schema.Mapping[ti]
		for ri := 0; ri < x.rowsSeen[ti]; ri++ {
			row := t.Rows[ri]
			ok := true
			for ci := range row {
				if row[ci].IsNull {
					continue
				}
				sym, known := x.dict.Symbol(row[ci].Val)
				if !known {
					ok = false
					break
				}
				scratch[mapping[ci]] = sym
			}
			if ok && !slices.Equal(scratch, x.base[x.rowBase[ti][ri]].Cells) {
				ok = false
			}
			for ci := range row {
				if !row[ci].IsNull {
					scratch[mapping[ci]] = 0
				}
			}
			if !ok {
				return false
			}
		}
	}
	return true
}

// ingest projects and interns every not-yet-seen row, deduplicating
// against the signature index and unioning genuinely new tuples into the
// component forest via posting-list probes. Base tuples that are new or
// whose provenance grew get persistent dirty marks — the seeds of dirty
// components. Callers hold x.mu.
func (x *Index) ingest(tables []*table.Table, schema Schema, stats *Stats) {
	mark := uint32(x.dict.Len())
	reused := make([]bool, mark+1)
	var scratch stampSet

	for len(x.rowsSeen) < len(tables) {
		x.rowsSeen = append(x.rowsSeen, 0)
		x.rowBase = append(x.rowBase, nil)
	}
	for ti, t := range tables {
		mapping := schema.Mapping[ti]
		for ri := x.rowsSeen[ti]; ri < len(t.Rows); ri++ {
			cells := make([]uint32, x.nCols)
			for ci, cell := range t.Rows[ri] {
				if cell.IsNull {
					continue
				}
				sym := x.dict.Intern(cell.Val)
				if sym <= mark && !reused[sym] {
					reused[sym] = true
					stats.ReusedValues++
				}
				cells[mapping[ci]] = sym
			}
			tid := TID{Table: ti, Row: ri}
			at, hash, ok := x.sigs.find(cells, x.base)
			if ok {
				x.base[at].Prov = mergeProv(x.base[at].Prov, []TID{tid})
				x.dirty[at] = true
				x.rowBase[ti] = append(x.rowBase[ti], at)
				continue
			}
			id := len(x.base)
			x.sigs.addHashed(hash, id)
			x.base = append(x.base, Tuple{Cells: cells, Prov: []TID{tid}})
			x.dirty = append(x.dirty, true)
			x.claimed = append(x.claimed, false)
			x.uf.grow(id + 1)
			scratch.next(id + 1)
			x.post.candidates(id, cells, &scratch, func(j int) {
				if x.uf.find(j) != x.uf.find(id) && consistentCells(x.base[j].Cells, cells) {
					x.uf.union(id, j)
				}
			})
			x.post.add(id, cells)
			x.rowBase[ti] = append(x.rowBase[ti], id)
		}
		x.rowsSeen[ti] = len(t.Rows)
	}
}

// seedDirty builds the re-closure job for one dirty component group: the
// seed store holding every tuple already known for the group (current base
// tuples plus the cached closures of the previous components it absorbed)
// and the worklist of seeds whose pairs are unexamined — the touched ones.
// When the group extends exactly one cached component whose closure
// indexes survived, the fast path reuses store, signature index, and
// posting index in place, appending only the delta; otherwise the slow
// path relays the store (bases first) and rebuilds the signature index.
// Returns the job and the store position of each member.
func (x *Index) seedDirty(members []int, ownerOf []*cachedComp, touched []bool) (closeJob, []int) {
	var owner *cachedComp
	single := true
	for _, id := range members {
		if c := ownerOf[id]; c != nil && c.store != nil {
			if owner == nil {
				owner = c
			} else if owner != c {
				single = false
				break
			}
		}
	}
	if single && owner != nil && owner.sigs != nil && owner.post != nil {
		return x.seedFast(members, owner, touched)
	}
	return x.seedSlow(members, ownerOf, touched)
}

// seedFast extends one cached component in place: new base tuples append
// behind the previous store (or fold into a derived tuple with identical
// cells), dedup-grown provenance folds into the existing entries, and the
// cached signature and posting indexes are extended rather than rebuilt.
func (x *Index) seedFast(members []int, owner *cachedComp, touched []bool) (closeJob, []int) {
	tuples := owner.store
	sigs, post := owner.sigs, owner.post
	subSeed, subN := owner.sub, 0
	if subSeed != nil {
		subN = len(tuples) // everything appended from here on rescans fully
	}
	oldPos := make(map[int]int, len(owner.members))
	for k, id := range owner.members {
		oldPos[id] = owner.basePos[k]
	}
	basePos := make([]int, len(members))
	var work []int
	for k, id := range members {
		if p, ok := oldPos[id]; ok {
			basePos[k] = p
			if touched[id] {
				if !provContains(tuples[p].Prov, x.base[id].Prov) {
					tuples[p].Prov = mergeProv(tuples[p].Prov, x.base[id].Prov)
				}
				work = append(work, p)
			}
			continue
		}
		bt := x.base[id]
		if at, hash, ok := sigs.find(bt.Cells, tuples); ok {
			// The new base duplicates a previously derived tuple; fold and
			// re-expand it so the merged provenance propagates.
			if !provContains(tuples[at].Prov, bt.Prov) {
				tuples[at].Prov = mergeProv(tuples[at].Prov, bt.Prov)
			}
			basePos[k] = at
			work = append(work, at)
		} else {
			p := len(tuples)
			tuples = append(tuples, bt)
			sigs.addHashed(hash, p)
			post.add(p, bt.Cells)
			basePos[k] = p
			work = append(work, p)
		}
	}
	owner.store, owner.sigs, owner.post, owner.sub = nil, nil, nil, nil // consumed
	return closeJob{
		tuples: tuples, base: len(members), work: work,
		sigs: sigs, post: post, subSeed: subSeed, subN: subN,
	}, basePos
}

// seedSlow relays a dirty group's seed store from scratch — current base
// tuples first, then the cached derived tuples of every previous component
// the group absorbed — rebuilding the signature index over the new layout.
// This is the path for merged components and for caches whose indexes were
// invalidated (schema widening) or never built (pivot-partitioned hub
// closure).
func (x *Index) seedSlow(members []int, ownerOf []*cachedComp, touched []bool) (closeJob, []int) {
	seed := make([]Tuple, len(members))
	pos := make(map[int]int, len(members))
	basePos := make([]int, len(members))
	var work []int
	for k, id := range members {
		seed[k] = x.base[id]
		pos[id] = k
		basePos[k] = k
		if touched[id] {
			work = append(work, k)
		}
	}
	sigs := newSigIndex()
	for i := range seed {
		sigs.add(seed[i].Cells, i)
	}
	for _, id := range members {
		c := ownerOf[id]
		if c == nil || c.store == nil {
			continue
		}
		// Fold the cached store: base entries enrich their current seeds
		// (they carry the folds of every pair the previous closure already
		// examined), derived entries append, deduplicating against the
		// seed — a new base tuple can duplicate a previously derived one,
		// and the store must stay a set for budget accounting to be exact.
		isBase := make([]bool, len(c.store))
		for k, oid := range c.members {
			p := c.basePos[k]
			isBase[p] = true
			at := pos[oid]
			if !provContains(seed[at].Prov, c.store[p].Prov) {
				seed[at].Prov = mergeProv(seed[at].Prov, c.store[p].Prov)
			}
		}
		for p := range c.store {
			if isBase[p] {
				continue
			}
			d := c.store[p]
			if at, hash, ok := sigs.find(d.Cells, seed); ok {
				if !provContains(seed[at].Prov, d.Prov) {
					seed[at].Prov = mergeProv(seed[at].Prov, d.Prov)
				}
			} else {
				sigs.addHashed(hash, len(seed))
				seed = append(seed, d)
			}
		}
		c.store, c.sigs, c.post, c.sub = nil, nil, nil, nil // consumed
	}
	return closeJob{tuples: seed, base: len(members), work: work, sigs: sigs}, basePos
}

// regroup derives the current component groups from the forest, ordered
// by smallest member, members ascending. Callers hold x.mu.
func (x *Index) regroup() [][]int {
	roots := make(map[int]int, len(x.comps)+1)
	var groups [][]int
	for i := range x.base {
		r := x.uf.find(i)
		gi, ok := roots[r]
		if !ok {
			gi = len(groups)
			roots[r] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	return groups
}

// closeLocked drives the claim/close/publish fixpoint: regroup the forest,
// claim every dirty component no concurrent Update holds, close the claims
// with the lock released, publish, and repeat until all components are
// clean and cached — waiting (never while holding claims, so never in a
// cycle) whenever the only remaining dirty components are claimed by
// concurrent Updates. Returns the assembled component groups, kept tuples
// snapshotted under the lock. A non-nil onDirty observes every dirty
// component this call closes, from the unlocked closure window, and the
// matching assembled groups come back marked streamed. Callers hold x.mu;
// it is released and reacquired around closures.
func (x *Index) closeLocked(ctx context.Context, opts Options, stats *Stats, onDirty dirtyEmit) ([]groupKept, error) {
	largestDirty := 0
	// streamed records the groups onDirty has emitted this call, keyed by
	// smallest member with the full membership kept: a group re-dirtied and
	// merged after its emission (a concurrent-Update race) no longer
	// matches and is replayed by the assembly instead of silently skipped.
	var streamed map[int][]int
	if onDirty != nil {
		streamed = make(map[int][]int)
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, Canceled(err)
		}
		if x.resetWanted {
			// An Update is waiting to rebuild the store; hold off new claims
			// so its drain terminates.
			stats.PendingWaits++
			x.cond.Wait()
			continue
		}

		groups := x.regroup()

		// ownerOf maps each base tuple to the cached component that held it
		// at its last close, to locate reusable closures for merged groups.
		ownerOf := make([]*cachedComp, len(x.base))
		for _, c := range x.comps {
			for _, id := range c.members {
				ownerOf[id] = c
			}
		}

		// Sort the groups: clean cached ones are done, groups with a member
		// claimed by a concurrent Update block assembly, everything else is
		// ours to claim. A group with no dirty member but no usable cache
		// (its closure was consumed by a failed concurrent Update) re-closes
		// in full.
		var dirtyGroups [][]int
		blocked := false
		cleanExtra := 0 // closure tuples beyond base ones in clean comps, for budget parity
		for _, members := range groups {
			held := false
			for _, id := range members {
				if x.claimed[id] {
					held = true
					break
				}
			}
			if held {
				blocked = true
				continue
			}
			dirtyMember := false
			for _, id := range members {
				if x.dirty[id] {
					dirtyMember = true
					break
				}
			}
			if dirtyMember && x.restored != nil && x.adoptRestored(members) {
				dirtyMember = false
				stats.RestoredComps++
			}
			if !dirtyMember {
				if c, ok := x.comps[members[0]]; ok && slices.Equal(c.members, members) {
					cleanExtra += c.closure - len(c.members)
					continue
				}
			}
			dirtyGroups = append(dirtyGroups, members)
		}

		if len(dirtyGroups) == 0 {
			if blocked {
				stats.PendingWaits++
				x.cond.Wait()
				continue
			}
			// Every component is clean and cached: assemble. Kept slices are
			// snapshotted (headers cloned) under the lock — a later Update's
			// widening replaces cached cell slices in place, and the caller
			// reads these after releasing the lock.
			stats.Components = len(groups)
			out := make([]groupKept, 0, len(groups))
			for _, members := range groups {
				if len(members) > stats.LargestComp {
					stats.LargestComp = len(members)
				}
				c := x.comps[members[0]]
				stats.Closure += c.closure
				if c.closure > stats.LargestClose {
					stats.LargestClose = c.closure
				}
				prev, emitted := streamed[members[0]]
				out = append(out, groupKept{
					members:  members,
					kept:     slices.Clone(c.kept),
					streamed: emitted && slices.Equal(prev, members),
				})
			}
			return out, nil
		}

		// Claim: consume the caches into jobs and clear the dirty marks, all
		// before releasing the lock, so concurrent Updates see a consistent
		// claim set. The engine snapshot is per round — concurrent ingests
		// may have grown the dictionary since our own ingest.
		roundCols := x.nCols
		eng := &engine{dict: x.dict.Snapshot(), nCols: roundCols}
		jobs := make([]closeJob, 0, len(dirtyGroups))
		jobPos := make([][]int, 0, len(dirtyGroups))
		seedExtra := 0 // reused closure tuples seeded into dirty comps, for budget parity
		for _, members := range dirtyGroups {
			job, basePos := x.seedDirty(members, ownerOf, x.dirty)
			if len(job.work) == 0 || len(job.work) == len(job.tuples) {
				// Either no dirty member located the delta (cache lost to a
				// failed concurrent Update) or every seed is in it (a fresh
				// component): re-close the whole seed store from scratch,
				// which lets a hub take the pivot-partitioned engine.
				job.work = nil
			}
			stats.SeedReusedTuples += len(job.tuples) - len(members)
			seedExtra += len(job.tuples) - len(members)
			jobs = append(jobs, job)
			jobPos = append(jobPos, basePos)
			for _, id := range members {
				x.claimed[id] = true
				x.dirty[id] = false
			}
		}
		x.claims += len(jobs)
		stats.DirtyComponents += len(jobs)

		// The budget seeds with every tuple known to be live — base, the
		// clean closures' surplus, and the reused dirty seeds — so
		// Options.MaxTuples keeps its "total closure size" meaning across
		// incremental runs. (Components claimed by concurrent Updates are
		// mid-flight; their eventual surplus is not counted.)
		bud := newBudget(opts, len(x.base)+cleanExtra+seedExtra, eng)

		// A streaming caller sees each dirty component as soon as it and
		// every component before it have closed, from the unlocked window
		// below — closeSet delivers on this goroutine, so emission needs no
		// extra synchronization.
		var hook func(ci int, r compResult) error
		if onDirty != nil {
			roundGroups := len(groups)
			hook = func(ci int, r compResult) error {
				members := dirtyGroups[ci]
				if err := onDirty(eng, members, roundGroups, r); err != nil {
					return err
				}
				streamed[members[0]] = members
				return nil
			}
		}
		x.mu.Unlock()
		results, err := eng.closeSet(ctx, jobs, opts, bud, stats, hook)
		stats.MemoryBytes = max(stats.MemoryBytes, bud.bytes())
		x.mu.Lock()
		x.claims -= len(jobs)
		if err != nil {
			// The consumed caches are gone; restore dirty marks on every
			// claimed member so the next Update (or round) re-closes those
			// components from their base tuples.
			for _, members := range dirtyGroups {
				for _, id := range members {
					x.claimed[id] = false
					x.dirty[id] = true
				}
			}
			x.cond.Broadcast()
			return nil, err
		}

		// Publish: key each component by its smallest member (stable under
		// merges, unlike union-find roots), dropping the entries of any
		// previous components the group absorbed. A concurrent widen during
		// the closure is fixed up here — the results were produced at this
		// round's width.
		for di := range results {
			r := &results[di]
			stats.ReclosedTuples += r.closure
			// Stats.PivotColumn describes the work this run performed, so it
			// is the pivot of the largest component actually (re)closed —
			// clean components did no probing.
			if r.closure > largestDirty {
				largestDirty = r.closure
				stats.PivotColumn = r.stats.PivotColumn
			}
			members := dirtyGroups[di]
			c := &cachedComp{
				members: members, kept: r.kept, closure: r.closure,
				store: r.store, basePos: jobPos[di], sigs: r.sigs, post: r.post, sub: r.sub,
			}
			if x.nCols > roundCols {
				widenComp(c, x.nCols)
			}
			for _, id := range members {
				delete(x.comps, id)
				x.claimed[id] = false
			}
			x.comps[members[0]] = c
		}
		x.cond.Broadcast()
	}
}
