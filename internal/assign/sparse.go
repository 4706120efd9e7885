package assign

import "sort"

// Edge is a candidate pairing between left item A and right item B with a
// non-negative cost.
type Edge struct {
	A, B int
	Cost float64
}

// Pair is one matched (A, B) with its cost.
type Pair struct {
	A, B int
	Cost float64
}

// MatchSparse computes a maximum-cardinality, minimum-cost matching over a
// sparse bipartite candidate graph with nA left and nB right items. Items
// with no incident edge stay unmatched. Each connected component is solved
// exactly by successive shortest augmenting paths over its edge lists, so
// memory is O(nA + nB + edges) and no rows × cols matrix is ever built;
// million-value columns with mostly-exact matches cost near-linear time.
//
// The result equals a dense Solve with absent edges set to Forbidden in
// cardinality and total cost; when several optimal matchings exist the two
// may pick different ones.
//
// Cardinality dominates cost: within each component the solver prefers
// matching more pairs over matching cheaper ones (each row may instead take
// a private dummy column charged more than any finite edge sum), mirroring
// thresholded linear sum assignment where leaving a feasible pair unmatched
// is never optimal.
func MatchSparse(nA, nB int, edges []Edge) []Pair {
	if len(edges) == 0 {
		return nil
	}
	// Union left items that are connected through shared right items (and
	// vice versa). Left nodes are [0, nA); right nodes are nA + b.
	uf := newUnionFind(nA + nB)
	for _, e := range edges {
		uf.union(e.A, nA+e.B)
	}
	// Bucket edges by component root: a stable counting sort, so components
	// come in root order and each keeps its edges in input order.
	start := make([]int, nA+nB+1)
	for _, e := range edges {
		start[uf.find(e.A)+1]++
	}
	for r := 1; r < len(start); r++ {
		start[r] += start[r-1]
	}
	grouped := make([]Edge, len(edges))
	next := append([]int(nil), start[:nA+nB]...)
	for _, e := range edges {
		r := uf.find(e.A)
		grouped[next[r]] = e
		next[r]++
	}

	s := newSolver(nA, nB)
	var out []Pair
	for r := 0; r < nA+nB; r++ {
		if start[r] < start[r+1] {
			out = s.component(grouped[start[r]:start[r+1]], out)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// solver holds the buffers one MatchSparse call reuses across components.
// Within a component, rows are the smaller side (as in Solve), columns
// [0, m) are the real columns and column m+i is row i's private dummy.
type solver struct {
	leftPos, rightPos []int32 // original ID -> compacted index, -1 if absent
	left, right       []int   // compacted index -> original ID

	rowStart []int32 // CSR: row r's edges are adjCol/adjCost[rowStart[r]:rowStart[r+1]]
	adjCol   []int32
	adjCost  []float64
	scratch  []int32

	u, v   []float64 // row and column potentials
	rowCol []int32   // column matched to each row, -1 before its turn
	colRow []int32   // row matched to each column, -1 if free

	dist           []float64 // tentative distance, valid where reached == epoch
	pred           []int32   // row the shortest path enters each column from
	reached, final []uint32
	epoch          uint32
	done           []int32 // matched columns finalized by the current search
	heap           colHeap
}

func newSolver(nA, nB int) *solver {
	s := &solver{leftPos: make([]int32, nA), rightPos: make([]int32, nB)}
	for i := range s.leftPos {
		s.leftPos[i] = -1
	}
	for i := range s.rightPos {
		s.rightPos[i] = -1
	}
	return s
}

// component solves one connected component and appends its matched pairs
// to out.
func (s *solver) component(edges []Edge, out []Pair) []Pair {
	// Compact left/right IDs in first-seen order.
	s.left, s.right = s.left[:0], s.right[:0]
	for _, e := range edges {
		if s.leftPos[e.A] < 0 {
			s.leftPos[e.A] = int32(len(s.left))
			s.left = append(s.left, e.A)
		}
		if s.rightPos[e.B] < 0 {
			s.rightPos[e.B] = int32(len(s.right))
			s.right = append(s.right, e.B)
		}
	}
	// A prohibitive dummy cost that still keeps the potential arithmetic
	// well conditioned: bigger than any possible sum of real edges.
	big := 1.0
	for _, e := range edges {
		big += e.Cost
	}
	big *= 2

	transposed := len(s.left) > len(s.right)
	n, m := len(s.left), len(s.right)
	if transposed {
		n, m = m, n
	}
	s.buildAdjacency(edges, n, m, transposed)
	s.reset(n, m)
	for r := 0; r < n; r++ {
		s.augment(int32(r), m, big)
	}

	for r := 0; r < n; r++ {
		c := s.rowCol[r]
		if int(c) >= m {
			continue // took its dummy: unmatched
		}
		cost := 0.0
		for k := s.rowStart[r]; k < s.rowStart[r+1]; k++ {
			if s.adjCol[k] == c {
				cost = s.adjCost[k]
				break
			}
		}
		if transposed {
			out = append(out, Pair{A: s.left[c], B: s.right[r], Cost: cost})
		} else {
			out = append(out, Pair{A: s.left[r], B: s.right[c], Cost: cost})
		}
	}

	for _, a := range s.left {
		s.leftPos[a] = -1
	}
	for _, b := range s.right {
		s.rightPos[b] = -1
	}
	return out
}

// buildAdjacency fills the CSR edge lists of the component's n rows,
// collapsing duplicate (row, column) edges to their minimum cost.
func (s *solver) buildAdjacency(edges []Edge, n, m int, transposed bool) {
	rowCol := func(e Edge) (int32, int32) {
		if transposed {
			return s.rightPos[e.B], s.leftPos[e.A]
		}
		return s.leftPos[e.A], s.rightPos[e.B]
	}
	s.rowStart = grow(s.rowStart, n+1)
	clear(s.rowStart)
	for _, e := range edges {
		r, _ := rowCol(e)
		s.rowStart[r+1]++
	}
	for r := 1; r <= n; r++ {
		s.rowStart[r] += s.rowStart[r-1]
	}
	s.adjCol = grow(s.adjCol, len(edges))
	s.adjCost = grow(s.adjCost, len(edges))
	fill := grow(s.scratch, max(n, m)) // next free slot per row
	copy(fill, s.rowStart[:n])
	for _, e := range edges {
		r, c := rowCol(e)
		s.adjCol[fill[r]] = c
		s.adjCost[fill[r]] = e.Cost
		fill[r]++
	}

	// Dedupe in place, row by row. slot[c] is where column c was last
	// written; it names the current row's copy only if it lies in the part
	// of adjCol already written for this row and points back at c, so the
	// buffer needs no clearing between rows or components.
	slot := fill
	w := int32(0)
	for r := 0; r < n; r++ {
		lo, hi := s.rowStart[r], s.rowStart[r+1]
		s.rowStart[r] = w
		for k := lo; k < hi; k++ {
			c, cost := s.adjCol[k], s.adjCost[k]
			if p := slot[c]; p >= s.rowStart[r] && p < w && s.adjCol[p] == c {
				s.adjCost[p] = min(s.adjCost[p], cost)
				continue
			}
			slot[c] = w
			s.adjCol[w], s.adjCost[w] = c, cost
			w++
		}
	}
	s.rowStart[n] = w
	s.scratch = slot
}

// reset sizes the per-component solver state for n rows and m real
// columns (plus n dummies), all unmatched with zero potentials.
func (s *solver) reset(n, m int) {
	cols := m + n
	s.u = grow(s.u, n)
	s.v = grow(s.v, cols)
	s.rowCol = grow(s.rowCol, n)
	s.colRow = grow(s.colRow, cols)
	s.dist = grow(s.dist, cols)
	s.pred = grow(s.pred, cols)
	s.reached = grow(s.reached, cols)
	s.final = grow(s.final, cols)
	clear(s.u)
	clear(s.v)
	for i := range s.rowCol {
		s.rowCol[i] = -1
	}
	for j := range s.colRow {
		s.colRow[j] = -1
	}
}

// augment matches row r along a shortest augmenting path: Dijkstra over
// reduced costs cost - u[row] - v[col] (non-negative by the potentials'
// invariant), entering each matched row through its matched column, until
// the first free column is finalized. Row r's own dummy is always free, so
// a path always exists.
func (s *solver) augment(r int32, m int, big float64) {
	s.epoch++ // one per row of one MatchSparse call, so it never wraps
	s.done = s.done[:0]
	s.heap = s.heap[:0]

	row, d := r, 0.0
	sink := int32(-1)
	for {
		for k := s.rowStart[row]; k < s.rowStart[row+1]; k++ {
			c := s.adjCol[k]
			s.relax(c, d+s.adjCost[k]-s.u[row]-s.v[c], row)
		}
		dummy := int32(m) + row
		s.relax(dummy, d+big-s.u[row]-s.v[dummy], row)

		var c int32
		for {
			d, c = s.heap.pop()
			if s.final[c] != s.epoch {
				break
			}
		}
		s.final[c] = s.epoch
		if s.colRow[c] < 0 {
			sink = c
			break
		}
		s.done = append(s.done, c)
		row = s.colRow[c]
	}

	// Update potentials on finalized columns only (the sink's change would
	// be zero): that keeps every reduced cost non-negative and makes those
	// on the shortest-path tree zero.
	for _, c := range s.done {
		delta := d - s.dist[c]
		s.v[c] -= delta
		s.u[s.colRow[c]] += delta
	}
	s.u[r] += d

	for c := sink; ; {
		i := s.pred[c]
		prev := s.rowCol[i]
		s.colRow[c], s.rowCol[i] = i, c
		if i == r {
			return
		}
		c = prev
	}
}

// relax offers distance nd to column c, entered from row i.
func (s *solver) relax(c int32, nd float64, i int32) {
	if s.final[c] == s.epoch {
		return
	}
	if s.reached[c] == s.epoch && nd >= s.dist[c] {
		return
	}
	s.reached[c] = s.epoch
	s.dist[c] = nd
	s.pred[c] = i
	s.heap.push(nd, c)
}

// colHeap is a binary min-heap of (distance, column) ordered by distance,
// then column index, so equal-distance ties resolve deterministically.
// Entries go stale when a column is re-pushed at a shorter distance; the
// search skips columns it has already finalized.
type colHeap []heapItem

type heapItem struct {
	d float64
	c int32
}

func (a heapItem) less(b heapItem) bool {
	return a.d < b.d || (a.d == b.d && a.c < b.c)
}

func (h *colHeap) push(d float64, c int32) {
	*h = append(*h, heapItem{d, c})
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].less(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *colHeap) pop() (float64, int32) {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		l, best := 2*i+1, i
		if l < len(q) && q[l].less(q[best]) {
			best = l
		}
		if l+1 < len(q) && q[l+1].less(q[best]) {
			best = l + 1
		}
		if best == i {
			break
		}
		q[i], q[best] = q[best], q[i]
		i = best
	}
	*h = q
	return top.d, top.c
}

// grow returns buf resized to n, reusing its storage when large enough.
// Contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// unionFind is a standard disjoint-set structure with path compression and
// union by size.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
}
