package fd

import "fuzzyfd/internal/table"

// Test-only exports. datagen imports fd, so benchmarks that combine the
// two live in package fd_test and reach the engine internals they need
// through these hooks.

// HubMinTuples re-exports the intra-component parallelism threshold for
// fixture-size assertions.
const HubMinTuples = hubMinTuples

// NoPivot returns opts with the pivot-bucketed posting lists disabled —
// the unbucketed closure the attempt-reduction gate measures against.
func NoPivot(opts Options) Options {
	opts.noPivot = true
	return opts
}

// components ingests the integration set into a fresh Index without
// closing anything and returns its connected components (the Index's
// groups: ordered by smallest member, members in outer-union order) with
// the engine that decodes them.
func components(tables []*table.Table, schema Schema) (*engine, [][]Tuple) {
	x := NewIndex()
	x.widen(len(schema.Columns))
	x.ingest(tables, schema, &Stats{})
	var comps [][]Tuple
	for _, members := range x.regroup() {
		comp := make([]Tuple, len(members))
		for k, id := range members {
			comp[k] = x.base[id]
		}
		comps = append(comps, comp)
	}
	return &engine{dict: x.dict.Snapshot(), nCols: x.nCols}, comps
}

// ExtractLargestComponent materializes the largest connected component of
// the integration set as a standalone table — the hub-closure benchmark
// fixture.
func ExtractLargestComponent(tables []*table.Table, schema Schema) *table.Table {
	eng, comps := components(tables, schema)
	var hub []Tuple
	for _, c := range comps {
		if len(c) > len(hub) {
			hub = c
		}
	}
	out := table.New("hub", schema.Columns...)
	for _, tp := range hub {
		out.Rows = append(out.Rows, eng.decodeRow(tp.Cells))
	}
	return out
}
