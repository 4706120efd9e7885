package core

import (
	"context"

	"fuzzyfd/internal/fd"
	"fuzzyfd/internal/table"
)

// Stream runs the configured pipeline over the integration set, emitting
// each integrated row (with its provenance) as soon as the connected
// component producing it closes, instead of materializing the whole
// result. It is one StreamContext call on a throwaway Session: the
// alignment and matching phases are inherently whole-set and run first,
// then the FD phase streams component by component in a deterministic
// order (see fd.Index.StreamContext for the order and the all-null
// caveat).
//
// emit receives the integrated schema (identical on every call — callers
// that need the output column names read it from the first row) along with
// each row and its provenance. The returned Result carries the schema,
// match diagnostics, FD statistics and timings of the run, but no
// materialized Table or Prov — the rows went to emit. Cancellation
// mid-stream returns an error matching fd.ErrCanceled wrapped in a
// *PhaseError; rows already emitted stay emitted.
func Stream(ctx context.Context, tables []*table.Table, cfg Config, emit func(schema fd.Schema, row table.Row, prov []fd.TID) error) (*Result, error) {
	s := NewSession(cfg)
	s.Add(tables...)
	return s.StreamContext(ctx, emit)
}
