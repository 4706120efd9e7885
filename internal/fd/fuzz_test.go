package fd

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"fuzzyfd/internal/table"
)

// fuzzReader hands out the fuzz input one byte at a time, zeros once it is
// exhausted, so every input decodes to some integration set.
type fuzzReader struct {
	data []byte
	at   int
}

func (r *fuzzReader) next(n int) int {
	if r.at >= len(r.data) {
		return 0
	}
	b := r.data[r.at]
	r.at++
	return int(b) % n
}

// fuzzMaxRows caps the input at NaiveFD's 16 outer-union tuples.
const fuzzMaxRows = 16

// fuzzCase is one decoded FuzzFDDifferential input.
type fuzzCase struct {
	// views[k] is the integration set after batch k — a prefix of the
	// tables, each cut to a prefix of its rows, growing monotonically to the
	// whole set.
	views   [][]*table.Table
	workers int // Index worker count, from {1, 2, 8}
	// cancelAt is the batch whose first UpdateContext runs under a context
	// that dies at its (flipAfter+1)-th Err poll; -1 cancels nothing.
	cancelAt, flipAfter int
}

// decodeFuzzCase turns bytes into at most 4 tables over 4 shared column
// names with at most fuzzMaxRows rows in total, every cell null or one of
// 3 symbols, plus a worker count, a batch split and a cancel point. The
// cancel point is read last, so inputs that end before it (every input
// written before it existed) cancel nothing.
func decodeFuzzCase(data []byte) fuzzCase {
	r := &fuzzReader{data: data}
	cols := []string{"a", "b", "c", "d"}
	workers := []int{1, 2, 8}[r.next(3)]
	tables := make([]*table.Table, 1+r.next(4))
	rows := 0
	for ti := range tables {
		mask := 1 + r.next(15)
		var names []string
		for c, name := range cols {
			if mask&(1<<c) != 0 {
				names = append(names, name)
			}
		}
		t := table.New(fmt.Sprintf("t%d", ti), names...)
		for n := r.next(6); n > 0 && rows < fuzzMaxRows; n-- {
			row := make(table.Row, len(names))
			for c := range row {
				if v := r.next(4); v == 0 {
					row[c] = table.Null()
				} else {
					row[c] = table.S(string(rune('w' + v)))
				}
			}
			t.Rows = append(t.Rows, row)
			rows++
		}
		tables[ti] = t
	}

	nBatches := 1 + r.next(4)
	var views [][]*table.Table
	seen := make([]int, len(tables)) // rows visible per table so far
	visible := 0                     // tables visible so far
	for k := 1; k <= nBatches; k++ {
		if k == nBatches {
			visible = len(tables)
		} else {
			visible = max(visible, 1+r.next(len(tables)))
		}
		view := make([]*table.Table, visible)
		for ti := range view {
			t := tables[ti]
			if k == nBatches {
				seen[ti] = len(t.Rows)
			} else {
				seen[ti] = max(seen[ti], r.next(len(t.Rows)+1))
			}
			cut := table.New(t.Name, t.Columns...)
			cut.Rows = t.Rows[:seen[ti]]
			view[ti] = cut
		}
		views = append(views, view)
	}
	cancelAt := r.next(nBatches+1) - 1
	return fuzzCase{views: views, workers: workers, cancelAt: cancelAt, flipAfter: r.next(32)}
}

// withoutEmptyRows renders rows with provenance as a sorted multiset of
// lines, dropping from every provenance the TIDs of fully-empty input
// rows: a stream drops their all-null tuple where the batch result folds
// it into a subsumer (see Index.StreamContext), and that fold is the only
// way the two may differ.
func withoutEmptyRows(view []*table.Table, rows []table.Row, provs [][]TID) []string {
	empty := make(map[TID]bool)
	for ti, t := range view {
		for ri, row := range t.Rows {
			informative := false
			for _, c := range row {
				informative = informative || !c.IsNull
			}
			if !informative {
				empty[TID{Table: ti, Row: ri}] = true
			}
		}
	}
	kept := make([][]TID, len(provs))
	for i, prov := range provs {
		for _, tid := range prov {
			if !empty[tid] {
				kept[i] = append(kept[i], tid)
			}
		}
	}
	return lineSet(rows, kept)
}

// FuzzFDDifferential drives the one engine path through random
// integration sets, batch splits, worker counts and cancel points: after
// every Index.UpdateContext the result must be byte-identical — rows and
// provenance — to the definitional oracle over the same view. One Update
// may run under a context that dies at a fuzz-chosen poll; it must fail
// with ErrCanceled or succeed correctly, and the clean retry that follows
// must again match the oracle. Finally a fresh Index streams the whole set
// at the same worker count, and the streamed rows and provenance must
// match the oracle's as a multiset.
func FuzzFDDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fc := decodeFuzzCase(data)
		x := NewIndex()
		opts := Options{Workers: fc.workers}
		var want *Result
		for k, view := range fc.views {
			schema := IdentitySchema(view)
			var err error
			if want, err = NaiveFD(view, schema); err != nil {
				t.Fatalf("batch %d: oracle: %v", k, err)
			}
			if k == fc.cancelAt {
				got, err := x.UpdateContext(newFlipCtx(fc.flipAfter), view, schema, opts)
				switch {
				case err == nil && !resultsIdentical(got, want):
					t.Fatalf("batch %d workers %d: Update that outlived its cancel point (%d) differs from the oracle",
						k, fc.workers, fc.flipAfter)
				case err != nil && !errors.Is(err, ErrCanceled):
					t.Fatalf("batch %d workers %d: canceled Update: %v", k, fc.workers, err)
				}
			}
			got, err := x.UpdateContext(context.Background(), view, schema, opts)
			if err != nil {
				t.Fatalf("batch %d workers %d: %v", k, fc.workers, err)
			}
			if !resultsIdentical(got, want) {
				t.Fatalf("batch %d/%d workers %d (cancel at %d after %d):\ninput:\n%v\ngot:\n%v %v\nwant:\n%v %v",
					k+1, len(fc.views), fc.workers, fc.cancelAt, fc.flipAfter, view, got.Table, got.Prov, want.Table, want.Prov)
			}
		}

		final := fc.views[len(fc.views)-1]
		var rows []table.Row
		var provs [][]TID
		_, err := NewIndex().StreamContext(context.Background(), final, IdentitySchema(final), opts, func(row table.Row, prov []TID) error {
			rows = append(rows, row)
			provs = append(provs, prov)
			return nil
		})
		if err != nil {
			t.Fatalf("stream workers %d: %v", fc.workers, err)
		}
		if got, exp := withoutEmptyRows(final, rows, provs), withoutEmptyRows(final, want.Table.Rows, want.Prov); !reflect.DeepEqual(got, exp) {
			t.Fatalf("stream workers %d:\ninput:\n%v\nstreamed:\n%v\nwant:\n%v", fc.workers, final, got, exp)
		}
	})
}
