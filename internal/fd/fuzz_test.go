package fd

import (
	"context"
	"fmt"
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

// decodeFuzzCase turns bytes into at most 4 tables over 4 shared column
// names with at most fuzzMaxRows rows in total, every cell null or one of
// 3 symbols, plus an Index worker count from {1, 2, 8} and a batch split:
// views[k] is the integration set after batch k — a prefix of the tables,
// each cut to a prefix of its rows, growing monotonically to the whole set.
func decodeFuzzCase(data []byte) (views [][]*table.Table, workers int) {
	r := &fuzzReader{data: data}
	cols := []string{"a", "b", "c", "d"}
	workers = []int{1, 2, 8}[r.next(3)]
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
	return views, workers
}

// FuzzFDDifferential drives the one engine path through random
// integration sets, batch splits and worker counts: after every
// Index.UpdateContext the result must be byte-identical — rows and
// provenance — to the definitional oracle over the same view.
func FuzzFDDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		views, workers := decodeFuzzCase(data)
		x := NewIndex()
		opts := Options{Workers: workers}
		for k, view := range views {
			schema := IdentitySchema(view)
			want, err := NaiveFD(view, schema)
			if err != nil {
				t.Fatalf("batch %d: oracle: %v", k, err)
			}
			got, err := x.UpdateContext(context.Background(), view, schema, opts)
			if err != nil {
				t.Fatalf("batch %d workers %d: %v", k, workers, err)
			}
			if !resultsIdentical(got, want) {
				t.Fatalf("batch %d/%d workers %d:\ninput:\n%v\ngot:\n%v %v\nwant:\n%v %v",
					k+1, len(views), workers, view, got.Table, got.Prov, want.Table, want.Prov)
			}
		}
	})
}
