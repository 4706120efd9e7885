package fd

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"fuzzyfd/internal/table"
)

// streamAll drains a fresh Index's stream under the identity schema — the
// one-shot streaming path.
func streamAll(tables []*table.Table, opts Options) ([]table.Row, [][]TID, Stats, error) {
	return indexStreamAll(NewIndex(), tables, IdentitySchema(tables), opts)
}

// rowKey renders a row for order-insensitive comparison.
func rowKey(row table.Row) string {
	s := ""
	for _, c := range row {
		if c.IsNull {
			s += "\x00⊥"
		} else {
			s += "\x00" + c.Val
		}
	}
	return s
}

// chainGroups builds one chainTables-shaped component per size, over
// shared column names but disjoint values: components large enough for the
// worker pool, whose completions can overtake each other.
func chainGroups(sizes ...int) []*table.Table {
	var tables []*table.Table
	for g, n := range sizes {
		for i := 0; i < n; i++ {
			t := table.New(fmt.Sprintf("G%dL%d", g, i), fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", i+1))
			t.MustAppendRow(table.S(fmt.Sprintf("g%dv%d", g, i)), table.S(fmt.Sprintf("g%dv%d", g, i+1)))
			tables = append(tables, t)
		}
	}
	return tables
}

// TestStreamMatchesBatch: the streamed row multiset and provenance equal
// FullDisjunction's, up to row order, sequentially and with workers — and
// the two orders are identical to each other (deterministic assembly).
func TestStreamMatchesBatch(t *testing.T) {
	for _, tables := range [][]*table.Table{fig1Tables(), fig1Fuzzy(), chainTables(12), chainGroups(30, 18, 25, 20)} {
		schema := IdentitySchema(tables)
		want, err := FullDisjunction(tables, schema, Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantKeys := make(map[string][]TID, len(want.Prov))
		for i, row := range want.Table.Rows {
			wantKeys[rowKey(row)] = want.Prov[i]
		}

		seqRows, seqProvs, stats, err := streamAll(tables, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(seqRows) != len(want.Table.Rows) {
			t.Fatalf("stream emitted %d rows, batch has %d", len(seqRows), len(want.Table.Rows))
		}
		for i, row := range seqRows {
			prov, ok := wantKeys[rowKey(row)]
			if !ok {
				t.Fatalf("streamed row %d not in batch result: %v", i, row)
			}
			if !reflect.DeepEqual(prov, seqProvs[i]) {
				t.Errorf("row %d provenance differs: stream %v batch %v", i, seqProvs[i], prov)
			}
		}
		if stats.Output != len(seqRows) || stats.Closure == 0 {
			t.Errorf("stream stats not populated: %+v", stats)
		}

		if stats.Subsumed != want.Stats.Subsumed {
			t.Errorf("stream Subsumed=%d, batch %d", stats.Subsumed, want.Stats.Subsumed)
		}

		for _, workers := range []int{4, 8} {
			parRows, parProvs, _, err := streamAll(tables, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(parRows, seqRows) || !reflect.DeepEqual(parProvs, seqProvs) {
				t.Errorf("stream order at %d workers differs from sequential stream order", workers)
			}
		}
	}
}

// TestStreamMatchesBatchRandom: on random tables, fully-empty rows
// included, the streamed rows equal the batch result's cells up to order.
func TestStreamMatchesBatchRandom(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tables := randomTables(r)
		schema := IdentitySchema(tables)
		rows, _, _, err := streamAll(tables, Options{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		batch, err := FullDisjunction(tables, schema, Options{})
		if err != nil {
			return false
		}
		if len(rows) != batch.Table.NumRows() {
			t.Logf("seed %d: streamed %d vs batch %d", seed, len(rows), batch.Table.NumRows())
			return false
		}
		stream := table.New("FD", schema.Columns...)
		stream.Rows = rows
		return stream.EqualRowsUnordered(batch.Table)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestStreamFig1: the paper's fuzzy Figure 1 streams its five integrated
// rows out of at least four independent components.
func TestStreamFig1(t *testing.T) {
	rows, _, stats, err := streamAll(fig1Fuzzy(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("stream yielded %d rows, want 5", len(rows))
	}
	// Fig. 1 fuzzy splits into per-city components (New Delhi alone,
	// Boston+US, ...).
	if stats.Components < 4 {
		t.Errorf("components=%d", stats.Components)
	}
}

// TestStreamAllNullRow: a fully-empty input row's all-null tuple is
// dropped from the stream when other rows exist — the documented
// divergence from the batch fold — but the row cells and the Subsumed
// count still match the batch result.
func TestStreamAllNullRow(t *testing.T) {
	tables := fig1Tables()
	tables[0].MustAppendRow(table.Null(), table.Null())
	schema := IdentitySchema(tables)
	want, err := FullDisjunction(tables, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, _, stats, err := streamAll(tables, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != want.Table.NumRows() {
		t.Fatalf("stream emitted %d rows, batch has %d", len(rows), want.Table.NumRows())
	}
	for _, row := range rows {
		hasValue := false
		for _, c := range row {
			hasValue = hasValue || !c.IsNull
		}
		if !hasValue {
			t.Fatal("all-null row leaked into the stream")
		}
	}
	if stats.Subsumed != want.Stats.Subsumed {
		t.Errorf("stream Subsumed=%d, batch %d", stats.Subsumed, want.Stats.Subsumed)
	}
}

// TestStreamEmpty: an empty integration set streams nothing and reports no
// components.
func TestStreamEmpty(t *testing.T) {
	empty := table.New("e", "a")
	rows, _, stats, err := streamAll([]*table.Table{empty}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 || stats.Components != 0 {
		t.Errorf("empty input streamed %d rows over %d components", len(rows), stats.Components)
	}
}

// TestStreamSchemaError: an invalid schema is rejected before anything
// streams.
func TestStreamSchemaError(t *testing.T) {
	tables := fig1Fuzzy()
	bad := IdentitySchema(tables)
	bad.Mapping[0][0] = 99
	_, err := NewIndex().StreamContext(context.Background(), tables, bad, Options{}, func(table.Row, []TID) error {
		t.Fatal("row emitted under an invalid schema")
		return nil
	})
	if err == nil {
		t.Error("invalid schema accepted")
	}
}

// TestStreamBudgetError: a closure over the tuple budget fails the stream
// with ErrTupleBudget.
func TestStreamBudgetError(t *testing.T) {
	_, _, _, err := streamAll(fig1Fuzzy(), Options{MaxTuples: 1})
	if !errors.Is(err, ErrTupleBudget) {
		t.Errorf("want ErrTupleBudget, got %v", err)
	}
}

// TestStreamEmitsBeforeBudgetFailure: streaming delivers the components
// closed before the budget runs out — two components where only the second
// blows the (global) budget, and the first component's row arrives before
// the error.
func TestStreamEmitsBeforeBudgetFailure(t *testing.T) {
	// Component 1 (ingested, so closed and emitted, first): one pair that
	// merges into a single row.
	t1 := table.New("t1", "d", "e")
	t1.MustAppendRow(table.S("k1"), table.S("x"))
	t2 := table.New("t2", "d", "f")
	t2.MustAppendRow(table.S("k1"), table.S("y"))
	// Component 2: 4×4 joinable rows whose 16 merges exceed the budget.
	t3 := table.New("t3", "a", "b")
	t4 := table.New("t4", "a", "c")
	for i := 0; i < 4; i++ {
		t3.MustAppendRow(table.S("k2"), table.S(string(rune('p'+i))))
		t4.MustAppendRow(table.S("k2"), table.S(string(rune('u'+i))))
	}
	tables := []*table.Table{t1, t2, t3, t4}
	// 10 base tuples plus the pair's merge fit; the big component's do not.
	rows, _, _, err := streamAll(tables, Options{MaxTuples: 12})
	if !errors.Is(err, ErrTupleBudget) {
		t.Fatalf("want ErrTupleBudget from the big component, got %v", err)
	}
	if len(rows) != 1 || rows[0][0].Val != "k1" {
		t.Errorf("want the pair component's row before the failure, got %v", rows)
	}
}

// TestStreamEmitsBeforeCompletion: rows of already-closed components are
// delivered while later components remain unclosed — cancel from inside
// emit and keep the prefix.
func TestStreamEmitsBeforeCompletion(t *testing.T) {
	// Several independent two-tuple components, plus distinct singleton
	// values per table so identity alignment yields separate components.
	var tables []*table.Table
	for i := 0; i < 6; i++ {
		a := table.New(fmt.Sprintf("A%d", i), "k", fmt.Sprintf("x%d", i))
		a.MustAppendRow(table.S(fmt.Sprintf("k%d", i)), table.S("l"))
		b := table.New(fmt.Sprintf("B%d", i), "k", fmt.Sprintf("y%d", i))
		b.MustAppendRow(table.S(fmt.Sprintf("k%d", i)), table.S("r"))
		tables = append(tables, a, b)
	}
	schema := IdentitySchema(tables)

	ctx, cancel := context.WithCancel(context.Background())
	var got int
	_, err := NewIndex().StreamContext(ctx, tables, schema, Options{}, func(row table.Row, prov []TID) error {
		got++
		if got == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled after mid-stream cancel, got %v", err)
	}
	if got < 2 {
		t.Fatalf("expected at least 2 rows before cancellation, got %d", got)
	}
	full, err := FullDisjunction(tables, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got >= full.Table.NumRows() {
		t.Fatalf("cancellation emitted all %d rows; wanted a partial prefix", got)
	}
}

// TestStreamEmitError: an emit failure aborts the stream and surfaces the
// error unchanged.
func TestStreamEmitError(t *testing.T) {
	tables := fig1Tables()
	boom := errors.New("sink failed")
	_, err := NewIndex().StreamContext(context.Background(), tables, IdentitySchema(tables), Options{}, func(table.Row, []TID) error {
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want sink error, got %v", err)
	}
}

// TestStreamProgress: per-component progress events arrive in completion
// order with a stable total, and each fires after the rows its completion
// released are out — the last one after the last row, so a consumer that
// flushes on Progress has flushed everything.
func TestStreamProgress(t *testing.T) {
	for _, tables := range [][]*table.Table{fig1Tables(), chainGroups(30, 18, 25, 20)} {
		for _, workers := range []int{1, 8} {
			var events []ComponentProgress
			var rowsAt []int // rows emitted when each event fired
			rows := 0
			opts := Options{Workers: workers, Progress: func(p ComponentProgress) {
				events = append(events, p)
				rowsAt = append(rowsAt, rows)
			}}
			_, err := NewIndex().StreamContext(context.Background(), tables, IdentitySchema(tables), opts, func(table.Row, []TID) error {
				rows++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(events) == 0 {
				t.Fatal("no progress events")
			}
			if !sort.SliceIsSorted(events, func(a, b int) bool { return events[a].Done < events[b].Done }) {
				t.Errorf("workers=%d: progress Done counts not monotonic: %+v", workers, events)
			}
			last := events[len(events)-1]
			if last.Done != last.Total || last.Total != len(events) {
				t.Errorf("workers=%d: progress did not cover all components: %+v", workers, events)
			}
			if rowsAt[len(rowsAt)-1] != rows {
				t.Errorf("workers=%d: last progress event fired with %d of %d rows out", workers, rowsAt[len(rowsAt)-1], rows)
			}
			if workers == 1 && rowsAt[0] == 0 {
				t.Error("first component's progress fired before its rows were out")
			}
		}
	}
}
