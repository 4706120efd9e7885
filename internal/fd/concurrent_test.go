package fd

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// Equivalence of parallel closure (component scheduling, hub closure with
// the pivot-partitioned engine or the sequential closure with a parallel
// subsumer search) with the sequential run on random integration sets,
// across worker counts. Runs under -race in CI, so this doubles as the
// scheduler's race coverage.
func TestConcurrentClosureMatchesSequentialRandom(t *testing.T) {
	variants := []Options{{Workers: 2}, {Workers: 4}, {Workers: 8}}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tables := randomTablesWithEmptyRows(r)
		schema := IdentitySchema(tables)
		want, err := FullDisjunction(tables, schema, Options{})
		if err != nil {
			return false
		}
		for _, opts := range variants {
			got, err := FullDisjunction(tables, schema, opts)
			if err != nil {
				t.Logf("seed %d opts %+v: %v", seed, opts, err)
				return false
			}
			if !resultsIdentical(got, want) {
				t.Logf("seed %d opts %+v:\ninput:\n%v\ngot:\n%v %v\nwant:\n%v %v",
					seed, opts, tables, got.Table, got.Prov, want.Table, want.Prov)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// The incremental index at Workers > 1: updates stay byte-identical to
// one-shot runs when hub components are re-closed — over their cached
// indexes, or after a pivot-partitioned full closure left none to reuse
// (the slow re-seeding path).
func TestIndexIncrementalConcurrentRandom(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tables := randomTablesWithEmptyRows(r)
		nBatches := 1 + r.Intn(3)
		x := NewIndex()
		for k := 1; k <= nBatches; k++ {
			view := accumulate(tables, nBatches, k)
			schema := IdentitySchema(view)
			got, err := x.Update(view, schema, Options{Workers: 4})
			if err != nil {
				return false
			}
			want, err := FullDisjunction(view, schema, Options{})
			if err != nil {
				return false
			}
			if !resultsIdentical(got, want) {
				t.Logf("seed %d batch %d/%d: incremental concurrent differs", seed, k, nBatches)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// A canceled parallel closure must not leak goroutines or deadlock: the
// workers drain promptly and the error surfaces as ErrCanceled.
func TestConcurrentClosureCancel(t *testing.T) {
	tables := chainTables(60)
	schema := IdentitySchema(tables)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FullDisjunctionContext(ctx, tables, schema, Options{Workers: 4}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}
