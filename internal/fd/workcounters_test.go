package fd_test

import (
	"testing"

	"fuzzyfd/internal/datagen"
	"fuzzyfd/internal/fd"
	"fuzzyfd/internal/table"
)

// workCounters are the per-Update work counters that must not depend on
// the schedule.
type workCounters struct {
	MergeAttempts, Merges, SeedReusedTuples, ReclosedTuples int
}

// sessionCounters feeds tables into one Index in n batches and returns
// each Update's work counters.
func sessionCounters(t *testing.T, tables []*table.Table, n int, opts fd.Options) []workCounters {
	t.Helper()
	x := fd.NewIndex()
	var out []workCounters
	for k := 1; k <= n; k++ {
		view := truncated(tables, n, k)
		res, err := x.Update(view, fd.IdentitySchema(view), opts)
		if err != nil {
			t.Fatalf("workers %d, batch %d: %v", opts.Workers, k, err)
		}
		st := res.Stats
		out = append(out, workCounters{st.MergeAttempts, st.Merges, st.SeedReusedTuples, st.ReclosedTuples})
	}
	return out
}

// TestWorkCountersDeterministicAcrossWorkers: the work counters of an
// incremental session are a function of its input alone. Two runs at 8
// workers report the same counters at every step, and the re-closures
// (steps 2..n) report exactly what the sequential run reports — a dirty
// hub re-closes on the same cached sequential path at any worker count.
// The first step may differ: its hub is a full closure, which the
// pivot-partitioned engine runs with fewer attempts.
func TestWorkCountersDeterministicAcrossWorkers(t *testing.T) {
	tables := datagen.IMDB(datagen.IMDBConfig{Seed: 42, TotalTuples: 6000})
	const batches = 4
	par1 := sessionCounters(t, tables, batches, fd.Options{Workers: 8})
	par2 := sessionCounters(t, tables, batches, fd.Options{Workers: 8})
	seq := sessionCounters(t, tables, batches, fd.Options{Workers: 1})
	for k := range par1 {
		if par1[k] != par2[k] {
			t.Errorf("step %d: two Workers=8 runs differ: %+v vs %+v", k+1, par1[k], par2[k])
		}
		if k > 0 && par1[k] != seq[k] {
			t.Errorf("step %d: Workers=8 re-closure %+v, Workers=1 %+v", k+1, par1[k], seq[k])
		}
	}
	if par1[batches-1].MergeAttempts == 0 {
		t.Error("the last re-closure attempted no merges; the fixture does not exercise re-closure")
	}
}
