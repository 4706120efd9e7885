package fd_test

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"fuzzyfd/internal/datagen"
	"fuzzyfd/internal/fd"
	"fuzzyfd/internal/table"
)

// The hub benchmark isolates the closure cost center of data-lake inputs:
// the single dominant connected component. IMDB-shaped inputs put ~70% of
// closure work into one hub component, so component-granularity scheduling
// leaves workers idle exactly when it matters; this fixture extracts that
// hub as a standalone single-component integration set and races the
// sequential closure against the pivot-partitioned engine inside it.

// hubTables extracts the largest connected component of an IMDB-shaped
// workload with total input tuples, materialized as a one-table
// integration set whose Full Disjunction is exactly the hub's closure.
func hubTables(total int) []*table.Table {
	tables := datagen.IMDB(datagen.IMDBConfig{Seed: 42, TotalTuples: total})
	return []*table.Table{fd.ExtractLargestComponent(tables, fd.IdentitySchema(tables))}
}

// hubEngines are the engine variants the hub benchmark and BENCH_fd.json
// sweep: the sequential baseline, its unbucketed variant (the pivot
// attempt-reduction gate compares the two), and the pivot-partitioned
// engine across worker counts.
var hubEngines = []struct {
	name string
	opts fd.Options
}{
	{"seq", fd.Options{}},
	{"seq-nopivot", fd.NoPivot(fd.Options{})},
	{"pivot-par2", fd.Options{Workers: 2}},
	{"pivot-par4", fd.Options{Workers: 4}},
	{"pivot-par8", fd.Options{Workers: 8}},
}

func BenchmarkClosureHub(b *testing.B) {
	tables := hubTables(8000)
	schema := fd.IdentitySchema(tables)
	for _, eng := range hubEngines {
		b.Run(eng.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := fd.FullDisjunction(tables, schema, eng.opts)
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Components != 1 {
					b.Fatalf("hub fixture split into %d components", res.Stats.Components)
				}
			}
		})
	}
	// A missing trajectory file would make CI's regression gate compare the
	// checked-in baseline against itself, so failing to write is an error,
	// not a log line. HUB_BENCH_OUT redirects the report (CI's GOMAXPROCS
	// sweep keeps the checked-in baseline at its canonical proc count).
	path := os.Getenv("HUB_BENCH_OUT")
	if path == "" {
		path = "../../BENCH_fd.json"
	}
	if err := writeHubBenchJSON(path, tables, schema); err != nil {
		b.Errorf("%s not written: %v", path, err)
	}
}

// hubBenchReps is how many instrumented repetitions the report takes. Each
// repetition runs every engine once, interleaved, so drift in the machine's
// speed hits all engines alike; the report keeps medians and interquartile
// ranges, so one GC pause or scheduler hiccup cannot fake a regression.
const hubBenchReps = 7

// hubBenchEngine is one engine's instrumented measurement. MergeAttempts
// and PivotSkipped version the attempt-reduction claim alongside the
// timing baseline: skipped candidates are exactly the iterations the
// unbucketed engine would have spent failing the consistency check. Both
// are deterministic work counters. Allocs/AllocBytes are the heap traffic
// of a single pass.
type hubBenchEngine struct {
	Name          string  `json:"name"`
	Workers       int     `json:"workers"`
	MS            float64 `json:"ms"`     // median over the repetitions
	IQRMS         float64 `json:"iqr_ms"` // interquartile range of the same
	Allocs        uint64  `json:"allocs"`
	AllocBytes    uint64  `json:"alloc_bytes"`
	MergeAttempts int     `json:"merge_attempts"`
	PivotSkipped  int     `json:"pivot_skipped"`
	PivotGroups   int     `json:"pivot_groups"`
}

// hubBenchReport is the BENCH_fd.json schema. The CI gates read
// Par8VsSeq (median ≥ 1, and within 1.5x of the checked-in baseline),
// PivotAttemptReduction (≥ 5), and the engines' merge-attempt counters
// (pivot-par8 below seq) — ratios and counters, so the gates transfer
// across machines of different absolute speed.
type hubBenchReport struct {
	Benchmark   string           `json:"benchmark"`
	GoMaxProcs  int              `json:"gomaxprocs"`
	TotalTuples int              `json:"total_tuples"`
	HubMembers  int              `json:"hub_members"`
	HubClosure  int              `json:"hub_closure"`
	PivotColumn string           `json:"pivot_column"`
	Reps        int              `json:"reps"`
	Engines     []hubBenchEngine `json:"engines"`
	// Par8VsSeq is the median over repetitions of seq's time divided by
	// pivot-par8's in the same repetition; Par8VsSeqIQR is its
	// interquartile range. PivotAttemptReduction is the factor by which
	// the pivot index cuts the sequential engine's merge attempts.
	Par8VsSeq             float64 `json:"par8_vs_seq_speedup"`
	Par8VsSeqIQR          float64 `json:"par8_vs_seq_speedup_iqr"`
	PivotAttemptReduction float64 `json:"pivot_attempt_reduction"`
}

// quartiles returns the median and interquartile range of xs (linear
// interpolation between order statistics).
func quartiles(xs []float64) (median, iqr float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return q(0.5), q(0.75) - q(0.25)
}

// writeHubBenchJSON runs hubBenchReps interleaved repetitions of every
// engine over the hub fixture and records median wall clock with its
// interquartile range, first-pass heap traffic, the work counters, and the
// derived ratios.
func writeHubBenchJSON(path string, tables []*table.Table, schema fd.Schema) error {
	report := hubBenchReport{
		Benchmark:   "closure_hub",
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		TotalTuples: 8000,
		HubMembers:  len(tables[0].Rows),
		Reps:        hubBenchReps,
		Engines:     make([]hubBenchEngine, len(hubEngines)),
	}
	times := make([][]float64, len(hubEngines))
	for rep := 0; rep < hubBenchReps; rep++ {
		for ei, eng := range hubEngines {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			res, err := fd.FullDisjunction(tables, schema, eng.opts)
			if err != nil {
				return err
			}
			times[ei] = append(times[ei], float64(time.Since(start).Microseconds())/1000)
			runtime.ReadMemStats(&after)
			if rep > 0 {
				continue
			}
			// Mallocs/TotalAlloc are monotone process counters; the first
			// pass's delta is the engine's heap traffic (the driver runs
			// nothing else concurrently).
			report.HubClosure = res.Stats.Closure
			if p := res.Stats.PivotColumn; p >= 0 {
				report.PivotColumn = schema.Columns[p]
			}
			report.Engines[ei] = hubBenchEngine{
				Name:          eng.name,
				Workers:       max(eng.opts.Workers, 1),
				Allocs:        after.Mallocs - before.Mallocs,
				AllocBytes:    after.TotalAlloc - before.TotalAlloc,
				MergeAttempts: res.Stats.MergeAttempts,
				PivotSkipped:  res.Stats.PivotSkipped,
				PivotGroups:   res.Stats.PivotGroups,
			}
		}
	}
	at := make(map[string]int, len(hubEngines))
	for ei, eng := range hubEngines {
		at[eng.name] = ei
		e := &report.Engines[ei]
		e.MS, e.IQRMS = quartiles(times[ei])
	}
	seq, par8 := at["seq"], at["pivot-par8"]
	ratios := make([]float64, hubBenchReps)
	for rep := range ratios {
		ratios[rep] = times[seq][rep] / times[par8][rep]
	}
	report.Par8VsSeq, report.Par8VsSeqIQR = quartiles(ratios)
	if a := report.Engines[seq].MergeAttempts; a > 0 {
		report.PivotAttemptReduction = float64(report.Engines[at["seq-nopivot"]].MergeAttempts) / float64(a)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// TestHubFixtureSingleComponent pins the benchmark's premise: the
// extracted hub really is one connected component, large enough that
// intra-component parallelism (not component scheduling) is what's being
// measured, and every engine closes it byte-identically.
func TestHubFixtureSingleComponent(t *testing.T) {
	tables := hubTables(3000)
	schema := fd.IdentitySchema(tables)
	res, err := fd.FullDisjunction(tables, schema, fd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Components != 1 {
		t.Fatalf("hub fixture has %d components, want 1", res.Stats.Components)
	}
	if res.Stats.OuterUnion < fd.HubMinTuples {
		t.Fatalf("hub fixture too small to engage intra-component parallelism: %d tuples", res.Stats.OuterUnion)
	}
	if res.Stats.PivotColumn < 0 {
		t.Error("pivot index did not engage on the hub fixture")
	}
	flat, err := fd.FullDisjunction(tables, schema, fd.NoPivot(fd.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if !flat.Table.Equal(res.Table) || !reflect.DeepEqual(flat.Prov, res.Prov) {
		t.Error("unbucketed closure differs from pivoted closure on the hub")
	}
	if flat.Stats.MergeAttempts < 5*res.Stats.MergeAttempts {
		t.Errorf("pivot attempt reduction below the benchmark gate: %d unbucketed vs %d pivoted",
			flat.Stats.MergeAttempts, res.Stats.MergeAttempts)
	}
	for _, eng := range hubEngines {
		if eng.opts.Workers == 0 {
			continue
		}
		par, err := fd.FullDisjunction(tables, schema, eng.opts)
		if err != nil {
			t.Fatal(err)
		}
		if !par.Table.Equal(res.Table) || !reflect.DeepEqual(par.Prov, res.Prov) {
			t.Fatalf("%s: hub closure differs from sequential", eng.name)
		}
		if par.Stats.PivotGroups == 0 {
			t.Errorf("%s: pivot-partitioned engine did not engage on the hub", eng.name)
		}
		if par.Stats.MergeAttempts >= res.Stats.MergeAttempts {
			t.Errorf("%s: %d merge attempts, sequential %d — the pivot groups should attempt fewer",
				eng.name, par.Stats.MergeAttempts, res.Stats.MergeAttempts)
		}
	}
}

// TestIndexClosesHubWithPivotEngine: a fresh Index closing the full 8k hub
// at 8 workers — the path core.Integrate, sessions and the daemon take —
// reaches the pivot-partitioned engine. The counter is deterministic.
func TestIndexClosesHubWithPivotEngine(t *testing.T) {
	tables := hubTables(8000)
	res, err := fd.NewIndex().Update(tables, fd.IdentitySchema(tables), fd.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PivotGroups == 0 {
		t.Error("hub not closed by the pivot-partitioned engine: PivotGroups=0")
	}
}
