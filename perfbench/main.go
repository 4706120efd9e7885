// Command perfbench is the repository benchmark. It drives three seeded
// workloads through the public entry points and prints every metric by
// name, with its unit and sample count, ending with one JSON line:
//
//   - imdb-fuzzy: one-shot fuzzyfd.IntegrateContext of the IMDB-shaped set
//     at 10k tuples (the paper's Figure 3 workload);
//   - lake-match: fuzzyfd.MatchValuesContext over three draws of the 31
//     Auto-Join sets, plus EM F1 of Fuzzy FD (Table 1 and §3.2 quality);
//   - serve-durable: a durable equi-join fuzzyfdd over loopback HTTP with
//     two closed-loop clients.
//
// With -trace 0 all three run, interleaved on a fixed schedule: the named
// one for -seconds on top of its fixed work, the others their fixed work,
// so every run reports all end-to-end metrics. With -trace 1 only the named
// one runs, first untraced and then with its layers instrumented from
// outside, and the per-layer metrics are printed with the tracing overhead.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench -workload imdb-fuzzy -seed 1 -seconds 8 -trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fuzzyfd"
)

// An end-to-end run works through schedule: three rounds, each an
// imdb-fuzzy step, a lake-match step and two serve-durable steps. At each
// step the named workload runs for its share of the window and at least
// minPerStep operations; the others run just minPerStep. Spreading every
// workload over the whole run averages out the machine's slow spells, which
// last seconds to tens of seconds. The serve steps get most of the run:
// fsync latency on a shared disk drifts by 2-3x within a minute, and the
// add p99 (the snapshot on the acknowledgement path) and requests_per_s
// follow it, so they need the most time to average. Six serve steps of 16
// session lifecycles make 2304 adds, well over the 1000 the add p99 needs.
var (
	schedule   = repeat(3, "imdb-fuzzy", "serve-durable", "lake-match", "serve-durable")
	minPerStep = map[string]int{
		"imdb-fuzzy":    2,  // integrations
		"lake-match":    1,  // passes over the Auto-Join sets
		"serve-durable": 16, // session lifecycles
	}
)

// setupRounds is the number of set-ups per run; setup_s is their median.
const setupRounds = 5

func repeat(n int, steps ...string) []string {
	var out []string
	for i := 0; i < n; i++ {
		out = append(out, steps...)
	}
	return out
}

var workloads = []string{"imdb-fuzzy", "lake-match", "serve-durable"}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "imdb-fuzzy, lake-match or serve-durable")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 8, "the named workload's share of the run, in seconds, on top of the fixed work")
	trace := flag.Int("trace", 0, "1 runs the named workload traced and prints per-layer metrics")
	dir := flag.String("dir", filepath.Join(".bench_build", "perfbench"), "scratch directory for daemon data and span files")
	flag.Parse()
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %s, -seconds ≥ 1, -trace 0|1\n", strings.Join(workloads, "|"))
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &bench{workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second, dir: *dir}
	var out *report
	var err error
	if *trace == 1 {
		out, err = b.traced(context.Background())
	} else {
		out, err = b.e2e(context.Background())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out.print(os.Stdout)
	return 0
}

type bench struct {
	workload string
	seed     int64
	window   time.Duration
	dir      string
	c        counts
}

// inputs are one run's generated inputs and the running daemon.
type inputs struct {
	imdb  *imdbWorkload
	lake  *lakeWorkload
	serve *serveWorkload
	d     *daemon
}

// setup generates the inputs of the named workloads, renders the JSONL
// bodies and, when serve-durable is among them, starts the daemon.
func (b *bench) setup(names []string, round int) (*inputs, error) {
	in := &inputs{}
	for _, n := range names {
		switch n {
		case "imdb-fuzzy":
			in.imdb = newIMDB(b.seed)
		case "lake-match":
			in.lake = newLake(b.seed)
		case "serve-durable":
			s, err := newServe(b.seed)
			if err != nil {
				return nil, err
			}
			in.serve = s
			d, err := startDaemon(filepath.Join(b.dir, fmt.Sprintf("data-%d", round)), nil)
			if err != nil {
				return nil, err
			}
			in.d = d
		}
	}
	return in, nil
}

// e2e is the untraced run: set up every workload setupRounds times, work
// through the schedule, check every output, and report the end-to-end
// metrics.
func (b *bench) e2e(ctx context.Context) (*report, error) {
	var in *inputs
	var setups []float64
	for round := 0; round < setupRounds; round++ {
		t := time.Now()
		next, err := b.setup(workloads, round)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if in != nil && in.d != nil {
			if err := in.d.stop(); err != nil {
				return nil, err
			}
		}
		in = next
	}
	defer func() {
		if err := in.d.stop(); err != nil {
			b.c.wrong(fmt.Errorf("serve-durable: stop daemon: %w", err))
		}
	}()

	// The schedule is the same whichever workload is named, so each step
	// always runs in the same state: a collected heap and no pending disk
	// writeback from the step before.
	steps := 0
	for _, w := range schedule {
		if w == b.workload {
			steps++
		}
	}
	var imdbSecs, lakeSecs []float64
	var imdbRes *fuzzyfd.Result
	var clusters [][]fuzzyfd.ValueCluster
	sr := newServeRun()
	for i, w := range schedule {
		quiesce()
		var until time.Time // zero: the minimum only
		if w == b.workload {
			until = time.Now().Add(b.window / time.Duration(steps))
		}
		switch w {
		case "imdb-fuzzy":
			var secs []float64
			secs, imdbRes = in.imdb.measure(ctx, until, minPerStep[w], &b.c)
			imdbSecs = append(imdbSecs, secs...)
		case "lake-match":
			secs, cl := in.lake.measure(ctx, until, minPerStep[w], &b.c)
			lakeSecs = append(lakeSecs, secs...)
			if clusters == nil {
				clusters = cl
			} else if !reflect.DeepEqual(clusters, cl) {
				b.c.wrong(fmt.Errorf("lake-match: step %d clusters differ from the first step's", i+1))
			}
		case "serve-durable":
			in.serve.load(ctx, in.d, until, minPerStep[w], sr, nil, &b.c)
		}
	}

	r := newReport(b)
	r.set("setup_s", median(setups), "s", len(setups))
	r.set("tuples_per_s", ratio(float64(in.imdb.tuples), median(imdbSecs)), "tuples/s", len(imdbSecs))
	// Pooled over every pass: the three Auto-Join draws differ in work per
	// value, and a median of a few passes moved by 15% from seed to seed.
	r.set("match_values_per_s", ratio(float64(in.lake.values*len(lakeSecs)), sum(lakeSecs)), "values/s", len(lakeSecs))

	if err := in.imdb.check(ctx, imdbRes); err != nil {
		b.c.wrong(err)
	}
	f1, err := in.lake.check(clusters)
	if err != nil {
		b.c.wrong(err)
	}
	r.set("autojoin_f1", f1, "ratio", len(in.lake.sets))
	emF1, err := in.lake.emF1(ctx)
	if err != nil {
		b.c.wrong(err)
	}
	r.set("em_f1", emF1, "ratio", len(in.lake.ems))
	if err := in.serve.check(sr); err != nil {
		b.c.wrong(err)
	}
	b.serveLatencies(r, sr)
	r.set("requests_per_s", sr.requestsPerSecond(), "req/s", sr.counted)
	r.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	return r, nil
}

// serveLatencies reports the add and result latency percentiles.
func (b *bench) serveLatencies(r *report, sr *serveRun) {
	for _, q := range []struct {
		route, name string
		p           float64
	}{
		{"add", "add_p50_ms", 0.50}, {"add", "add_p99_ms", 0.99},
		{"result", "result_p50_ms", 0.50}, {"result", "result_p90_ms", 0.90},
	} {
		lat := sr.latencies(q.route)
		v, err := percentile(lat, q.p)
		if err != nil {
			b.c.wrong(fmt.Errorf("serve-durable: %s: %w", q.name, err))
		}
		r.set(q.name, v, "ms", len(lat))
	}
}

// counts tallies attempted and failed operations and failed checks. It is
// safe for concurrent use.
type counts struct {
	mu                sync.Mutex
	attempted, failed int
	errs              []error // the first few failures, for the report
	checks            []error // failed correctness checks
}

// add counts one attempted operation and its outcome.
func (c *counts) add(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.errs) < 5 {
			c.errs = append(c.errs, err)
		}
	}
}

// wrong records a failed correctness check.
func (c *counts) wrong(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checks = append(c.checks, err)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the printed result: the metrics in order with their sample
// counts, and the run's tallies.
type report struct {
	b       *bench
	order   []string
	metrics map[string]metric
	samples map[string]int
	notes   []string
}

func newReport(b *bench) *report {
	return &report{b: b, metrics: map[string]metric{}, samples: map[string]int{}}
}

func (r *report) set(name string, v float64, unit string, n int) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) print(f *os.File) {
	w := bufio.NewWriter(f)
	defer w.Flush()
	c := &r.b.c
	fmt.Fprintf(w, "perfbench workload=%s seed=%d window=%s\n", r.b.workload, r.b.seed, r.b.window)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(w, "  %-28s %14.4f %-9s n=%d\n", name, m.Value, m.Unit, r.samples[name])
	}
	for _, err := range c.errs {
		fmt.Fprintf(w, "  failed: %v\n", err)
	}
	for _, err := range c.checks {
		fmt.Fprintf(w, "  CHECK FAILED: %v\n", err)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(c.checks) == 0 && c.failed == 0, max(c.attempted, 1), c.failed, r.metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// quiesce collects the heap and flushes pending disk writes, so one
// workload's garbage and writeback do not land in the next one's window.
func quiesce() {
	runtime.GC()
	syscall.Sync()
}

// matchWorkers is the match phase's default embedding warm-up concurrency.
func matchWorkers() int { return runtime.NumCPU() }
