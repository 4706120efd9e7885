package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fuzzyfd"
	"fuzzyfd/internal/wal"
)

// perLayer lists the per-layer metrics with their units, in report order.
// Every traced run reports all of them; a layer the workload does not reach
// reads 0.
var perLayer = []struct{ name, unit string }{
	{"core.align_ms", "ms"}, {"core.match_ms", "ms"}, {"core.fd_ms", "ms"},
	{"core.unattributed_ms", "ms"}, {"core.alloc_mb", "MB"},
	{"embed.cold_embeds", "count"}, {"embed.busy_ms", "ms"}, {"embed.cache_hit_ratio", "ratio"},
	{"match.set_ms", "ms"}, {"match.values", "count"}, {"match.pairs_scored", "count"},
	{"match.merged", "count"}, {"match.rewrites", "count"}, {"match.merge_yield", "ratio"},
	{"fd.components", "count"}, {"fd.largest_comp", "count"}, {"fd.closure", "count"},
	{"fd.merge_attempts", "count"}, {"fd.merges", "count"}, {"fd.merge_yield", "ratio"},
	{"fd.pivot_skipped", "count"}, {"fd.subsumed", "count"},
	{"fd.dirty_components", "count"}, {"fd.reclosed_tuples", "count"}, {"fd.seed_reused_tuples", "count"},
	{"wal.fsyncs", "count"}, {"wal.fsync_ms", "ms"}, {"wal.log_bytes", "bytes"},
	{"wal.snapshot_bytes", "bytes"}, {"wal.write_amp", "ratio"}, {"wal.snapshots", "count"},
	{"wal.snapshot_ms", "ms"},
	{"server.add_self_ms", "ms"}, {"server.result_self_ms", "ms"}, {"server.create_ms", "ms"},
	{"server.delete_ms", "ms"}, {"server.integrations_per_add", "ratio"}, {"server.throttled", "count"},
	{"table.decode_ms", "ms"},
	{"trace.overhead_pct", "%"}, {"trace.spans", "count"},
}

// layers collects per-layer samples; a metric reports the median of its
// samples.
type layers map[string][]float64

func (l layers) sample(name string, v float64) { l[name] = append(l[name], v) }
func (l layers) set(name string, v float64)    { l[name] = []float64{v} }

// fdOneShot samples a one-shot integration's Full Disjunction counters.
func (l layers) fdOneShot(st fuzzyfd.FDStats) {
	l.sample("fd.components", float64(st.Components))
	l.sample("fd.largest_comp", float64(st.LargestComp))
	l.sample("fd.closure", float64(st.Closure))
	l.sample("fd.merge_attempts", float64(st.MergeAttempts))
	l.sample("fd.merges", float64(st.Merges))
	l.sample("fd.merge_yield", ratio(float64(st.Merges), float64(st.MergeAttempts)))
	l.sample("fd.pivot_skipped", float64(st.PivotSkipped))
	l.sample("fd.subsumed", float64(st.Subsumed))
}

// traced runs the named workload twice for half the window each: untraced,
// then traced. The per-layer metrics come from the traced half; the
// difference in per-operation cost between the halves is the tracing
// overhead.
func (b *bench) traced(ctx context.Context) (*report, error) {
	in, err := b.setup([]string{b.workload}, 0)
	if err != nil {
		return nil, err
	}
	rec := &recorder{}
	half := b.window / 2
	r := newReport(b)
	l := layers{}
	var plain, withTrace float64 // per-operation cost, untraced and traced
	switch b.workload {
	case "imdb-fuzzy":
		secs, res := in.imdb.measure(ctx, time.Now().Add(half), minPerStep["imdb-fuzzy"], &b.c)
		plain = median(secs)
		l = traceIntegration(ctx, in.imdb.tables, time.Now().Add(half), minPerStep["imdb-fuzzy"], rec, &b.c)
		withTrace = median(l["core.total_s"])
		delete(l, "core.total_s")
		if err := in.imdb.check(ctx, res); err != nil {
			b.c.wrong(err)
		}
		r.note("untraced tuples_per_s %.1f (n=%d), traced %.1f", ratio(float64(in.imdb.tuples), plain), len(secs), ratio(float64(in.imdb.tuples), withTrace))
	case "lake-match":
		secs, _ := in.lake.measure(ctx, time.Now().Add(half), minPerStep["lake-match"], &b.c)
		plain = median(secs)
		var clusters [][]fuzzyfd.ValueCluster
		l, clusters = in.lake.trace(ctx, time.Now().Add(half), minPerStep["lake-match"], rec, &b.c)
		withTrace = median(l["lake.pass_s"])
		delete(l, "lake.pass_s")
		if _, err := in.lake.check(clusters); err != nil {
			b.c.wrong(err)
		}
		// The EM integration is the workload's only Full Disjunction.
		emLayers := traceIntegration(ctx, in.lake.ems[0].Tables, time.Time{}, 1, rec, &b.c)
		for k, v := range emLayers {
			if strings.HasPrefix(k, "core.") && k != "core.total_s" || strings.HasPrefix(k, "fd.") {
				l[k] = v
			}
		}
		r.note("untraced match_values_per_s %.1f (n=%d), traced %.1f", ratio(float64(in.lake.values), plain), len(secs), ratio(float64(in.lake.values), withTrace))
	case "serve-durable":
		l, plain, withTrace, err = b.traceServe(ctx, in, half, rec)
		if err != nil {
			return nil, err
		}
		r.note("untraced requests_per_s %.1f, traced %.1f", ratio(1, plain), ratio(1, withTrace))
	}
	if plain > 0 {
		l.set("trace.overhead_pct", (withTrace/plain-1)*100)
	}
	l.set("trace.spans", float64(len(rec.all())))
	path := filepath.Join(b.dir, fmt.Sprintf("spans-%s-%d.jsonl", b.workload, b.seed))
	if err := rec.writeJSONL(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	r.note("spans written to %s", path)
	for _, m := range perLayer {
		r.set(m.name, median(l[m.name]), m.unit, len(l[m.name]))
	}
	return r, nil
}

// traceServe runs the closed-loop clients against an untraced daemon and a
// traced one (its WAL on the timing filesystem), alternating twice so both
// see the disk in the same states: fsync latency here climbs under
// sustained load and recovers at rest, which would otherwise charge the
// later half with the earlier one's writes. It derives the per-layer
// metrics from the traced daemon. Overhead compares seconds per completed
// request.
func (b *bench) traceServe(ctx context.Context, in *inputs, half time.Duration, rec *recorder) (layers, float64, float64, error) {
	dataDir := filepath.Join(b.dir, "data-traced")
	fs := newTimedFS(wal.OSFS{}, dataDir, rec)
	d, err := startDaemon(dataDir, fs)
	if err != nil {
		return nil, 0, 0, err
	}
	plainRun, run := newServeRun(), newServeRun()
	var allocs uint64
	sessions := minPerStep["serve-durable"] / 2
	for i := 0; i < 2; i++ {
		in.serve.load(ctx, in.d, time.Now().Add(half/2), sessions, plainRun, nil, &b.c)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		in.serve.load(ctx, d, time.Now().Add(half/2), sessions, run, rec, &b.c)
		runtime.ReadMemStats(&m1)
		allocs += m1.TotalAlloc - m0.TotalAlloc
	}
	prom, perr := scrape(ctx, d.base+"/metrics")
	for _, dm := range []*daemon{in.d, d} {
		if err := dm.stop(); err != nil {
			return nil, 0, 0, err
		}
	}
	if perr != nil {
		return nil, 0, 0, perr
	}
	for _, r := range []*serveRun{plainRun, run} {
		if err := in.serve.check(r); err != nil {
			b.c.wrong(err)
		}
	}

	l := layers{}
	requests := []string{"client.create", "client.add", "client.result", "client.delete"}
	attachByTime(rec, requests, []string{"core.align", "core.match", "core.fd", "wal.fsync", "wal.snapshot"})
	spans := rec.all()
	self := selfTimes(spans)
	for _, s := range spans {
		switch s.Name {
		case "client.add":
			l.sample("server.add_self_ms", ms(self[s.ID]))
		case "client.result":
			l.sample("server.result_self_ms", ms(self[s.ID]))
		case "client.create":
			l.sample("server.create_ms", ms(s.dur()))
		case "client.delete":
			l.sample("server.delete_ms", ms(s.dur()))
		case "core.align", "core.match", "core.fd":
			if s.Parent != 0 && spans[s.Parent-1].Name == "client.add" {
				l.sample(s.Name+"_ms", ms(s.dur()))
			}
		}
	}
	adds := float64(run.adds)
	l.set("core.alloc_mb", ratio(float64(allocs)/(1<<20), adds))
	l.set("fd.dirty_components", ratio(float64(run.dirty), adds))
	l.set("fd.reclosed_tuples", ratio(float64(run.reclosed), adds))
	seedReused, replayed := 0, 0
	for p := range run.finals {
		n, a, err := in.serve.incremental(p)
		if err != nil {
			return nil, 0, 0, err
		}
		seedReused += n
		replayed += a
	}
	l.set("fd.seed_reused_tuples", ratio(float64(seedReused), float64(replayed)))

	wc := fs.counters()
	var completed float64 // session lifecycles, whose deletes wrote the final snapshots
	for _, finals := range run.finals {
		completed += float64(len(finals))
	}
	l.set("wal.fsyncs", ratio(float64(wc.fsyncs), adds))
	l.set("wal.fsync_ms", ratio(float64(wc.fsyncNs)/1e6, adds))
	l.set("wal.log_bytes", ratio(float64(wc.logBytes), adds))
	l.set("wal.snapshot_bytes", ratio(float64(wc.snapBytes), adds))
	l.set("wal.write_amp", ratio(float64(wc.logBytes+wc.snapBytes), float64(run.ackedBytes)))
	l.set("wal.snapshots", ratio(float64(wc.snapshots), completed))
	l.set("wal.snapshot_ms", ratio(float64(wc.snapNs)/1e6, float64(wc.snapshots)))
	l.set("server.integrations_per_add", ratio(prom[`fuzzyfdd_phase_runs_total{phase="fd"}`], adds))
	l.set("server.throttled", prom["fuzzyfdd_throttled_total"])

	for p := range run.finals {
		for _, batch := range in.serve.plans[p] {
			for _, t := range batch {
				start := time.Now()
				if _, err := fuzzyfd.ReadJSONL(bytes.NewReader(t.body), t.name); err != nil {
					return nil, 0, 0, err
				}
				l.sample("table.decode_ms", ms(time.Since(start)))
			}
		}
	}
	perReq := func(r *serveRun) float64 { return ratio(1, r.requestsPerSecond()) }
	return l, perReq(plainRun), perReq(run), nil
}

// scrape reads a Prometheus text exposition into series → value. Series
// sharing a name with different labels are also summed under the bare name.
func scrape(ctx context.Context, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		series := line[:i]
		out[series] += v
		if name, _, ok := strings.Cut(series, "{"); ok {
			out[name] += v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	return out, nil
}
