package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"fuzzyfd"
	"fuzzyfd/internal/datagen"
	"fuzzyfd/internal/em"
	"fuzzyfd/internal/embed"
	"fuzzyfd/internal/match"
	"fuzzyfd/internal/metrics"
)

// Lake-match sizes: the paper's Auto-Join scale (31 sets, about 150 values
// per column) and the EM benchmark at 150 entities. EM stays small: its F1
// collapses above about 600 entities and its evaluation is quadratic. The
// work per set varies with its random column count, so one run draws
// lakeInstances Auto-Join benchmarks and lakeEMInstances EM benchmarks from
// its seed and averages over them, which keeps throughput and F1 steady
// from seed to seed.
const (
	lakeSets        = 31
	lakeValues      = 150
	lakeInstances   = 3
	lakeEMEntities  = 150
	lakeEMInstances = 4
)

// lakeWorkload matches each Auto-Join integration set's columns through
// fuzzyfd.MatchValuesContext (Mistral, θ = 0.7), and scores Fuzzy FD on the
// EM benchmarks.
type lakeWorkload struct {
	sets   []*datagen.IntegrationSet
	cols   [][][]string // per set, per column, the cell values
	values int          // distinct values over all sets
	ems    []*datagen.EMBenchmark
}

func newLake(seed int64) *lakeWorkload {
	w := &lakeWorkload{}
	for i := 0; i < lakeInstances; i++ {
		cfg := datagen.AutoJoinConfig{Seed: seed*lakeInstances + int64(i), Sets: lakeSets, ValuesPerColumn: lakeValues}
		w.sets = append(w.sets, datagen.AutoJoin(cfg)...)
	}
	for i := 0; i < lakeEMInstances; i++ {
		w.ems = append(w.ems, datagen.EMBench(datagen.EMConfig{Seed: seed*lakeEMInstances + int64(i), Entities: lakeEMEntities}))
	}
	for _, s := range w.sets {
		cols := make([][]string, len(s.Columns))
		for i, c := range s.Columns {
			for k, v := range c.Values {
				for n := 0; n < c.Counts[k]; n++ {
					cols[i] = append(cols[i], v)
				}
			}
		}
		w.cols = append(w.cols, cols)
		w.values += len(match.DistinctValues(s.Columns))
	}
	return w
}

// pass matches every set once, returning the clusters per set and the wall
// time of the calls.
func (w *lakeWorkload) pass(ctx context.Context) ([][]fuzzyfd.ValueCluster, time.Duration, error) {
	out := make([][]fuzzyfd.ValueCluster, len(w.cols))
	var total time.Duration
	for i, cols := range w.cols {
		t := time.Now()
		cl, err := fuzzyfd.MatchValuesContext(ctx, cols)
		total += time.Since(t)
		if err != nil {
			return nil, total, fmt.Errorf("lake-match: %s: %w", w.sets[i].Name, err)
		}
		out[i] = cl
	}
	return out, total, nil
}

// measure runs passes until the deadline has passed and at least minOps
// passes ran. It returns each pass's wall time in seconds and the clusters
// of the first pass; every later pass must reproduce them exactly.
func (w *lakeWorkload) measure(ctx context.Context, until time.Time, minOps int, c *counts) ([]float64, [][]fuzzyfd.ValueCluster) {
	var secs []float64
	var first [][]fuzzyfd.ValueCluster
	for len(secs) < minOps || time.Now().Before(until) {
		cl, d, err := w.pass(ctx)
		c.add(err)
		if err != nil {
			return secs, first
		}
		secs = append(secs, d.Seconds())
		if first == nil {
			first = cl
		} else if !reflect.DeepEqual(first, cl) {
			c.wrong(fmt.Errorf("lake-match: pass %d clusters differ from the first pass", len(secs)))
		}
	}
	return secs, first
}

// check validates every set's clusters against θ (outside the timed
// window) and returns the mean Table 1 F1 over the sets.
func (w *lakeWorkload) check(clusters [][]fuzzyfd.ValueCluster) (float64, error) {
	if len(clusters) != len(w.sets) {
		return 0, fmt.Errorf("lake-match check: %d cluster sets for %d integration sets", len(clusters), len(w.sets))
	}
	scores := make([]metrics.PRF, len(w.sets))
	for i, s := range w.sets {
		if err := match.Validate(clusters[i], fuzzyfd.DefaultThreshold); err != nil {
			return 0, fmt.Errorf("lake-match check: %s: %w", s.Name, err)
		}
		scores[i] = s.Evaluate(clusters[i])
	}
	return metrics.Mean(scores).F1, nil
}

// emF1 integrates each EM benchmark with Fuzzy FD and returns the mean §3.2
// entity-matching F1 over their outputs.
func (w *lakeWorkload) emF1(ctx context.Context) (float64, error) {
	var sum float64
	for i, b := range w.ems {
		res, err := fuzzyfd.IntegrateContext(ctx, b.Tables)
		if err != nil {
			return 0, fmt.Errorf("lake-match: EM benchmark %d: integrate: %w", i, err)
		}
		sum += em.Evaluate(res.FDResult(), b.Gold, em.Options{}).F1
	}
	return sum / float64(len(w.ems)), nil
}

// trace runs passes with a timing embedder inside the matcher, where it
// sees every scored pair. It mirrors fuzzyfd.MatchValuesContext: a fresh
// Mistral model per call, warmed with the set's distinct values, then one
// Matcher run.
func (w *lakeWorkload) trace(ctx context.Context, until time.Time, minOps int, rec *recorder, c *counts) (layers, [][]match.Cluster) {
	l := layers{}
	var first [][]match.Cluster
	for passes := 0; passes < minOps || time.Now().Before(until); passes++ {
		req := fmt.Sprintf("pass-%d", passes+1)
		pass := make([][]match.Cluster, len(w.sets))
		var kids []span
		var cold, calls, merged, mergedPairs, rewrites int
		var busy time.Duration
		start := time.Now()
		for i, s := range w.sets {
			t := time.Now()
			emb := &timedEmbedder{Embedder: embed.NewMistral()}
			m := &match.Matcher{Emb: emb, Opts: match.Options{Theta: fuzzyfd.DefaultThreshold}}
			values := match.DistinctValues(s.Columns)
			if err := embed.WarmContext(ctx, emb, values, matchWorkers()); err != nil {
				c.add(fmt.Errorf("lake-match: traced warm %s: %w", s.Name, err))
				return l, first
			}
			cl, err := m.MatchContext(ctx, s.Columns)
			end := time.Now()
			if err != nil {
				c.add(fmt.Errorf("lake-match: traced match %s: %w", s.Name, err))
				return l, first
			}
			kids = append(kids, span{Name: "match.set", Req: req, Start: t, End: end})
			l.sample("match.set_ms", ms(end.Sub(t)))
			pass[i] = cl
			cold += len(values)
			calls += int(emb.calls.Load())
			busy += time.Duration(emb.busy.Load())
			st := match.Summarize(cl)
			merged += st.Merged
			mergedPairs += st.Members - st.Clusters
			rewrites += st.Rewrites
		}
		c.add(nil)
		passEnd := time.Now()
		l.sample("lake.pass_s", passEnd.Sub(start).Seconds())
		root := rec.add(span{Name: "lake.pass", Req: req, Start: start, End: passEnd})
		for _, k := range kids {
			k.Parent = root
			rec.add(k)
		}
		// The warm-up embeds each distinct value once; every later call
		// is one side of a scored pair, served by the model's own cache.
		pairs := float64(calls-cold) / 2
		l.sample("match.values", float64(w.values))
		l.sample("match.pairs_scored", pairs)
		l.sample("match.merged", float64(merged))
		l.sample("match.rewrites", float64(rewrites))
		l.sample("match.merge_yield", ratio(float64(mergedPairs), pairs))
		l.sample("embed.cold_embeds", float64(cold))
		l.sample("embed.busy_ms", ms(busy))
		l.sample("embed.cache_hit_ratio", ratio(float64(calls-cold), float64(calls)))
		if first == nil {
			first = pass
		}
	}
	return l, first
}
