package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"fuzzyfd"
	"fuzzyfd/internal/core"
	"fuzzyfd/internal/datagen"
	"fuzzyfd/internal/embed"
	"fuzzyfd/internal/table"
)

// imdbTuples is the imdb-fuzzy input size: the six-table IMDB-shaped set at
// 10k input tuples, a point of the paper's Figure 3 sweep.
const imdbTuples = 10000

// imdbWorkload is a one-shot Fuzzy FD of the IMDB-shaped set with default
// options. Every call builds its own session, so every call starts with a
// cold embedding cache, as every one-shot caller does.
type imdbWorkload struct {
	tables []*table.Table
	tuples int
}

func newIMDB(seed int64) *imdbWorkload {
	tables := datagen.IMDB(datagen.IMDBConfig{Seed: seed, TotalTuples: imdbTuples})
	return &imdbWorkload{tables: tables, tuples: datagen.TotalRows(tables)}
}

// measure integrates repeatedly until the deadline has passed and at least
// minOps calls ran, returning each call's wall time in seconds and the last
// call's result.
func (w *imdbWorkload) measure(ctx context.Context, until time.Time, minOps int, c *counts) ([]float64, *fuzzyfd.Result) {
	var secs []float64
	var last *fuzzyfd.Result
	for len(secs) < minOps || time.Now().Before(until) {
		t := time.Now()
		res, err := fuzzyfd.IntegrateContext(ctx, w.tables)
		d := time.Since(t)
		if err != nil {
			c.add(fmt.Errorf("imdb-fuzzy: integrate: %w", err))
			return secs, nil
		}
		c.add(nil)
		secs = append(secs, d.Seconds())
		last = res
	}
	return secs, last
}

// check verifies, outside any timed window, that a measured Fuzzy FD result
// rewrote none of the consistent IMDB keys and that its rows and provenance
// are byte-identical to the equi-join pipeline's on the same input.
func (w *imdbWorkload) check(ctx context.Context, fz *fuzzyfd.Result) error {
	if fz == nil {
		return fmt.Errorf("imdb-fuzzy check: no integration completed")
	}
	if fz.MatchStats.Rewrites != 0 {
		return fmt.Errorf("imdb-fuzzy check: %d rewrites of consistent keys (false matches)", fz.MatchStats.Rewrites)
	}
	eq, err := fuzzyfd.IntegrateContext(ctx, w.tables, fuzzyfd.WithEquiJoin())
	if err != nil {
		return fmt.Errorf("imdb-fuzzy check: equi: %w", err)
	}
	if !bytes.Equal(renderResult(fz), renderResult(eq)) {
		return fmt.Errorf("imdb-fuzzy check: Fuzzy FD result differs from equi-join FD")
	}
	return nil
}

// renderResult is a canonical byte form of a result's rows with their
// provenance.
func renderResult(res *fuzzyfd.Result) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%q\n", res.Table.Columns)
	for row, prov := range res.Rows() {
		for _, c := range row {
			if c.IsNull {
				b.WriteString("\x00,")
			} else {
				fmt.Fprintf(&b, "%q,", c.Val)
			}
		}
		fmt.Fprintf(&b, "%v\n", prov)
	}
	return b.Bytes()
}

// traceIntegration runs one-shot integrations of tables until the deadline
// has passed and at least minOps ran, with the layer seams instrumented: the
// pipeline's Progress callback gives phase and component spans, a timing
// embedder behind the session's cache sees the cold embeds, the cache's
// counters give the hit ratio, and runtime.MemStats deltas give allocation.
// It uses the same code path as fuzzyfd.IntegrateContext: a throwaway
// core session with one Add and one integration.
func traceIntegration(ctx context.Context, tables []*table.Table, until time.Time, minOps int, rec *recorder, c *counts) layers {
	l := layers{}
	var calls int
	for calls < minOps || time.Now().Before(until) {
		calls++
		emb := &timedEmbedder{Embedder: embed.NewMistral()}
		var kids []span
		open := map[string]time.Time{}
		var lastComp time.Time
		cfg := core.Config{Embedder: emb, Progress: func(ev core.ProgressEvent) {
			now := time.Now()
			switch {
			case ev.Component > 0:
				kids = append(kids, span{Name: "fd.component", Start: lastComp, End: now})
				lastComp = now
			case !ev.Done:
				open[ev.Phase] = now
				lastComp = now
			default:
				kids = append(kids, span{Name: "core." + ev.Phase, Start: open[ev.Phase], End: now})
			}
		}}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		sess := core.NewSession(cfg)
		sess.Add(tables...)
		res, err := sess.IntegrateContext(ctx)
		end := time.Now()
		runtime.ReadMemStats(&m1)
		if err != nil {
			c.add(fmt.Errorf("traced integrate: %w", err))
			break
		}
		c.add(nil)
		root := rec.add(span{Name: "core.integrate", Req: fmt.Sprintf("integrate-%d", calls), Start: start, End: end})
		phases := map[string]time.Duration{}
		var phaseSpans []span
		for _, k := range kids {
			if k.Name == "fd.component" {
				continue
			}
			k.Parent, k.Req = root, fmt.Sprintf("integrate-%d", calls)
			k.ID = rec.add(k)
			phases[k.Name] = k.dur()
			phaseSpans = append(phaseSpans, k)
		}
		fdSpan := 0
		for _, k := range phaseSpans {
			if k.Name == "core.fd" {
				fdSpan = k.ID
			}
		}
		for _, k := range kids {
			if k.Name == "fd.component" {
				k.Parent, k.Req = fdSpan, fmt.Sprintf("integrate-%d", calls)
				rec.add(k)
			}
		}
		total := end.Sub(start)
		l.sample("core.total_s", total.Seconds())
		l.sample("core.align_ms", ms(phases["core.align"]))
		l.sample("core.match_ms", ms(phases["core.match"]))
		l.sample("core.fd_ms", ms(phases["core.fd"]))
		l.sample("core.unattributed_ms", ms(total-covered(span{Start: start, End: end}, phaseSpans)))
		l.sample("core.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))

		hits, misses := sess.EmbeddingCache().Hits(), sess.EmbeddingCache().Misses()
		l.sample("embed.cold_embeds", float64(emb.calls.Load()))
		l.sample("embed.busy_ms", float64(emb.busy.Load())/1e6)
		l.sample("embed.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)))

		mst := res.MatchStats
		// Each scored pair of distinct values looks both up in the session
		// cache after the warm-up embedded every value once, so the hits
		// count two per scored pair.
		pairs := float64(hits) / 2
		l.sample("match.set_ms", ratio(ms(phases["core.match"]), float64(len(res.ColumnClusters))))
		l.sample("match.values", float64(mst.Members))
		l.sample("match.pairs_scored", pairs)
		l.sample("match.merged", float64(mst.Merged))
		l.sample("match.rewrites", float64(mst.Rewrites))
		l.sample("match.merge_yield", ratio(float64(mst.Members-mst.Clusters), pairs))
		l.fdOneShot(res.FDStats)
	}
	return l
}
