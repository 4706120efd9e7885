package main

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"fuzzyfd"
	"fuzzyfd/internal/core"
	"fuzzyfd/internal/datagen"
	"fuzzyfd/internal/embed"
	"fuzzyfd/internal/match"
	"fuzzyfd/internal/wal"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending, so sorting matters
		}
		return s
	}
	for _, tc := range []struct {
		n      int
		p      float64
		refuse bool
	}{
		{1000, 0.99, false},
		{999, 0.99, true},
		{100, 0.90, false},
		{99, 0.90, true},
		{20, 0.50, false},
		{19, 0.50, true},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		// On the values 1..n the Harrell–Davis estimate is about p·n + 1/2.
		want := tc.p*float64(tc.n) + 0.5
		switch {
		case tc.refuse && err == nil:
			t.Errorf("p%g of %d samples = %v, want refusal", tc.p*100, tc.n, got)
		case !tc.refuse && err != nil:
			t.Errorf("p%g of %d samples: %v", tc.p*100, tc.n, err)
		case !tc.refuse && math.Abs(got-want) > 1e-3:
			t.Errorf("p%g of %d samples = %v, want %v", tc.p*100, tc.n, got, want)
		}
	}
	for _, tc := range []struct{ a, b, x, want float64 }{
		{1, 1, 0.3, 0.3},
		{2, 1, 0.3, 0.09},
		{40, 40, 0.5, 0.5},
		{1141.5, 11.5, 1, 1},
	} {
		if got := betaInc(tc.a, tc.b, tc.x); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("I_%g(%g, %g) = %v, want %v", tc.x, tc.a, tc.b, got, tc.want)
		}
	}
	if med := median([]float64{3, 1, 2, 10}); med != 2.5 {
		t.Errorf("median = %v, want 2.5", med)
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "root", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Name: "b", Start: at(20), End: at(50)},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: at(90), End: at(120)}, // sticks out of root
		{ID: 5, Parent: 2, Name: "a1", Start: at(15), End: at(20)}, // nested in a
		{ID: 6, Parent: 2, Name: "a2", Start: at(18), End: at(25)}, // overlaps a1
		{ID: 7, Parent: 1, Name: "d", Start: at(40), End: at(45)},  // inside b's interval
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 50 * time.Millisecond, // 100 - union{[10,50], [90,100]}
		2: 10 * time.Millisecond, // 20 - union{[15,25]}
		3: 30 * time.Millisecond,
		4: 30 * time.Millisecond,
		5: 5 * time.Millisecond,
		6: 7 * time.Millisecond,
		7: 5 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestAttachByTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	r := &recorder{}
	add1 := r.add(span{Name: "client.add", Req: "s1", Start: at(0), End: at(10)})
	add2 := r.add(span{Name: "client.add", Req: "s2", Start: at(0), End: at(10)})
	f1 := r.add(span{Name: "wal.fsync", Req: "s1", Start: at(2), End: at(4)})
	f2 := r.add(span{Name: "wal.fsync", Req: "s2", Start: at(5), End: at(6)})
	late := r.add(span{Name: "wal.fsync", Req: "s1", Start: at(11), End: at(12)})
	attachByTime(r, []string{"client.add"}, []string{"wal.fsync"})
	spans := r.all()
	for id, want := range map[int]int{f1: add1, f2: add2, late: 0} {
		if got := spans[id-1].Parent; got != want {
			t.Errorf("span %d parent = %d, want %d", id, got, want)
		}
	}
}

// The timing embedder must not change what the pipeline computes: behind a
// session cache (imdb-fuzzy) and inside a matcher (lake-match).
func TestTimedEmbedderByteIdentical(t *testing.T) {
	tables := datagen.IMDB(datagen.IMDBConfig{Seed: 7, TotalTuples: 1500})
	plain, err := fuzzyfd.Integrate(tables)
	if err != nil {
		t.Fatal(err)
	}
	emb := &timedEmbedder{Embedder: embed.NewMistral()}
	sess := core.NewSession(core.Config{Embedder: emb})
	sess.Add(tables...)
	traced, err := sess.Integrate()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderResult(plain), renderResult(traced)) {
		t.Fatal("integration through the timing embedder differs from the untraced one")
	}
	if emb.calls.Load() == 0 {
		t.Fatal("timing embedder saw no embeds")
	}

	lake := newLake(3)
	for i, s := range lake.sets[:4] {
		want, err := fuzzyfd.MatchValues(lake.cols[i])
		if err != nil {
			t.Fatal(err)
		}
		emb := &timedEmbedder{Embedder: embed.NewMistral()}
		embed.Warm(emb, match.DistinctValues(s.Columns), matchWorkers())
		got, err := (&match.Matcher{Emb: emb, Opts: match.Options{Theta: fuzzyfd.DefaultThreshold}}).Match(s.Columns)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(clusterValues(want), clusterValues(got)) {
			t.Fatalf("%s: clusters through the timing embedder differ", s.Name)
		}
	}
}

// clusterValues drops column labels, which differ between MatchValues's
// generated names and the benchmark sets' names.
func clusterValues(cs []match.Cluster) [][]string {
	out := make([][]string, len(cs))
	for i, c := range cs {
		out[i] = append(out[i], c.Rep)
		for _, m := range c.Members {
			out[i] = append(out[i], m.Value, string(rune('0'+m.Col)))
		}
	}
	return out
}

// The timing filesystem must not change what a durable session stores or
// returns, including after a reopen that recovers from its snapshots.
func TestTimedFSByteIdentical(t *testing.T) {
	var batches [][]*fuzzyfd.Table
	for k := 0; k < 3; k++ {
		batches = append(batches, datagen.IMDB(datagen.IMDBConfig{Seed: int64(20 + k), TotalTuples: 300}))
	}
	run := func(dir string, fs wal.FS) []byte {
		opts := []fuzzyfd.Option{fuzzyfd.WithEquiJoin(), fuzzyfd.WithDurability(fuzzyfd.Durability{SnapshotEvery: 4, FS: fs})}
		s, err := fuzzyfd.OpenSession(dir, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			if err := s.Append(b...); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Integrate(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = fuzzyfd.OpenSession(dir, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		res, err := s.Integrate()
		if err != nil {
			t.Fatal(err)
		}
		return renderResult(res)
	}
	plain := run(t.TempDir(), wal.OSFS{})
	// As under the daemon: the filesystem's root holds one directory per
	// session.
	root := t.TempDir()
	fs := newTimedFS(wal.OSFS{}, root, &recorder{})
	traced := run(filepath.Join(root, "s1"), fs)
	if !bytes.Equal(plain, traced) {
		t.Fatal("durable session through the timing filesystem differs from the untraced one")
	}
	c := fs.counters()
	if c.fsyncs == 0 || c.logBytes == 0 || c.snapBytes == 0 || c.snapshots == 0 {
		t.Fatalf("timing filesystem missed WAL work: %+v", c)
	}
}
