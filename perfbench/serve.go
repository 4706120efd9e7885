package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fuzzyfd"
	"fuzzyfd/internal/datagen"
	"fuzzyfd/internal/server"
	"fuzzyfd/internal/table"
	"fuzzyfd/internal/wal"
)

// Serve-durable shape: closed-loop clients, each repeating a session
// lifecycle — create, serveBatches "arrive"-shaped IMDB batches of about
// serveBatchTuples tuples posted one JSONL table per request, a streamed
// result after each batch, delete. Sessions cycle through servePlans
// distinct batch sequences.
const (
	serveClients     = 2
	serveBatches     = 4
	serveBatchTuples = 600
	servePlans       = 8
)

// jsonlTable is one add request's body.
type jsonlTable struct {
	name string
	body []byte
}

type serveWorkload struct {
	plans [][][]jsonlTable // plan → batch → table
}

func newServe(seed int64) (*serveWorkload, error) {
	w := &serveWorkload{plans: make([][][]jsonlTable, servePlans)}
	for p := range w.plans {
		for b := 0; b < serveBatches; b++ {
			tables := datagen.IMDB(datagen.IMDBConfig{
				Seed:        seed*1009 + int64(p*serveBatches+b),
				TotalTuples: serveBatchTuples,
			})
			batch := make([]jsonlTable, len(tables))
			for i, t := range tables {
				var buf bytes.Buffer
				if err := fuzzyfd.WriteJSONL(&buf, t); err != nil {
					return nil, fmt.Errorf("serve-durable: render %s: %w", t.Name, err)
				}
				batch[i] = jsonlTable{name: fmt.Sprintf("b%d_%s", b, t.Name), body: buf.Bytes()}
			}
			w.plans[p] = append(w.plans[p], batch)
		}
	}
	return w, nil
}

// daemon is an in-process fuzzyfdd on a loopback port, durable under dir
// with the default flush policy: fsync on every add, a snapshot every 16
// logged adds and one on close.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	base string
	dir  string
	done chan error
}

func startDaemon(dir string, fs wal.FS) (*daemon, error) {
	// Sessions left on disk by an interrupted run would be reopened.
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("serve-durable: data dir: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve-durable: data dir: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve-durable: listen: %w", err)
	}
	srv := server.New(server.Config{DataDir: dir, WALFS: fs})
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv}, base: "http://" + ln.Addr().String(), dir: dir, done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains and shuts the daemon down, waits for it, and removes its data
// directory.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Drain(ctx)
	if e := d.hs.Shutdown(ctx); e != nil && err == nil {
		err = e
	}
	d.srv.Close()
	if e := <-d.done; !errors.Is(e, http.ErrServerClosed) && err == nil {
		err = e
	}
	if e := os.RemoveAll(d.dir); e != nil && err == nil {
		err = e
	}
	return err
}

// sample is one completed request.
type sample struct {
	route      string
	start, end time.Time
}

// serveRun accumulates what the load calls of one run observed.
type serveRun struct {
	mu         sync.Mutex
	samples    []sample
	finals     map[int][][]byte // plan → final streamed results of its sessions
	adds       int
	ackedBytes int64
	dirty      int64 // dirty components reported by add responses
	reclosed   int64 // reclosed tuples reported by add responses
	sessions   int   // lifecycles started, for unique names and plan rotation
	// window is the time every client was busy, and counted the requests
	// completed inside it: the throughput basis, free of the tail where one
	// client finishes its last lifecycle alone.
	window  time.Duration
	counted int
}

func newServeRun() *serveRun { return &serveRun{finals: make(map[int][][]byte)} }

func (r *serveRun) latencies(route string) []float64 {
	var out []float64
	for _, s := range r.samples {
		if s.route == route {
			out = append(out, ms(s.end.Sub(s.start)))
		}
	}
	return out
}

// requestsPerSecond is completed requests per second of the windows in
// which every client was busy.
func (r *serveRun) requestsPerSecond() float64 { return ratio(float64(r.counted), r.window.Seconds()) }

// load runs the closed-loop clients against d until the deadline has
// passed and at least minSessions lifecycles started; a lifecycle started
// before the end runs to completion. It adds what it observed to run. With
// rec set, it records a span per request and follows each session's
// progress events.
func (w *serveWorkload) load(ctx context.Context, d *daemon, until time.Time, minSessions int, run *serveRun, rec *recorder, c *counts) {
	tr := &http.Transport{MaxIdleConnsPerHost: 4 * serveClients}
	defer tr.CloseIdleConnections()
	cl := &http.Client{Transport: tr}
	start := time.Now()
	run.mu.Lock()
	first := len(run.samples)
	run.mu.Unlock()
	var started atomic.Int64
	var firstDone sync.Once
	var allBusyUntil time.Time
	var wg sync.WaitGroup
	for ci := 0; ci < serveClients; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer firstDone.Do(func() { allBusyUntil = time.Now() })
			for ctx.Err() == nil {
				if started.Add(1) > int64(minSessions) && !time.Now().Before(until) {
					return
				}
				run.mu.Lock()
				n := run.sessions
				run.sessions++
				run.mu.Unlock()
				w.lifecycle(ctx, cl, d, n, run, rec, c)
			}
		}()
	}
	wg.Wait()
	run.mu.Lock()
	defer run.mu.Unlock()
	run.window += allBusyUntil.Sub(start)
	for _, s := range run.samples[first:] {
		if !s.end.After(allBusyUntil) {
			run.counted++
		}
	}
}

// lifecycle is one session: create, the plan's batches with a streamed
// result after each, delete.
func (w *serveWorkload) lifecycle(ctx context.Context, cl *http.Client, d *daemon, n int, run *serveRun, rec *recorder, c *counts) {
	name := fmt.Sprintf("s%d", n)
	p := n % len(w.plans)
	url := d.base + "/v1/sessions/" + name
	do := func(route, method, url string, body []byte, accept string, want int) ([]byte, bool) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			c.add(fmt.Errorf("serve-durable: %s %s: %w", method, url, err))
			return nil, false
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		t := time.Now()
		resp, err := cl.Do(req)
		var out []byte
		if err == nil {
			out, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		end := time.Now()
		switch {
		case err != nil:
			c.add(fmt.Errorf("serve-durable: %s %s: %w", method, url, err))
			return nil, false
		case resp.StatusCode != want:
			c.add(fmt.Errorf("serve-durable: %s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(out)))
			return nil, false
		}
		c.add(nil)
		run.mu.Lock()
		run.samples = append(run.samples, sample{route: route, start: t, end: end})
		run.mu.Unlock()
		if rec != nil {
			rec.add(span{Name: "client." + route, Req: name, Start: t, End: end})
		}
		return out, true
	}

	if _, ok := do("create", http.MethodPut, url, []byte(`{"equi":true}`), "", http.StatusCreated); !ok {
		return
	}
	stopEvents := func() {}
	if rec != nil {
		stopEvents = followEvents(ctx, cl, url+"/events", name, rec)
	}
	var final []byte
	ok := true
	for b, batch := range w.plans[p] {
		for _, t := range batch {
			out, added := do("add", http.MethodPost, url+"/tables?table="+t.name, t.body, "", http.StatusOK)
			if !added {
				ok = false
				break
			}
			var ack struct {
				Dirty    int64 `json:"dirty_components"`
				Reclosed int64 `json:"reclosed_tuples"`
			}
			if rec != nil {
				if err := json.Unmarshal(out, &ack); err != nil {
					c.wrong(fmt.Errorf("serve-durable: add response: %w", err))
				}
			}
			run.mu.Lock()
			run.adds++
			run.ackedBytes += int64(len(t.body))
			run.dirty += ack.Dirty
			run.reclosed += ack.Reclosed
			run.mu.Unlock()
		}
		if !ok {
			break
		}
		out, got := do("result", http.MethodGet, url+"/result", nil, "application/jsonl", http.StatusOK)
		if !got {
			ok = false
			break
		}
		if b == len(w.plans[p])-1 {
			final = out
		}
	}
	do("delete", http.MethodDelete, url, nil, "", http.StatusNoContent)
	stopEvents()
	if ok {
		run.mu.Lock()
		run.finals[p] = append(run.finals[p], final)
		run.mu.Unlock()
	}
}

// followEvents subscribes to a session's progress stream and records each
// pipeline phase, from its begin event to its done event as received, as a
// span of the session. The returned function ends the subscription and
// waits for the reader.
func followEvents(ctx context.Context, cl *http.Client, url, name string, rec *recorder) func() {
	ctx, cancel := context.WithCancel(ctx)
	ready := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		readyOnce := sync.OnceFunc(func() { close(ready) })
		defer readyOnce()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return
		}
		resp, err := cl.Do(req)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		open := map[string]time.Time{}
		for sc.Scan() {
			line := sc.Text()
			if line == "" {
				readyOnce() // the preamble comment ends with a blank line
				continue
			}
			data, isData := strings.CutPrefix(line, "data: ")
			if !isData {
				continue
			}
			now := time.Now()
			var ev struct {
				Phase     string `json:"phase"`
				Done      bool   `json:"done"`
				Component int    `json:"component"`
			}
			if json.Unmarshal([]byte(data), &ev) != nil || ev.Component > 0 {
				continue
			}
			if !ev.Done {
				open[ev.Phase] = now
			} else if t, ok := open[ev.Phase]; ok {
				rec.add(span{Name: "core." + ev.Phase, Req: name, Start: t, End: now})
			}
		}
	}()
	<-ready
	return func() {
		cancel()
		<-done
	}
}

// check compares, outside the timed window, every session's final
// streamed result with a library fuzzyfd.Integrate over exactly the tables
// the session acknowledged, decoded as the daemon decodes them. Rows are
// compared as sorted JSON lines.
func (w *serveWorkload) check(run *serveRun) error {
	sessions := 0
	for p, finals := range run.finals {
		want, err := w.expected(p)
		if err != nil {
			return err
		}
		for i, got := range finals {
			if sortedLines(got) != want {
				return fmt.Errorf("serve-durable check: plan %d session %d: streamed result differs from fuzzyfd.Integrate", p, i)
			}
			sessions++
		}
	}
	if sessions == 0 {
		return fmt.Errorf("serve-durable check: no session completed")
	}
	return nil
}

// decoded returns plan p's tables as the daemon decodes them, in order.
func (w *serveWorkload) decoded(p int) ([]*fuzzyfd.Table, error) {
	var tables []*fuzzyfd.Table
	for _, batch := range w.plans[p] {
		for _, t := range batch {
			tbl, err := fuzzyfd.ReadJSONL(bytes.NewReader(t.body), t.name)
			if err != nil {
				return nil, fmt.Errorf("serve-durable: decode %s: %w", t.name, err)
			}
			tables = append(tables, tbl)
		}
	}
	return tables, nil
}

func (w *serveWorkload) expected(p int) (string, error) {
	tables, err := w.decoded(p)
	if err != nil {
		return "", err
	}
	res, err := fuzzyfd.Integrate(tables, fuzzyfd.WithEquiJoin())
	if err != nil {
		return "", fmt.Errorf("serve-durable check: integrate plan %d: %w", p, err)
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, row := range res.Table.Rows {
		if err := enc.Encode(table.RowObject(res.Table.Columns, row)); err != nil {
			return "", err
		}
	}
	return sortedLines(b.Bytes()), nil
}

func sortedLines(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// incremental replays plan p's adds through a library session, one
// integration per add as the daemon runs them, and returns the seed-reused
// closure tuples summed over the adds — the incremental fd counter the
// daemon does not expose.
func (w *serveWorkload) incremental(p int) (seedReused int, adds int, err error) {
	tables, err := w.decoded(p)
	if err != nil {
		return 0, 0, err
	}
	s, err := fuzzyfd.NewSession(fuzzyfd.WithEquiJoin())
	if err != nil {
		return 0, 0, err
	}
	for _, t := range tables {
		s.Add(t)
		res, err := s.Integrate()
		if err != nil {
			return 0, 0, fmt.Errorf("serve-durable: replay plan %d: %w", p, err)
		}
		seedReused += res.FDStats.SeedReusedTuples
		adds++
	}
	return seedReused, adds, nil
}
