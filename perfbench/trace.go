package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fuzzyfd/internal/embed"
	"fuzzyfd/internal/wal"
)

// span is one timed interval of the traced run. Parent is the ID of the
// span that caused it (0 for a root); Req groups the spans of one request
// or session.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Name   string    `json:"name"`
	Req    string    `json:"req,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory; they are written out when the run ends.
// It is safe for concurrent use.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// add records s, assigning and returning its ID.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// all returns a copy of the recorded spans, in ID order.
func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// setParent re-parents span id (used when the parent is known only after
// the child was recorded, e.g. spans attributed by time).
func (r *recorder) setParent(id, parent int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].Parent = parent
}

// writeJSONL writes the recorded spans, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval covered by its children. Children may overlap each other and may
// stick out of the parent; only their union inside the parent counts.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// attachByTime makes each unparented span with a name in childNames a child
// of the span named in parentNames that has the same Req and whose interval
// contains the child's start. Spans observed from outside the program (WAL
// operations, progress events) are attributed to requests this way.
func attachByTime(r *recorder, parentNames, childNames []string) {
	spans := r.all()
	isParent := make(map[string]bool)
	for _, n := range parentNames {
		isParent[n] = true
	}
	isChild := make(map[string]bool)
	for _, n := range childNames {
		isChild[n] = true
	}
	byReq := make(map[string][]span)
	for _, s := range spans {
		if isParent[s.Name] {
			byReq[s.Req] = append(byReq[s.Req], s)
		}
	}
	for _, s := range spans {
		if !isChild[s.Name] || s.Parent != 0 {
			continue
		}
		for _, p := range byReq[s.Req] {
			if !s.Start.Before(p.Start) && s.Start.Before(p.End) {
				r.setParent(s.ID, p.ID)
				break
			}
		}
	}
}

// timedEmbedder counts and times every Embed call of the embedder it
// wraps. Placed behind a session's embedding cache it sees only cold
// embeds; placed in a match.Matcher it sees every scored pair's lookups.
type timedEmbedder struct {
	embed.Embedder
	calls atomic.Int64
	busy  atomic.Int64 // nanoseconds inside Embed
}

func (e *timedEmbedder) Embed(v string) embed.Vector {
	t := time.Now()
	vec := e.Embedder.Embed(v)
	e.busy.Add(int64(time.Since(t)))
	e.calls.Add(1)
	return vec
}

// walCounters are the WAL layer's totals, as seen by timedFS.
type walCounters struct {
	fsyncs, snapshots   int64
	fsyncNs, snapNs     int64
	logBytes, snapBytes int64
}

// timedFS wraps a wal.FS, recording each fsync and each snapshot as a span
// keyed by the session whose directory it touched, and counting bytes
// written to logs and to snapshots. It classifies operations by path:
// wal-*.log is the log; snap-*/ and CURRENT belong to snapshots.
type timedFS struct {
	inner wal.FS
	root  string // the daemon's data directory
	rec   *recorder

	mu        sync.Mutex
	c         walCounters
	snapStart map[string]time.Time // session → start of its snapshot in progress
}

func newTimedFS(inner wal.FS, root string, rec *recorder) *timedFS {
	return &timedFS{inner: inner, root: root, rec: rec, snapStart: make(map[string]time.Time)}
}

func (f *timedFS) counters() walCounters {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.c
}

// session names the session directory a path lies in.
func (f *timedFS) session(path string) string {
	rel, err := filepath.Rel(f.root, path)
	if err != nil {
		return ""
	}
	first, _, _ := strings.Cut(filepath.ToSlash(rel), "/")
	return first
}

func isLogPath(path string) bool { return strings.HasPrefix(filepath.Base(path), "wal-") }

func isSnapshotPath(path string) bool {
	base := filepath.Base(path)
	return strings.HasPrefix(base, "CURRENT") || strings.HasPrefix(base, "snap-") ||
		strings.Contains(filepath.ToSlash(path), "/snap-")
}

func (f *timedFS) sync(path string, fn func() error) error {
	t := time.Now()
	err := fn()
	end := time.Now()
	f.rec.add(span{Name: "wal.fsync", Req: f.session(path), Start: t, End: end})
	f.mu.Lock()
	f.c.fsyncs++
	f.c.fsyncNs += int64(end.Sub(t))
	f.mu.Unlock()
	return err
}

func (f *timedFS) wrote(path string, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case isLogPath(path):
		f.c.logBytes += int64(n)
	case isSnapshotPath(path):
		f.c.snapBytes += int64(n)
	}
}

func (f *timedFS) MkdirAll(dir string) error {
	if strings.HasPrefix(filepath.Base(dir), "snap-") && strings.HasSuffix(dir, ".tmp") {
		f.mu.Lock()
		f.snapStart[f.session(dir)] = time.Now()
		f.mu.Unlock()
	}
	return f.inner.MkdirAll(dir)
}

func (f *timedFS) OpenAppend(name string) (wal.File, error) {
	w, err := f.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: w, fs: f, path: name}, nil
}

func (f *timedFS) Create(name string) (wal.File, error) {
	w, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: w, fs: f, path: name}, nil
}

func (f *timedFS) Open(name string) (io.ReadCloser, error) { return f.inner.Open(name) }
func (f *timedFS) ReadDir(dir string) ([]string, error)    { return f.inner.ReadDir(dir) }
func (f *timedFS) Stat(name string) (int64, error)         { return f.inner.Stat(name) }
func (f *timedFS) Truncate(name string, size int64) error  { return f.inner.Truncate(name, size) }
func (f *timedFS) Remove(name string) error                { return f.inner.Remove(name) }

// Rename ends a snapshot when it flips CURRENT, the snapshot's commit point.
func (f *timedFS) Rename(oldname, newname string) error {
	err := f.inner.Rename(oldname, newname)
	if err == nil && filepath.Base(newname) == "CURRENT" {
		end := time.Now()
		sess := f.session(newname)
		f.mu.Lock()
		start, ok := f.snapStart[sess]
		delete(f.snapStart, sess)
		if ok {
			f.c.snapshots++
			f.c.snapNs += int64(end.Sub(start))
		}
		f.mu.Unlock()
		if ok {
			f.rec.add(span{Name: "wal.snapshot", Req: sess, Start: start, End: end})
		}
	}
	return err
}

func (f *timedFS) SyncDir(dir string) error {
	return f.sync(dir, func() error { return f.inner.SyncDir(dir) })
}

// timedFile counts the bytes written through it and times its fsyncs.
type timedFile struct {
	wal.File
	fs   *timedFS
	path string
}

func (t *timedFile) Write(p []byte) (int, error) {
	n, err := t.File.Write(p)
	t.fs.wrote(t.path, n)
	return n, err
}

func (t *timedFile) Sync() error { return t.fs.sync(t.path, t.File.Sync) }

var _ wal.FS = (*timedFS)(nil)
