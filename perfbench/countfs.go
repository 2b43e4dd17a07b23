package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// countFS is the wal.FS the harness hands to both write-read backends.
// It forwards to the real filesystem and counts what the program hands
// to it: bytes appended to the write-ahead logs (*.wal, whether the
// handle came from OpenAppend or, for a fresh log, from Create), bytes
// of panel sidecar rewrites (*.panel.json), bytes of every other
// rewrite (checkpoints and compacted logs, written through temp files
// with Create), and the number and time of syncs. When traced, each write and sync is a
// span under the span the harness set as the current parent.
type countFS struct {
	inner wal.FS
	tr    *tracer

	appendBytes atomic.Int64
	panelBytes  atomic.Int64
	createBytes atomic.Int64
	syncs       atomic.Int64
	syncNanos   atomic.Int64

	mu     sync.Mutex
	parent int
	req    int64
}

func newCountFS(tr *tracer) *countFS { return &countFS{inner: wal.OSFS{}, tr: tr, parent: -1} }

// under makes later filesystem spans children of span id of request req.
func (c *countFS) under(id int, req int64) {
	c.mu.Lock()
	c.parent, c.req = id, req
	c.mu.Unlock()
}

func (c *countFS) current() (int, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.parent, c.req
}

// fsCounts is a snapshot of the counters.
type fsCounts struct {
	Append, Panel, Create, Syncs int64
	SyncTime                     time.Duration
}

func (c *countFS) counts() fsCounts {
	return fsCounts{
		Append:   c.appendBytes.Load(),
		Panel:    c.panelBytes.Load(),
		Create:   c.createBytes.Load(),
		Syncs:    c.syncs.Load(),
		SyncTime: time.Duration(c.syncNanos.Load()),
	}
}

func (a fsCounts) minus(b fsCounts) fsCounts {
	return fsCounts{a.Append - b.Append, a.Panel - b.Panel, a.Create - b.Create, a.Syncs - b.Syncs, a.SyncTime - b.SyncTime}
}

func (a fsCounts) bytes() int64 { return a.Append + a.Panel + a.Create }

// counter returns the byte counter for writes to the named file.
func (c *countFS) counter(name string) *atomic.Int64 {
	switch {
	case strings.HasSuffix(name, ".wal"):
		return &c.appendBytes
	case strings.Contains(name, ".panel.json"):
		return &c.panelBytes
	default:
		return &c.createBytes
	}
}

func (c *countFS) OpenAppend(name string) (wal.File, error) {
	f, err := c.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c, bytes: c.counter(name)}, nil
}

func (c *countFS) Create(name string) (wal.File, error) {
	f, err := c.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c, bytes: c.counter(name)}, nil
}

func (c *countFS) ReadFile(name string) ([]byte, error)   { return c.inner.ReadFile(name) }
func (c *countFS) Rename(oldname, newname string) error   { return c.inner.Rename(oldname, newname) }
func (c *countFS) Truncate(name string, size int64) error { return c.inner.Truncate(name, size) }
func (c *countFS) Remove(name string) error               { return c.inner.Remove(name) }
func (c *countFS) Stat(name string) (int64, error)        { return c.inner.Stat(name) }

type countFile struct {
	wal.File
	fs    *countFS
	bytes *atomic.Int64
}

func (f *countFile) Write(p []byte) (int, error) {
	parent, req := f.fs.current()
	id := f.fs.tr.begin("wal.write", parent, req)
	n, err := f.File.Write(p)
	f.fs.tr.end(id)
	f.bytes.Add(int64(n))
	return n, err
}

func (f *countFile) Sync() error {
	parent, req := f.fs.current()
	id := f.fs.tr.begin("wal.sync", parent, req)
	start := time.Now()
	err := f.File.Sync()
	f.fs.syncNanos.Add(int64(time.Since(start)))
	f.fs.tr.end(id)
	f.fs.syncs.Add(1)
	return err
}
