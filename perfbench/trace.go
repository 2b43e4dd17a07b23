package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one
// request share Req; Parent is the index of the enclosing span (-1 for
// a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op, so call sites need no
// branching.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is one span name's totals: how often it ran, its summed
// duration, and its summed self time.
type layerTime struct {
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of it that its child spans cover (children
// may overlap one another and may outlive the parent; each instant is
// subtracted at most once).
func selfTimes(spans []span) map[string]layerTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		d := s.End - s.Start
		lt := out[s.Name]
		lt.Count++
		lt.Total += d
		lt.Self += d - covered(s, children[s.ID])
		out[s.Name] = lt
	}
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum time.Duration
	var curLo, curHi time.Duration = -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				sum += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		sum += curHi - curLo
	}
	return sum
}
