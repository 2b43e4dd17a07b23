package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "request", Start: 0, End: 10 * ms},
		// Overlapping children cover [1,5] once; the third outlives its
		// parent and counts only up to the parent's end.
		{ID: 1, Parent: 0, Name: "commit", Start: 1 * ms, End: 3 * ms},
		{ID: 2, Parent: 0, Name: "commit", Start: 2 * ms, End: 5 * ms},
		{ID: 3, Parent: 0, Name: "sync", Start: 8 * ms, End: 12 * ms},
		// A grandchild is subtracted from its parent only.
		{ID: 4, Parent: 2, Name: "wal", Start: 3 * ms, End: 4 * ms},
		// Another request's span does not touch this one.
		{ID: 5, Parent: -1, Name: "request", Start: 20 * ms, End: 21 * ms},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"request": {Count: 2, Total: 11 * ms, Self: (10 - 4 - 2 + 1) * ms},
		"commit":  {Count: 2, Total: 5 * ms, Self: 4 * ms},
		"sync":    {Count: 1, Total: 4 * ms, Self: 4 * ms},
		"wal":     {Count: 1, Total: 1 * ms, Self: 1 * ms},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	if id != -1 || tr.snapshot() != nil {
		t.Fatal("a nil tracer recorded a span")
	}
}

func TestTracerKeepsClosedSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", -1, 7)
	child := tr.begin("child", root, 7)
	tr.end(child)
	open := tr.begin("open", root, 7)
	_ = open
	tr.end(root)
	got := tr.snapshot()
	if len(got) != 2 || got[0].Name != "root" || got[1].Parent != root || got[1].Req != 7 {
		t.Fatalf("snapshot = %+v", got)
	}
}
