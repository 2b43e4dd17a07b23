package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update regenerates the golden session transcript:
//
//	go test ./internal/serve -run TestGoldenSession -update
var update = flag.Bool("update", false, "rewrite golden files")

// goldenStep is one recorded request/response pair of the scripted
// session.
type goldenStep struct {
	Note   string          `json:"note"`
	Method string          `json:"method"`
	Path   string          `json:"path"`
	Body   json.RawMessage `json:"body,omitempty"`
	Status int             `json:"status"`
	// Response is the raw JSON response body (trailing newline trimmed):
	// the full client-visible answer stream is pinned, floats included.
	Response json.RawMessage `json:"response"`
}

// goldenClient drives the scripted session and records every exchange.
type goldenClient struct {
	t     *testing.T
	base  string
	steps []goldenStep
}

func (g *goldenClient) do(note, method, path string, body any) json.RawMessage {
	g.t.Helper()
	var reqBody []byte
	if body != nil {
		var err error
		if reqBody, err = json.Marshal(body); err != nil {
			g.t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, g.base+path, bytes.NewReader(reqBody))
	if err != nil {
		g.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		g.t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		g.t.Fatal(err)
	}
	raw := json.RawMessage(strings.TrimRight(buf.String(), "\n"))
	g.steps = append(g.steps, goldenStep{
		Note: note, Method: method, Path: path,
		Body: reqBody, Status: resp.StatusCode, Response: raw,
	})
	if resp.StatusCode >= 400 {
		g.t.Fatalf("%s: %s %s -> %d %s", note, method, path, resp.StatusCode, raw)
	}
	return raw
}

// TestGoldenSession is the deterministic end-to-end harness: a scripted
// multi-client session — create (seeded), plan-mode measure twice,
// query, repeat the query (cache hit), summary, then a full server
// restart restoring from the snapshot and the same query again — with
// the complete JSON response stream pinned against a golden file.
//
// Everything in the stream is seed-deterministic: kernel noise comes
// from InitVectorSeeded, bootstrap noise from the dataset seed, and the
// restarted server re-derives both from the snapshot + create request.
// The floats are architecture-pinned (CI runs amd64; regenerating on a
// different FMA regime requires -update), and the restart answers are
// additionally asserted bit-identical to the pre-restart ones — that
// invariant holds on any architecture.
func TestGoldenSession(t *testing.T) {
	stateDir := t.TempDir()
	cfg := Config{
		Replicates: 2,
		Solver:     SolverLSMR,
		StateDir:   stateDir,
	}
	create := createRequest{
		Name: "golden", Kind: "piecewise", N: 64, Scale: 20000, Seed: 5, EpsTotal: 10,
	}
	workload := [][2]int{{0, 63}, {8, 15}, {32, 47}}

	s1 := New(cfg)
	ts1 := httptest.NewServer(s1.Handler())
	g := &goldenClient{t: t, base: ts1.URL}

	g.do("create seeded dataset", "POST", "/v1/datasets", create)
	g.do("initial budget", "GET", "/v1/datasets/golden/budget", nil)
	g.do("plan-measure HB", "POST", "/v1/datasets/golden/plan",
		planRequest{Plan: "Hierarchical Opt (HB)", Eps: 2})
	g.do("plan-measure DAWA", "POST", "/v1/datasets/golden/plan",
		planRequest{Plan: "DAWA", Eps: 1})
	q1 := g.do("query workload", "POST", "/v1/datasets/golden/query", queryRequest{Ranges: workload})
	q2 := g.do("repeat workload (cache hit)", "POST", "/v1/datasets/golden/query", queryRequest{Ranges: workload})
	g.do("summary before restart", "GET", "/v1/datasets/golden", nil)
	ts1.Close()
	s1.Close()

	// Restart: a fresh server over the same state dir; creating the same
	// dataset restores the persisted log and its spent budget.
	s2 := New(cfg)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Close()
	g.base = ts2.URL
	g.do("re-create restores snapshot", "POST", "/v1/datasets", create)
	q3 := g.do("query after restart", "POST", "/v1/datasets/golden/query", queryRequest{Ranges: workload})
	g.do("budget after restart", "GET", "/v1/datasets/golden/budget", nil)

	// Architecture-independent invariants, asserted before the golden
	// comparison so a failure reads as what it is.
	var r1, r2, r3 QueryResult
	for _, p := range []struct {
		raw json.RawMessage
		out *QueryResult
	}{{q1, &r1}, {q2, &r2}, {q3, &r3}} {
		if err := json.Unmarshal(p.raw, p.out); err != nil {
			t.Fatal(err)
		}
	}
	if r1.Cached || !r2.Cached {
		t.Fatalf("cache states: first %v, repeat %v", r1.Cached, r2.Cached)
	}
	for i := range r1.Answers {
		if r2.Answers[i] != r1.Answers[i] {
			t.Fatalf("cached answer %d moved: %v -> %v", i, r1.Answers[i], r2.Answers[i])
		}
		if r3.Answers[i] != r1.Answers[i] {
			t.Fatalf("restart answer %d not bit-identical: %v -> %v", i, r1.Answers[i], r3.Answers[i])
		}
		if r3.Stderr[i] != r1.Stderr[i] {
			t.Fatalf("restart stderr %d not bit-identical: %v -> %v", i, r1.Stderr[i], r3.Stderr[i])
		}
	}

	goldenPath := filepath.Join("testdata", "golden_session.json")
	got, err := json.MarshalIndent(g.steps, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d steps)", goldenPath, len(g.steps))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		// Point at the first diverging step to keep failures readable.
		var wantSteps []goldenStep
		if err := json.Unmarshal(want, &wantSteps); err == nil {
			for i := range g.steps {
				if i >= len(wantSteps) {
					t.Fatalf("golden has %d steps, session produced %d", len(wantSteps), len(g.steps))
				}
				if g.steps[i].Status != wantSteps[i].Status ||
					!bytes.Equal(g.steps[i].Response, wantSteps[i].Response) {
					t.Fatalf("step %d (%s) diverges from golden:\n got: %d %s\nwant: %d %s\n(-update to regenerate)",
						i, g.steps[i].Note, g.steps[i].Status, g.steps[i].Response,
						wantSteps[i].Status, wantSteps[i].Response)
				}
			}
		}
		t.Fatalf("golden transcript mismatch (-update to regenerate)")
	}
}
