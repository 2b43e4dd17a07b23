package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"time"

	"repro/internal/mat"
	"repro/internal/serve"
)

// client speaks the serve HTTP API over loopback with at most conns
// connections per host.
type client struct {
	hc *http.Client
}

func newClient(conns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        4 * conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends in as JSON and decodes a 2xx reply into out.
func (c *client) post(url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

type createReq struct {
	Name     string  `json:"name"`
	Kind     string  `json:"kind"`
	N        int     `json:"n"`
	Scale    float64 `json:"scale"`
	Seed     uint64  `json:"seed"`
	EpsTotal float64 `json:"eps_total"`
}

type measureReq struct {
	Strategy string  `json:"strategy"`
	Eps      float64 `json:"eps"`
}

type measureResp struct {
	Rows       int     `json:"rows"`
	Consumed   float64 `json:"consumed"`
	AuditIndex uint64  `json:"audit_index"`
}

type planParams struct {
	Rounds int `json:"rounds,omitempty"`
}

type planReq struct {
	Plan   string      `json:"plan"`
	Eps    float64     `json:"eps"`
	Params *planParams `json:"params,omitempty"`
}

func (c *client) create(base string, req createReq) error {
	return c.post(base+"/v1/datasets", req, nil)
}

func (c *client) measure(base, name, strategy string, eps float64) (measureResp, error) {
	var out measureResp
	err := c.post(base+"/v1/datasets/"+name+"/measure", measureReq{Strategy: strategy, Eps: eps}, &out)
	return out, err
}

func (c *client) plan(base, name string, req planReq) (serve.PlanResult, error) {
	var out serve.PlanResult
	err := c.post(base+"/v1/datasets/"+name+"/plan", req, &out)
	return out, err
}

// query answers one range workload and checks the reply's shape: one
// finite answer per range.
func (c *client) query(base, name string, ranges [][2]int) (serve.QueryResult, error) {
	var out serve.QueryResult
	if err := c.post(base+"/v1/datasets/"+name+"/query", map[string]any{"ranges": ranges}, &out); err != nil {
		return out, err
	}
	return out, checkAnswers(out.Answers, len(ranges))
}

// checkAnswers verifies an answer vector has one finite value per range.
func checkAnswers(ans []float64, want int) error {
	if len(ans) != want {
		return fmt.Errorf("check: %d answers for %d ranges", len(ans), want)
	}
	for i, a := range ans {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return fmt.Errorf("check: answer %d is %v", i, a)
		}
	}
	return nil
}

// sameBits reports whether two answer vectors are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// solverTol is how closely two backends' answers must agree. Both run
// the same warm-started iterative solve over the same measurement log;
// the program promises bit-identical answers only for the "normal"
// solver and agreement to solver tolerance for CGLS, which write-read
// uses. The solver's tolerance is relative to the size of the whole
// estimate, so the gap is bounded relative to the largest answer of
// the workload (observed gaps stay below 1e-8 of it).
const solverTol = 1e-6

// agree reports whether two answer vectors match to solverTol relative
// to their largest answer.
func agree(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	scale := 1.0
	for i := range a {
		scale = max(scale, math.Abs(a[i]), math.Abs(b[i]))
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > solverTol*scale {
			return false
		}
	}
	return true
}

// randomRanges draws k ranges uniformly over a domain of size n.
func randomRanges(rng *rand.Rand, n, k int) [][2]int {
	out := make([][2]int, k)
	for i := range out {
		a, b := rng.IntN(n), rng.IntN(n)
		if a > b {
			a, b = b, a
		}
		out[i] = [2]int{a, b}
	}
	return out
}

// toRange1D converts wire ranges to the mat form.
func toRange1D(rs [][2]int) []mat.Range1D {
	out := make([]mat.Range1D, len(rs))
	for i, r := range rs {
		out[i] = mat.Range1D{Lo: r[0], Hi: r[1]}
	}
	return out
}

// stream returns the generator for one named input stream of a run:
// every input derives from the workload seed, one stream per purpose.
func stream(seed uint64, purpose uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^purpose))
}

// Input stream identifiers.
const (
	streamArrivals = iota + 1
	streamReads
	streamBursts
	streamData
	streamPanel
)
