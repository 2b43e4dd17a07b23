package experiments

// Sharded-cluster benchmark (BENCH_8.json): a three-backend serve
// cluster (consistent-hash router + WAL-shipped read replicas, see
// internal/cluster) driven end to end in one process over loopback
// HTTP. Three measurements:
//
//  1. Read throughput — the same query load against a single backend
//     directly vs through the router fanning reads across all three
//     ready replicas. Every backend holds a full replica here
//     (replicas=2 of 3 backends), so the router spreads load instead
//     of funneling it; the speedup is bounded by the shared
//     GOMAXPROCS of the in-process harness, not by the protocol.
//  2. Replication lag — per-commit catch-up latency: after each
//     measurement lands on the primary, how long until every follower
//     has applied the shipped frames and reports the primary's
//     generation.
//  3. Failover — the primary's listener is killed; reads through the
//     router must keep answering from the freshest replica (with the
//     staleness headers) and writes must fail without electing a
//     second writer.
//
// Acceptance floors (the run panics otherwise): replicas answer the
// reference workload bit-identically to the primary at equal
// generation, every commit is eventually applied by every follower,
// and reads keep serving after the primary is gone with answers
// bit-identical to the pre-failover ones.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// ClusterLagSample is one commit's replication catch-up.
type ClusterLagSample struct {
	Commit int `json:"commit"`
	// CatchupNs is the wall-clock from the commit returning on the
	// primary to the last follower reporting the new generation.
	CatchupNs int64 `json:"catchup_ns"`
	// StreamBytes is the primary's replication-stream size afterwards.
	StreamBytes int64 `json:"stream_bytes"`
}

// ClusterBenchReport is the full cluster benchmark output (BENCH_8.json).
type ClusterBenchReport struct {
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Domain     int    `json:"domain"`
	Backends   int    `json:"backends"`
	Replicas   int    `json:"replicas"`
	// Read throughput: Workers parallel clients, ReadsPerWorker queries
	// each, against one backend directly vs through the router.
	Workers        int     `json:"workers"`
	ReadsPerWorker int     `json:"reads_per_worker"`
	SingleQPS      float64 `json:"single_qps"`
	ClusterQPS     float64 `json:"cluster_qps"`
	ReadSpeedup    float64 `json:"read_speedup"`
	// Replication lag under write load.
	Commits       int   `json:"commits"`
	MeanCatchupNs int64 `json:"mean_catchup_ns"`
	MaxCatchupNs  int64 `json:"max_catchup_ns"`
	StreamBytes   int64 `json:"stream_bytes"`
	// Acceptance results.
	ReplicaBitIdentical bool               `json:"replica_bit_identical"`
	FailoverReadsServed bool               `json:"failover_reads_served"`
	FailoverWriteStatus int                `json:"failover_write_status"`
	Samples             []ClusterLagSample `json:"samples,omitempty"`
}

// clusterBenchQuery posts one range workload and returns the decoded
// answers (nil ranges: the fixed reference workload).
func clusterBenchQuery(base, name string, ranges [][2]int) ([]float64, error) {
	body, _ := json.Marshal(map[string]any{"ranges": ranges})
	resp, err := http.Post(base+"/v1/datasets/"+name+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("query: %d %s", resp.StatusCode, data)
	}
	var out struct {
		Answers []float64 `json:"answers"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return out.Answers, nil
}

// ClusterBench runs the loop. With full=false the quick configuration
// (seconds) runs; full scales the domain and the read load.
func ClusterBench(full bool) ClusterBenchReport {
	domain, workers, readsPerWorker, commits := 128, 4, 200, 24
	if full {
		domain, workers, readsPerWorker, commits = 512, 8, 500, 64
	}
	rep := ClusterBenchReport{
		GoVersion:      runtime.Version(),
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		Domain:         domain,
		Backends:       3,
		Replicas:       2,
		Workers:        workers,
		ReadsPerWorker: readsPerWorker,
		Commits:        commits,
	}

	names := []string{"a", "b", "c"}
	servers := map[string]*serve.Server{}
	listen := map[string]*httptest.Server{}
	topo := cluster.Topology{Replicas: 2}
	for _, n := range names {
		s := serve.New(serve.Config{})
		ts := httptest.NewServer(s.Handler())
		servers[n], listen[n] = s, ts
		topo.Backends = append(topo.Backends, cluster.Backend{Name: n, Addr: ts.URL})
	}
	defer func() {
		for _, ts := range listen {
			ts.Close()
		}
		for _, s := range servers {
			s.Close()
		}
	}()
	managers := map[string]*cluster.Manager{}
	for _, n := range names {
		m, err := cluster.NewManager(servers[n], topo, n, cluster.Options{})
		if err != nil {
			panic(err)
		}
		managers[n] = m
		defer m.Close()
	}
	router, err := cluster.NewRouter(topo, cluster.Options{})
	if err != nil {
		panic(err)
	}
	defer router.Close()
	front := httptest.NewServer(router.Handler())
	defer front.Close()
	sync1 := func() {
		router.ProbeOnce()
		for _, m := range managers {
			m.SyncOnce()
		}
	}
	sync1()

	const ds = "clusterbench"
	ring := cluster.NewRing(names, 0)
	primary := ring.Primary(ds)
	create, _ := json.Marshal(map[string]any{
		"name": ds, "kind": "piecewise", "n": domain, "scale": 1e6,
		"seed": 17, "eps_total": 1000, "solver": "normal",
	})
	resp, err := http.Post(front.URL+"/v1/datasets", "application/json", bytes.NewReader(create))
	if err != nil {
		panic(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		panic(fmt.Sprintf("cluster bench: create via router: %d", resp.StatusCode))
	}
	sync1()
	measure := func(strategy string, eps float64) {
		body, _ := json.Marshal(map[string]any{"strategy": strategy, "eps": eps})
		resp, err := http.Post(front.URL+"/v1/datasets/"+ds+"/measure", "application/json", bytes.NewReader(body))
		if err != nil {
			panic(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			panic(fmt.Sprintf("cluster bench: measure: %d", resp.StatusCode))
		}
	}
	measure("h2", 1)
	sync1()

	// Acceptance: every replica answers the reference workload
	// bit-identically to the primary at equal generation.
	ref := [][2]int{{0, domain - 1}, {3, domain / 3}, {domain / 2, domain/2 + 7}, {5, 5}}
	want, err := clusterBenchQuery(listen[primary].URL, ds, ref)
	if err != nil {
		panic(err)
	}
	rep.ReplicaBitIdentical = true
	for _, n := range names {
		if n == primary {
			continue
		}
		got, err := clusterBenchQuery(listen[n].URL, ds, ref)
		if err != nil {
			panic(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				rep.ReplicaBitIdentical = false
			}
		}
	}
	if !rep.ReplicaBitIdentical {
		panic("cluster bench: replica answers not bit-identical to the primary")
	}

	// Read throughput: each worker cycles through a small workload pool
	// (cache hits on every backend — the steady-state read path).
	pool := make([][][2]int, 8)
	for i := range pool {
		lo := (i * domain) / (len(pool) + 2)
		pool[i] = [][2]int{{lo, lo + domain/4}, {0, domain - 1}, {lo, lo}}
	}
	warm := func(base string) {
		for _, w := range pool {
			if _, err := clusterBenchQuery(base, ds, w); err != nil {
				panic(err)
			}
		}
	}
	for _, n := range names {
		warm(listen[n].URL)
	}
	warm(front.URL)
	load := func(base string) float64 {
		var errs atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < readsPerWorker; i++ {
					if _, err := clusterBenchQuery(base, ds, pool[(w+i)%len(pool)]); err != nil {
						errs.Add(1)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if errs.Load() > 0 {
			panic("cluster bench: read-load errors")
		}
		return float64(workers*readsPerWorker) / time.Since(start).Seconds()
	}
	rep.SingleQPS = load(listen[primary].URL)
	rep.ClusterQPS = load(front.URL)
	rep.ReadSpeedup = rep.ClusterQPS / rep.SingleQPS

	// Replication lag under write load: commit on the primary, then
	// clock how long the followers take to report the new generation
	// (each sync round is one discovery+tail pass).
	pd, _ := servers[primary].Dataset(ds)
	var totalCatchup, maxCatchup int64
	for c := 1; c <= commits; c++ {
		measure("identity", 0.25)
		wantGen := pd.Summary().Generation
		start := time.Now()
		for {
			caughtUp := true
			for _, n := range names {
				if n == primary {
					continue
				}
				managers[n].SyncOnce()
				if d, ok := servers[n].Dataset(ds); !ok || d.Summary().Generation < wantGen {
					caughtUp = false
				}
			}
			if caughtUp {
				break
			}
			if time.Since(start) > time.Minute {
				panic(fmt.Sprintf("cluster bench: commit %d never replicated", c))
			}
		}
		ns := time.Since(start).Nanoseconds()
		totalCatchup += ns
		if ns > maxCatchup {
			maxCatchup = ns
		}
		if c%(commits/8) == 0 {
			_, off, _ := pd.ReplState()
			rep.Samples = append(rep.Samples, ClusterLagSample{Commit: c, CatchupNs: ns, StreamBytes: off})
		}
	}
	rep.MeanCatchupNs = totalCatchup / int64(commits)
	rep.MaxCatchupNs = maxCatchup
	_, off, _ := pd.ReplState()
	rep.StreamBytes = off

	// Failover: pre-failover reference via the router, then the primary
	// dies. Reads must keep serving (bit-identically — no commits have
	// landed since) and writes must be refused.
	preFail, err := clusterBenchQuery(front.URL, ds, ref)
	if err != nil {
		panic(err)
	}
	listen[primary].Close()
	router.ProbeOnce()
	postFail, err := clusterBenchQuery(front.URL, ds, ref)
	if err != nil {
		panic(fmt.Sprintf("cluster bench: reads stopped serving after primary death: %v", err))
	}
	rep.FailoverReadsServed = true
	for i := range preFail {
		if math.Float64bits(postFail[i]) != math.Float64bits(preFail[i]) {
			panic("cluster bench: failover read changed answers")
		}
	}
	body, _ := json.Marshal(map[string]any{"strategy": "total", "eps": 1})
	resp, err = http.Post(front.URL+"/v1/datasets/"+ds+"/measure", "application/json", bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rep.FailoverWriteStatus = resp.StatusCode
	if resp.StatusCode != http.StatusServiceUnavailable {
		panic(fmt.Sprintf("cluster bench: write with primary down answered %d, want 503", resp.StatusCode))
	}
	return rep
}

// ClusterBenchString renders the report as a table.
func ClusterBenchString(rep ClusterBenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sharded serve cluster (%s, GOMAXPROCS=%d, NumCPU=%d, %d backends, %d replicas)\n",
		rep.GoVersion, rep.GoMaxProcs, rep.NumCPU, rep.Backends, rep.Replicas)
	fmt.Fprintf(&b, "%-8s %8s %12s %12s %9s %8s %14s %14s %9s %9s\n",
		"domain", "workers", "single q/s", "cluster q/s", "speedup", "commits", "mean catchup", "max catchup", "bitwise", "failover")
	fmt.Fprintf(&b, "%-8d %8d %12.0f %12.0f %8.2fx %8d %14s %14s %9v %9v\n",
		rep.Domain, rep.Workers, rep.SingleQPS, rep.ClusterQPS, rep.ReadSpeedup, rep.Commits,
		time.Duration(rep.MeanCatchupNs).Round(time.Microsecond),
		time.Duration(rep.MaxCatchupNs).Round(time.Microsecond),
		rep.ReplicaBitIdentical, rep.FailoverReadsServed)
	return b.String()
}
