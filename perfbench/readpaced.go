package main

import (
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/serve"
)

// read-paced: the read path alone. One in-memory backend serves one
// dataset measured in setup; the timed phase sends an open loop of
// Poisson-paced reads in twenty segments, with a closed-loop capacity
// burst after every other segment.
// No commit, refresh or WAL write happens while it is timed.
const (
	rpDomain   = 4096
	rpRate     = 300.0 // open-loop arrivals per second
	rpPool     = 16    // repeated workloads, all of which fit in the answer cache
	rpSetups   = 7
	rpName     = "rp"
	rpSegments = 2 * bursts // open-loop segments; a burst follows every other one
)

type rpEnv struct {
	srv *serve.Server
	ts  *httptest.Server
	d   *serve.Dataset
}

func (e rpEnv) close() {
	e.ts.Close()
	e.srv.Close()
}

// rpRead is one read of the read-paced mix.
type rpRead struct {
	ranges [][2]int
	pool   int // index into the repeated pool, -1 for a unique workload
}

// rpMix draws one read: 70% unique 8-range workloads, 10% unique
// 256-range workloads, 20% from the pool of repeated workloads.
func rpMix(rng *rand.Rand, pool [][][2]int) rpRead {
	switch u := rng.Float64(); {
	case u < 0.7:
		return rpRead{ranges: randomRanges(rng, rpDomain, readRanges), pool: -1}
	case u < 0.8:
		return rpRead{ranges: randomRanges(rng, rpDomain, 256), pool: -1}
	default:
		i := rng.IntN(len(pool))
		return rpRead{ranges: pool[i], pool: i}
	}
}

// class names the read's cost class for request_cost_ms.
func (rd rpRead) class() string {
	switch {
	case rd.pool >= 0:
		return "repeated"
	case len(rd.ranges) == 256:
		return "unique-256"
	}
	return "unique-8"
}

// poolAnswers holds the first answer computed for each pooled workload;
// every later answer to it must be bit-identical.
type poolAnswers struct {
	mu    sync.Mutex
	first map[int][]float64
}

func (p *poolAnswers) check(idx int, ans []float64) error {
	if idx < 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	want, ok := p.first[idx]
	if !ok {
		p.first[idx] = append([]float64(nil), ans...)
		return nil
	}
	if !sameBits(want, ans) {
		return fmt.Errorf("check: pooled workload %d answered differently from its first answer", idx)
	}
	return nil
}

func readPaced(r *run) error {
	cl := newClient(r.nproc)
	dataSeed := stream(r.seed, streamData).Uint64()
	build := func(int) (rpEnv, error) {
		srv := serve.New(serve.Config{})
		e := rpEnv{srv: srv, ts: httptest.NewServer(srv.Handler())}
		if err := cl.create(e.ts.URL, createReq{Name: rpName, Kind: "piecewise", N: rpDomain, Scale: 1e6, Seed: dataSeed, EpsTotal: 10}); err != nil {
			return e, err
		}
		for _, s := range []string{"hb", "identity"} {
			if _, err := cl.measure(e.ts.URL, rpName, s, 1); err != nil {
				return e, err
			}
		}
		if _, err := cl.query(e.ts.URL, rpName, [][2]int{{0, rpDomain - 1}}); err != nil {
			return e, err
		}
		e.d, _ = srv.Dataset(rpName)
		return e, nil
	}
	env, err := repeatSetup(r, rpSetups, build, rpEnv.close)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer env.close()

	// The whole input is drawn before timing starts.
	readRng := stream(r.seed, streamReads)
	pool := make([][][2]int, rpPool)
	for i := range pool {
		pool[i] = randomRanges(readRng, rpDomain, readRanges)
	}
	arrivals := stream(r.seed, streamArrivals)
	openLen := time.Duration(r.seconds)*time.Second - bursts*burstLen
	segLen := max(openLen/rpSegments, 100*time.Millisecond)
	due := make([][]time.Duration, rpSegments)
	reads := make([][]rpRead, rpSegments)
	for s := range due {
		due[s] = poissonSchedule(arrivals, rpRate, segLen)
		for range due[s] {
			reads[s] = append(reads[s], rpMix(readRng, pool))
		}
	}

	answers := &poolAnswers{first: map[int][]float64{}}
	sum0 := env.d.Summary()
	var (
		lat, late    []float64
		segLat       [][]float64              // untraced HTTP latencies per segment
		byClass      = map[string][]float64{} // untraced HTTP latencies per read class
		byKind       = map[string][]float64{} // traced run: latency per segment kind
		allocs       uint64
		cpu          time.Duration
		queries      int
		batchClients []float64
		mu           sync.Mutex
		capy         capacity
		reqID        int64
		segKinds     = []string{"http", "http-traced", "inproc"}
	)
	for s := 0; s < rpSegments; s++ {
		kind := "http"
		if r.tr != nil {
			kind = segKinds[s%len(segKinds)]
		}
		seg := reads[s]
		base := reqID
		send := func(i int) error {
			rd := seg[i]
			var res serve.QueryResult
			var err error
			switch kind {
			case "inproc":
				res, err = env.d.Query(toRange1D(rd.ranges))
				if err == nil {
					err = checkAnswers(res.Answers, len(rd.ranges))
				}
			case "http-traced":
				id := r.tr.begin("http.query", -1, base+int64(i))
				res, err = cl.query(env.ts.URL, rpName, rd.ranges)
				r.tr.end(id)
			default:
				res, err = cl.query(env.ts.URL, rpName, rd.ranges)
			}
			if err == nil {
				err = answers.check(rd.pool, res.Answers)
			}
			if err == nil && r.tr != nil && kind != "inproc" {
				mu.Lock()
				batchClients = append(batchClients, float64(res.BatchClients))
				mu.Unlock()
			}
			return err
		}
		m0, c0 := mallocs(), cpuTime()
		res := openLoop(time.Now(), due[s], r.nproc, send)
		allocs += mallocs() - m0
		cpu += cpuTime() - c0
		queries += len(seg)
		reqID += int64(len(seg))
		for i, e := range res.Errs {
			if r.ops.op(e) {
				byKind[kind] = append(byKind[kind], res.Latency[i])
			}
		}
		if kind == "http" {
			lat = append(lat, res.Latency...)
			segLat = append(segLat, res.Latency)
			for i, rd := range seg {
				c := rd.class()
				byClass[c] = append(byClass[c], res.Latency[i])
			}
		}
		late = append(late, res.Late...)

		if s%2 == 0 {
			continue
		}
		capy.burst(r, s, func(rng *rand.Rand) error {
			rd := rpMix(rng, pool)
			res, err := cl.query(env.ts.URL, rpName, rd.ranges)
			if err == nil {
				err = answers.check(rd.pool, res.Answers)
			}
			return err
		})
	}
	sum1 := env.d.Summary()
	cl.close()

	r.rep.groupStat("query_p50_ms", "ms", segLat, 0.5, true)
	r.rep.groupStat("query_p90_ms", "ms", segLat, 0.9, false)
	r.rep.pct("query_p99_ms", "ms", lat, 0.99, false)
	r.rep.classMedian("request_cost_ms", "ms", byClass, false)
	capy.report(r)
	r.rep.value("allocs_per_query", "count", ratio(float64(allocs), float64(queries)), queries, true)
	r.rep.value("cpu_ms_per_request", "ms", ratio(cpu.Seconds()*1e3, float64(queries)), queries, true)
	if r.tr != nil {
		rangeKernel(r, reads)
	}
	// The harness's own inputs (about 2 MB of ranges) are released
	// first: live heap is the program's state, not the input's.
	due, reads, pool = nil, nil, nil
	r.rep.value("live_heap_mb", "MiB", liveHeapMB(), 1, true)
	r.rep.pct("loadgen.late_p50_ms", "ms", late, 0.5, false)
	r.rep.pct("loadgen.late_p99_ms", "ms", late, 0.99, false)
	hits := float64(sum1.Cache.Hits - sum0.Cache.Hits)
	misses := float64(sum1.Cache.Misses - sum0.Cache.Misses)
	r.rep.value("serve.cache_hit_ratio", "ratio", ratio(hits, hits+misses), int(hits+misses), false)
	if sum1.Generation != sum0.Generation || sum1.PanelSolves != sum0.PanelSolves {
		r.ops.fail(fmt.Errorf("check: the read-only phase moved the dataset (generation %d→%d, solves %d→%d)",
			sum0.Generation, sum1.Generation, sum0.PanelSolves, sum1.PanelSolves))
	}
	if r.tr == nil {
		return nil
	}

	// Traced run: per-layer numbers from the same stream.
	p50 := func(xs []float64) float64 { v, _ := percentile(xs, 0.5); return v }
	r.rep.value("trace.overhead_p50_ms", "ms", p50(byKind["http-traced"])-p50(byKind["http"]),
		len(byKind["http-traced"]), false)
	r.rep.value("serve.query_inproc_p50_us", "us", p50(byKind["inproc"])*1e3, len(byKind["inproc"]), false)
	r.rep.avg("serve.batch_clients_mean", "count", batchClients, false)
	solverDeltas(r, sum0, sum1, nil)
	return nil
}

// rangeKernel records the mat range kernel's time per read size, timed
// by the harness on the stream's own workloads against an n×4 panel.
func rangeKernel(r *run, reads [][]rpRead) {
	panel := randomPanel(stream(r.seed, streamPanel), rpDomain)
	dst := make([]float64, 256*4)
	bySize := map[int][]float64{}
	for _, seg := range reads {
		for _, rd := range seg {
			k := len(rd.ranges)
			if len(bySize[k]) < 400 {
				id := r.tr.begin(fmt.Sprintf("mat.range_answer.%d", k), -1, 0)
				bySize[k] = append(bySize[k], rangeKernelUS(rpDomain, rd.ranges, panel, dst))
				r.tr.end(id)
			}
		}
	}
	r.rep.value("mat.range_answer_us.8", "us", median(bySize[8]), len(bySize[8]), false)
	r.rep.value("mat.range_answer_us.256", "us", median(bySize[256]), len(bySize[256]), false)
}
