package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net/http/httptest"
	"time"

	"repro/internal/core/ops"
	"repro/internal/core/plans"
	"repro/internal/serve"
)

// plan-mix: the paper's operator layer. One in-memory backend; each
// dataset runs a fixed cycle of registry plans through /plan, each
// followed by a fresh read and warm reads.
const (
	pmDomain = 4096
	pmEps    = 0.5
	pmSetups = 3
	// pmCyclesPerSec sizes the run: --seconds s runs
	// round(s × pmCyclesPerSec) dataset cycles (at least 2).
	pmCyclesPerSec = 0.5
	pmFreshRanges  = 64
)

// pmPlans is the plan cycle every dataset runs: short labels (used in
// metric names) and the registry names /plan takes.
var pmPlans = []struct{ label, name string }{
	{"HB", "Hierarchical Opt (HB)"}, {"AHP", "AHP"}, {"DAWA", "DAWA"},
	{"MWEM", "MWEM"}, {"Privelet", "Privelet"}, {"Greedy-H", "Greedy-H"},
}

// pmParams returns the public parameters of a plan: MWEM runs 4 rounds.
func pmParams(plan string) *planParams {
	if plan == "MWEM" {
		return &planParams{Rounds: 4}
	}
	return nil
}

type pmEnv struct {
	srv *serve.Server
	ts  *httptest.Server
}

func (e pmEnv) close() {
	e.ts.Close()
	e.srv.Close()
}

func planMix(r *run) error {
	cycles := max(2, int(math.Round(float64(r.seconds)*pmCyclesPerSec)))
	cl := newClient(r.nproc)
	dataRng := stream(r.seed, streamData)
	names := make([]string, cycles)
	seeds := make([]uint64, cycles)
	for i := range names {
		names[i] = fmt.Sprintf("pm-%d", i)
		seeds[i] = dataRng.Uint64()
	}
	build := func(int) (pmEnv, error) {
		srv := serve.New(serve.Config{})
		e := pmEnv{srv: srv, ts: httptest.NewServer(srv.Handler())}
		for i, name := range names {
			if err := cl.create(e.ts.URL, createReq{Name: name, Kind: "piecewise", N: pmDomain, Scale: 1e6, Seed: seeds[i], EpsTotal: 100}); err != nil {
				return e, err
			}
			if _, err := cl.measure(e.ts.URL, name, "identity", pmEps); err != nil {
				return e, err
			}
			if _, err := cl.query(e.ts.URL, name, [][2]int{{0, pmDomain - 1}}); err != nil {
				return e, err
			}
		}
		return e, nil
	}
	env, err := repeatSetup(r, pmSetups, build, pmEnv.close)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer env.close()

	readRng := stream(r.seed, streamReads)
	var (
		planLat, freshLat, warmLat []float64
		refreshMs, refreshIters    []float64
		batchClients               []float64
		execMs                     = map[string][]float64{}
		rows                       float64
		allocs                     uint64
		capy                       capacity
		cpu                        time.Duration
		plansRun                   int
		byClass                    = map[string][]float64{} // timed requests per cost class
	)
	total := cycles * len(pmPlans)
	burstAt := burstAfter(total)
	var sum0, sum1 serve.Summary
	for _, name := range names {
		d, _ := env.srv.Dataset(name)
		addSummary(&sum0, d.Summary())
	}
	step := 0
	for i, name := range names {
		d, _ := env.srv.Dataset(name)
		// Traced run: the same plans executed by the harness through the
		// operator layer, on a fresh kernel over the same data.
		var hk harnessKernel
		if r.tr != nil {
			hk = newHarnessKernel(pmDomain, seeds[i])
		}
		for _, pl := range pmPlans {
			c0 := cpuTime()
			plan := pl.name
			req := int64(step)
			cycle := r.tr.begin("plan-cycle", -1, req)
			if r.tr != nil {
				id := r.tr.begin("core.plan_exec."+pl.label, cycle, req)
				t0 := time.Now()
				g, gerr := plans.GraphByName(plan, pmDomain, pmEps, plans.Params{Rounds: pmParams(plan).rounds(), Dim: -1})
				if gerr == nil {
					_, gerr = g.ExecuteEnv(ops.NewEnv(hk.session()))
				}
				execMs[pl.label] = append(execMs[pl.label], msSince(t0))
				r.tr.end(id)
				if gerr != nil {
					return fmt.Errorf("harness plan %s: %w", plan, gerr)
				}
			}

			id := r.tr.begin("http.plan", cycle, req)
			t0 := time.Now()
			res, perr := cl.plan(env.ts.URL, name, planReq{Plan: plan, Eps: pmEps, Params: pmParams(plan)})
			planLat = append(planLat, msSince(t0))
			byClass["plan:"+pl.label] = append(byClass["plan:"+pl.label], planLat[len(planLat)-1])
			r.tr.end(id)
			if perr == nil && res.EpsCharged != pmEps {
				perr = fmt.Errorf("check: plan %s on %s charged eps %v, declared %v", plan, name, res.EpsCharged, pmEps)
			}
			plansRun++
			if !r.ops.op(perr) {
				step++
				continue
			}
			rows += float64(res.Rows)

			if r.tr != nil {
				id := r.tr.begin("solver.refresh", cycle, req)
				t1 := time.Now()
				if err := d.Refresh(); err != nil {
					r.ops.fail(fmt.Errorf("refresh %s: %w", name, err))
				}
				refreshMs = append(refreshMs, msSince(t1))
				r.tr.end(id)
				refreshIters = append(refreshIters, float64(d.Summary().SolveIterations))
			}
			id = r.tr.begin("http.fresh_read", cycle, req)
			t1 := time.Now()
			_, ferr := cl.query(env.ts.URL, name, randomRanges(readRng, pmDomain, pmFreshRanges))
			freshLat = append(freshLat, msSince(t1))
			byClass["fresh:"+pl.label] = append(byClass["fresh:"+pl.label], freshLat[len(freshLat)-1])
			r.tr.end(id)
			r.ops.op(ferr)

			m0 := mallocs()
			for w := 0; w < warmReads; w++ {
				id := r.tr.begin("http.read", cycle, req)
				t2 := time.Now()
				qres, werr := cl.query(env.ts.URL, name, randomRanges(readRng, pmDomain, readRanges))
				warmLat = append(warmLat, msSince(t2))
				r.tr.end(id)
				if r.ops.op(werr) {
					batchClients = append(batchClients, float64(qres.BatchClients))
				}
			}
			allocs += mallocs() - m0
			r.tr.end(cycle)

			cpu += cpuTime() - c0
			if burstAt[step] {
				capy.burst(r, step, func(rng *rand.Rand) error {
					_, err := cl.query(env.ts.URL, name, randomRanges(rng, pmDomain, readRanges))
					return err
				})
			}
			step++
		}
	}
	for _, name := range names {
		d, _ := env.srv.Dataset(name)
		addSummary(&sum1, d.Summary())
	}
	cl.close()

	r.rep.pct("query_p50_ms", "ms", warmLat, 0.5, true)
	r.rep.pct("query_p90_ms", "ms", warmLat, 0.9, false)
	byClass["read"] = warmLat
	r.rep.classMedian("request_cost_ms", "ms", byClass, false)
	timed := 0
	for _, xs := range byClass {
		timed += len(xs)
	}
	r.rep.value("cpu_ms_per_request", "ms", ratio(cpu.Seconds()*1e3, float64(timed)), timed, true)
	capy.report(r)
	r.rep.value("allocs_per_query", "count", ratio(float64(allocs), float64(len(warmLat))), len(warmLat), true)
	r.rep.value("live_heap_mb", "MiB", liveHeapMB(), 1, true)
	r.rep.avg("plan_mean_ms", "ms", planLat, false)
	r.rep.avg("fresh_query_mean_ms", "ms", freshLat, false)
	r.rep.pct("fresh_query_p90_ms", "ms", freshLat, 0.9, false)
	if r.tr == nil {
		return nil
	}
	for _, pl := range pmPlans {
		r.rep.avg("core.plan_exec_ms."+pl.label, "ms", execMs[pl.label], false)
	}
	r.rep.value("core.rows_per_cycle", "count", rows/float64(cycles), cycles, false)
	r.rep.value("serve.commits", "count", float64(plansRun), plansRun, false)
	r.rep.value("audit.leaves_per_commit", "count", ratio(float64(sum1.AuditSize-sum0.AuditSize), float64(plansRun)), plansRun, false)
	hits, misses := float64(sum1.Cache.Hits-sum0.Cache.Hits), float64(sum1.Cache.Misses-sum0.Cache.Misses)
	r.rep.value("serve.cache_hit_ratio", "ratio", ratio(hits, hits+misses), int(hits+misses), false)
	r.rep.avg("serve.batch_clients_mean", "count", batchClients, false)
	solverDeltas(r, sum0, sum1, refreshIters)
	r.rep.avg("solver.refresh_ms", "ms", refreshMs, false)
	return nil
}

// rounds returns the MWEM round count of p (0: the plan default).
func (p *planParams) rounds() int {
	if p == nil {
		return 0
	}
	return p.Rounds
}
