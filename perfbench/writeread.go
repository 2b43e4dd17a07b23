package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/core/selection"
	"repro/internal/mat"
	"repro/internal/serve"
)

// write-read: writes beside reads. Two persistent backends and a
// router with Replicas: 2; dataset lifecycles run in turn, each a fixed
// cycle of commits through the router, every commit followed by an
// explicit follower sync, one fresh read and warm reads.
const (
	wrDomain  = 2048
	wrCommits = 16 // per dataset lifecycle
	wrEps     = 0.5
	wrBudget  = 100.0
	wrSetups  = 3
	// wrLifecyclesPerSec sizes the run: --seconds s runs
	// round(s × wrLifecyclesPerSec) lifecycles (at least 2), so a run's
	// work, live state and disk bytes do not depend on the box's speed.
	wrLifecyclesPerSec = 0.25
)

// wrStrategies is the commit cycle of each lifecycle.
var wrStrategies = []string{"identity", "h2", "hb", "total", "privelet", "identity", "hb", "h2"}

// wrRef is the reference workload both backends must answer alike.
var wrRef = [][2]int{{0, wrDomain - 1}, {3, wrDomain / 3}, {wrDomain / 2, wrDomain/2 + 7}, {5, 5}, {100, 1900}}

var wrBackends = []string{"a", "b"}

type wrEnv struct {
	dir      string
	fs       *countFS
	srv      map[string]*serve.Server
	ts       map[string]*httptest.Server
	mgr      map[string]*cluster.Manager
	router   *cluster.Router
	front    *httptest.Server
	names    []string          // dataset per lifecycle
	primary  map[string]string // dataset → primary backend
	seeds    map[string]uint64 // dataset → data seed
	spentEps map[string]float64
}

// other returns the backend that is not b.
func other(b string) string {
	if b == "a" {
		return "b"
	}
	return "a"
}

func (e *wrEnv) dataset(backend, name string) *serve.Dataset {
	d, _ := e.srv[backend].Dataset(name)
	return d
}

// shutdown stops the router, the managers and the backends' listeners,
// then closes the backends (which syncs and closes their logs).
func (e *wrEnv) shutdown() {
	if e.front != nil {
		e.front.Close()
	}
	if e.router != nil {
		e.router.Close()
	}
	for _, m := range e.mgr {
		m.Close()
	}
	for _, ts := range e.ts {
		ts.Close()
	}
	for _, s := range e.srv {
		s.Close()
	}
}

func (e *wrEnv) teardown() {
	e.shutdown()
	os.RemoveAll(e.dir)
}

// wrNames returns n dataset names whose ring primaries alternate
// between the two backends, so both backends serve as primaries.
func wrNames(n int) ([]string, map[string]string) {
	ring := cluster.NewRing(wrBackends, 0)
	var names []string
	primary := map[string]string{}
	for k := 0; len(names) < n; k++ {
		name := fmt.Sprintf("wr-%d", k)
		if p := ring.Primary(name); p == wrBackends[len(names)%2] {
			names = append(names, name)
			primary[name] = p
		}
	}
	return names, primary
}

// newBackend starts a persistent backend over dir with the default
// fsync policy and checkpoint cadence.
func newBackend(dir string, fs *countFS) (*serve.Server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return serve.New(serve.Config{StateDir: dir, FS: fs}), nil
}

// syncFollower drives replication for one dataset with Manager.SyncOnce
// until the follower reports the primary's generation.
func (e *wrEnv) syncFollower(name string, gen uint64) error {
	f := other(e.primary[name])
	deadline := time.Now().Add(time.Minute)
	for {
		e.mgr[f].SyncOnce()
		if d := e.dataset(f, name); d != nil && d.Summary().Generation >= gen {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower of %s never reached generation %d", name, gen)
		}
	}
}

func writeRead(r *run) error {
	lifecycles := max(2, int(math.Round(float64(r.seconds)*wrLifecyclesPerSec)))
	cl := newClient(r.nproc)
	dataRng := stream(r.seed, streamData)
	names, primary := wrNames(lifecycles)
	seeds := map[string]uint64{}
	for _, n := range names {
		seeds[n] = dataRng.Uint64()
	}
	fs := newCountFS(r.tr)
	build := func(i int) (*wrEnv, error) {
		e := &wrEnv{
			dir: filepath.Join(r.dir, fmt.Sprintf("setup%d", i)), fs: fs,
			srv: map[string]*serve.Server{}, ts: map[string]*httptest.Server{}, mgr: map[string]*cluster.Manager{},
			names: names, primary: primary, seeds: seeds, spentEps: map[string]float64{},
		}
		topo := cluster.Topology{Replicas: 2}
		for _, b := range wrBackends {
			srv, err := newBackend(filepath.Join(e.dir, b), fs)
			if err != nil {
				return e, err
			}
			e.srv[b] = srv
			e.ts[b] = httptest.NewServer(e.srv[b].Handler())
			topo.Backends = append(topo.Backends, cluster.Backend{Name: b, Addr: e.ts[b].URL})
		}
		for _, b := range wrBackends {
			m, err := cluster.NewManager(e.srv[b], topo, b, cluster.Options{})
			if err != nil {
				return e, err
			}
			e.mgr[b] = m
		}
		router, err := cluster.NewRouter(topo, cluster.Options{})
		if err != nil {
			return e, err
		}
		e.router = router
		e.front = httptest.NewServer(router.Handler())
		router.ProbeOnce()
		for _, name := range names {
			req := createReq{Name: name, Kind: "piecewise", N: wrDomain, Scale: 1e6, Seed: seeds[name], EpsTotal: wrBudget}
			if err := cl.create(e.front.URL, req); err != nil {
				return e, err
			}
			if _, err := cl.measure(e.front.URL, name, "total", wrEps); err != nil {
				return e, err
			}
			e.spentEps[name] = wrEps
			if _, err := cl.query(e.front.URL, name, wrRef); err != nil {
				return e, err
			}
			gen := e.dataset(primary[name], name).Summary().Generation
			if err := e.syncFollower(name, gen); err != nil {
				return e, err
			}
			if _, err := cl.query(e.ts[other(primary[name])].URL, name, wrRef); err != nil {
				return e, err
			}
		}
		router.ProbeOnce()
		return e, nil
	}
	env, err := repeatSetup(r, wrSetups, build, (*wrEnv).teardown)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer env.teardown()

	// Traced run: a harness-side kernel per dataset for the Laplace
	// layer, and the follower cursors for direct stream application.
	kerns := map[string]harnessKernel{}
	cursor := map[string]int64{}
	if r.tr != nil {
		for _, name := range names {
			kerns[name] = newHarnessKernel(wrDomain, seeds[name])
			_, cursor[name] = env.mgr[other(primary[name])].Cursor(name)
		}
	}
	strategies := map[string]mat.Matrix{
		"identity": selection.Identity(wrDomain), "h2": selection.H2(wrDomain), "hb": selection.HB(wrDomain),
		"total": selection.Total(wrDomain), "privelet": selection.Privelet(wrDomain),
	}

	readRng := stream(r.seed, streamReads)
	var (
		measureLat, freshLat, warmLat, lagLat []float64
		directLat                             []float64
		commitAllocs, laplaceMs               []float64
		tailUS, applyMs, syncMs               []float64
		refreshMs, refreshIters               []float64
		batchClients                          []float64
		replBytes                             int64
		allocs                                uint64
		capy                                  capacity
		cpu                                   time.Duration
		commits, refChecks, refBitwise        int
		byClass                               = map[string][]float64{} // timed requests per cost class
	)
	total := lifecycles * wrCommits
	burstAt := burstAfter(total)
	sums0 := map[string]serve.Summary{}
	for _, name := range names {
		sums0[name] = env.dataset(primary[name], name).Summary()
	}
	fs0 := fs.counts()
	lastRef := map[string][]float64{}
	step := 0
	for _, name := range names {
		p, f := primary[name], other(primary[name])
		pd := env.dataset(p, name)
		for c := 0; c < wrCommits; c++ {
			c0 := cpuTime()
			req := int64(step)
			root := r.tr.begin("commit-cycle", -1, req)
			strategy := wrStrategies[c%len(wrStrategies)]
			before := pd.Summary()
			_, off0, _ := pd.ReplState()

			// Commit, acknowledged once durable.
			var cerr error
			if r.tr == nil {
				t0 := time.Now()
				var resp measureResp
				resp, cerr = cl.measure(env.front.URL, name, strategy, wrEps)
				measureLat = append(measureLat, msSince(t0))
				if cerr == nil && resp.AuditIndex != before.AuditSize {
					cerr = fmt.Errorf("check: %s commit %d got audit index %d, want %d", name, c, resp.AuditIndex, before.AuditSize)
				}
			} else {
				id := r.tr.begin("kernel.laplace", root, req)
				t0 := time.Now()
				_, _, lerr := kerns[name].session().VectorLaplace(strategies[strategy], wrEps)
				laplaceMs = append(laplaceMs, msSince(t0))
				r.tr.end(id)
				if lerr != nil {
					return fmt.Errorf("harness kernel: %w", lerr)
				}
				id = r.tr.begin("serve.commit", root, req)
				fs.under(id, req)
				m0 := mallocs()
				t0 = time.Now()
				_, _, cerr = pd.MeasureAudited(strategy, wrEps)
				measureLat = append(measureLat, msSince(t0))
				commitAllocs = append(commitAllocs, float64(mallocs()-m0))
				fs.under(root, req)
				r.tr.end(id)
			}
			byClass["measure:"+strategy] = append(byClass["measure:"+strategy], measureLat[len(measureLat)-1])
			commits++
			env.spentEps[name] += wrEps
			if !r.ops.op(cerr) {
				step++
				continue
			}
			after := pd.Summary()

			// Replication: the follower catches up to the primary.
			t0 := time.Now()
			var serr error
			switch {
			case r.tr == nil:
				serr = env.syncFollower(name, after.Generation)
				lagLat = append(lagLat, msSince(t0))
			case p == "a":
				id := r.tr.begin("cluster.sync_once", root, req)
				fs.under(id, req)
				serr = env.syncFollower(name, after.Generation)
				syncMs = append(syncMs, msSince(t0))
				fs.under(root, req)
				r.tr.end(id)
			default:
				id := r.tr.begin("repl.tail", root, req)
				data, next, _, _, terr := pd.WALTail(cursor[name])
				tailUS = append(tailUS, msSince(t0)*1e3)
				r.tr.end(id)
				serr = terr
				if terr == nil {
					id = r.tr.begin("repl.apply", root, req)
					fs.under(id, req)
					t1 := time.Now()
					_, serr = env.dataset(f, name).ApplyWALStream(data)
					applyMs = append(applyMs, msSince(t1))
					fs.under(root, req)
					r.tr.end(id)
					cursor[name] = next
				}
			}
			_, off1, _ := pd.ReplState()
			replBytes += off1 - off0
			if serr != nil {
				r.ops.fail(fmt.Errorf("replication of %s: %w", name, serr))
			}
			fsum := env.dataset(f, name).Summary()
			if fsum.Generation != after.Generation || fsum.AuditRoot != after.AuditRoot {
				r.ops.fail(fmt.Errorf("check: %s follower at generation %d root %s, primary at %d root %s",
					name, fsum.Generation, fsum.AuditRoot, after.Generation, after.AuditRoot))
			}
			if after.AuditSize != before.AuditSize+1 {
				r.ops.fail(fmt.Errorf("check: %s commit added %d audit leaves", name, after.AuditSize-before.AuditSize))
			}
			if math.Abs(after.Consumed-env.spentEps[name]) > 1e-9 {
				r.ops.fail(fmt.Errorf("check: %s consumed %g, charged %g", name, after.Consumed, env.spentEps[name]))
			}

			// The fresh read pays for the panel refresh.
			if r.tr != nil {
				id := r.tr.begin("solver.refresh", root, req)
				t1 := time.Now()
				if err := pd.Refresh(); err != nil {
					r.ops.fail(fmt.Errorf("refresh %s: %w", name, err))
				}
				refreshMs = append(refreshMs, msSince(t1))
				r.tr.end(id)
				refreshIters = append(refreshIters, float64(pd.Summary().SolveIterations))
			}
			ranges := randomRanges(readRng, wrDomain, readRanges)
			id := r.tr.begin("http.fresh_read", root, req)
			t1 := time.Now()
			_, ferr := cl.query(env.front.URL, name, ranges)
			freshLat = append(freshLat, msSince(t1))
			byClass["fresh:"+strategy] = append(byClass["fresh:"+strategy], freshLat[len(freshLat)-1])
			r.tr.end(id)
			r.ops.op(ferr)

			// Warm reads through the router (the traced run sends every
			// other one straight to the primary, for the router hop).
			m0 := mallocs()
			for w := 0; w < warmReads; w++ {
				ranges := randomRanges(readRng, wrDomain, readRanges)
				base, name2, lat := env.front.URL, "http.read", &warmLat
				if r.tr != nil && w%2 == 1 {
					base, name2, lat = env.ts[p].URL, "http.read_direct", &directLat
				}
				id := r.tr.begin(name2, root, req)
				t2 := time.Now()
				res, werr := cl.query(base, name, ranges)
				*lat = append(*lat, msSince(t2))
				r.tr.end(id)
				if r.ops.op(werr) {
					batchClients = append(batchClients, float64(res.BatchClients))
				}
			}
			allocs += mallocs() - m0

			// Both backends answer the reference workload alike (see agree).
			pa, perr := cl.query(env.ts[p].URL, name, wrRef)
			fa, ferr2 := cl.query(env.ts[f].URL, name, wrRef)
			switch {
			case perr != nil || ferr2 != nil:
				r.ops.fail(fmt.Errorf("reference read of %s: %v / %v", name, perr, ferr2))
			case !agree(pa.Answers, fa.Answers):
				r.ops.fail(fmt.Errorf("check: %s follower answers %v differ from the primary's %v at generation %d",
					name, fa.Answers, pa.Answers, after.Generation))
			default:
				lastRef[name] = pa.Answers
				refChecks++
				if sameBits(pa.Answers, fa.Answers) {
					refBitwise++
				}
			}
			r.tr.end(root)

			cpu += cpuTime() - c0
			if burstAt[step] {
				capy.burst(r, step, func(rng *rand.Rand) error {
					_, err := cl.query(env.front.URL, name, randomRanges(rng, wrDomain, readRanges))
					return err
				})
			}
			step++
		}
	}
	fsd := fs.counts().minus(fs0)
	sums1 := map[string]serve.Summary{}
	for _, name := range names {
		sums1[name] = env.dataset(primary[name], name).Summary()
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
	r.rep.value("allocs_per_query", "count", ratio(float64(allocs), float64(len(warmLat)+len(directLat))), len(warmLat), true)
	r.rep.value("live_heap_mb", "MiB", liveHeapMB(), 1, true)
	r.rep.avg("measure_mean_ms", "ms", measureLat, false)
	r.rep.pct("measure_p90_ms", "ms", measureLat, 0.9, false)
	r.rep.avg("fresh_query_mean_ms", "ms", freshLat, false)
	r.rep.pct("fresh_query_p90_ms", "ms", freshLat, 0.9, false)
	r.rep.pct("replica_lag_p50_ms", "ms", lagLat, 0.5, false)
	r.rep.value("replica_bitwise_ratio", "ratio", ratio(float64(refBitwise), float64(refChecks)), refChecks, false)
	r.rep.value("disk_bytes_per_commit", "B", ratio(float64(fsd.bytes()), float64(commits)), commits, false)

	// Durability: every backend restarts from its state directory alone
	// and lands on the same generation, audit root and answers.
	recoverMs, err := wrRestart(r, env, lastRef)
	if err != nil {
		return err
	}
	if r.tr == nil {
		return nil
	}

	var hits, misses, audit float64
	for _, name := range names {
		hits += float64(sums1[name].Cache.Hits - sums0[name].Cache.Hits)
		misses += float64(sums1[name].Cache.Misses - sums0[name].Cache.Misses)
		audit += float64(sums1[name].AuditSize - sums0[name].AuditSize)
	}
	r.rep.value("serve.cache_hit_ratio", "ratio", ratio(hits, hits+misses), int(hits+misses), false)
	r.rep.value("serve.commits", "count", float64(commits), commits, false)
	r.rep.avg("serve.allocs_per_commit", "count", commitAllocs, false)
	r.rep.avg("kernel.laplace_ms", "ms", laplaceMs, false)
	r.rep.avg("serve.batch_clients_mean", "count", batchClients, false)
	r.rep.value("audit.leaves_per_commit", "count", ratio(audit, float64(commits)), commits, false)
	walMetrics(r, fsd, commits)
	r.rep.avg("wal.recover_ms", "ms", recoverMs, false)
	r.rep.avg("repl.tail_us", "us", tailUS, false)
	r.rep.avg("repl.apply_ms", "ms", applyMs, false)
	r.rep.value("repl.bytes_per_commit", "B", ratio(float64(replBytes), float64(commits)), commits, false)
	r.rep.avg("cluster.sync_once_ms", "ms", syncMs, false)
	p50 := func(xs []float64) float64 { v, _ := percentile(xs, 0.5); return v }
	r.rep.value("cluster.router_hop_us", "us", (p50(warmLat)-p50(directLat))*1e3, len(warmLat), false)
	var sum0, sum1 serve.Summary
	for _, name := range names {
		addSummary(&sum0, sums0[name])
		addSummary(&sum1, sums1[name])
	}
	solverDeltas(r, sum0, sum1, refreshIters)
	r.rep.avg("solver.refresh_ms", "ms", refreshMs, false)

	// Self times from the spans: commit time net of the filesystem
	// calls it made, and stream apply net of the follower's own log.
	st := selfTimes(r.tr.snapshot())
	if lt := st["serve.commit"]; lt.Count > 0 {
		r.rep.value("serve.commit_ms", "ms", float64(lt.Self)/1e6/float64(lt.Count), lt.Count, false)
	}
	if lt := st["repl.apply"]; lt.Count > 0 {
		r.rep.value("repl.apply_ms", "ms", float64(lt.Self)/1e6/float64(lt.Count), lt.Count, false)
	}
	return nil
}

// wrRestart shuts the cluster down, restarts each backend from its
// state directory and checks every dataset against its last state. It
// returns each backend's restart time in ms.
func wrRestart(r *run, env *wrEnv, lastRef map[string][]float64) ([]float64, error) {
	type state struct {
		gen  uint64
		root string
	}
	want := map[string]state{}
	for _, name := range env.names {
		s := env.dataset(env.primary[name], name).Summary()
		want[name] = state{s.Generation, s.AuditRoot}
	}
	addr := map[string]string{}
	for b, ts := range env.ts {
		addr[b] = ts.URL
	}
	env.shutdown()
	env.front, env.router, env.mgr, env.ts = nil, nil, nil, nil
	var times []float64
	for _, b := range wrBackends {
		t0 := time.Now()
		srv, err := newBackend(filepath.Join(env.dir, b), env.fs)
		if err != nil {
			return nil, err
		}
		env.srv[b] = srv
		for _, name := range env.names {
			var err error
			if env.primary[name] == b {
				_, err = srv.CreateDataset(name, "piecewise", wrDomain, 1e6, env.seeds[name], wrBudget)
			} else {
				_, err = srv.CreateFollower(name, wrDomain, wrBudget, env.seeds[name], serve.SolverCGLS, 0, addr[other(b)])
			}
			if err != nil {
				return nil, fmt.Errorf("restart %s on %s: %w", name, b, err)
			}
		}
		times = append(times, msSince(t0))
	}
	for _, b := range wrBackends {
		for _, name := range env.names {
			d := env.dataset(b, name)
			s := d.Summary()
			err := error(nil)
			if s.Generation != want[name].gen || s.AuditRoot != want[name].root {
				err = fmt.Errorf("check: %s on %s restarted at generation %d root %s, want %d %s",
					name, b, s.Generation, s.AuditRoot, want[name].gen, want[name].root)
			} else if res, qerr := d.Query(toRange1D(wrRef)); qerr != nil {
				err = qerr
			} else if !agree(res.Answers, lastRef[name]) {
				err = fmt.Errorf("check: %s on %s answers %v after restart, %v before", name, b, res.Answers, lastRef[name])
			}
			r.ops.op(err)
		}
	}
	return times, nil
}

// walMetrics records the filesystem counters per commit.
func walMetrics(r *run, d fsCounts, commits int) {
	c := float64(commits)
	r.rep.value("wal.bytes", "B", float64(d.bytes()), commits, false)
	r.rep.value("wal.append_bytes_per_commit", "B", ratio(float64(d.Append), c), commits, false)
	r.rep.value("wal.panel_bytes_per_commit", "B", ratio(float64(d.Panel), c), commits, false)
	r.rep.value("wal.checkpoint_bytes_per_commit", "B", ratio(float64(d.Create), c), commits, false)
	r.rep.value("wal.syncs_per_commit", "count", ratio(float64(d.Syncs), c), commits, false)
	r.rep.value("wal.sync_ms_per_commit", "ms", ratio(float64(d.SyncTime)/1e6, c), commits, false)
}
