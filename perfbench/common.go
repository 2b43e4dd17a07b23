package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/serve"
)

// Shared workload shape.
const (
	// bursts is how many closed-loop capacity bursts each run interleaves
	// through its timed phase, and burstLen how long each lasts.
	bursts   = 10
	burstLen = 250 * time.Millisecond
	// warmReads follow each fresh read on write-read and plan-mix.
	warmReads = 4
	// readRanges is the size of a small read workload.
	readRanges = 8
)

// repeatSetup builds the workload's environment n times, keeps the
// last build and tears down the others, and records setup_s as the
// median build time: a single setup of a few hundred milliseconds does
// not repeat from run to run.
func repeatSetup[E any](r *run, n int, build func(i int) (E, error), teardown func(E)) (E, error) {
	var times []float64
	var env E
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(env)
		}
		start := time.Now()
		e, err := build(i)
		if err != nil {
			return env, err
		}
		times = append(times, time.Since(start).Seconds())
		env = e
	}
	r.rep.value("setup_s", "s", median(times), len(times), true)
	return env, nil
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// cpuTime returns the CPU time the process has used, user plus system.
// The kernel does not charge a task for the time its vCPU was stolen by
// the hypervisor, so unlike wall time this does not grow when the box
// is descheduled.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB returns the heap still reachable after two collections
// (the second empties the sync.Pool victim caches), in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// burstAfter marks which of total steps a capacity burst follows,
// spread evenly over the timed phase.
func burstAfter(total int) map[int]bool {
	at := map[int]bool{}
	for j := 0; j < bursts; j++ {
		at[(2*j+1)*total/(2*bursts)] = true
	}
	return at
}

// capacity accumulates closed-loop bursts.
type capacity struct {
	done, failed int
	rates        []float64 // completions per second of each burst
}

// burst runs one closed-loop burst of nproc clients; read answers one
// request of client c's own input stream.
func (c *capacity) burst(r *run, idx int, read func(rng *rand.Rand) error) {
	rngs := make([]*rand.Rand, r.nproc)
	for i := range rngs {
		rngs[i] = stream(r.seed, streamBursts+uint64(1000*idx+i))
	}
	done, failed, elapsed := closedLoop(burstLen, r.nproc, func(client, _ int) error {
		return read(rngs[client])
	})
	c.done += done
	c.failed += failed
	c.rates = append(c.rates, float64(done)/elapsed.Seconds())
}

// report records query_capacity_rps, the median burst rate, and counts
// the burst requests as operations.
func (c *capacity) report(r *run) {
	if len(c.rates) < bursts {
		r.rep.errs = append(r.rep.errs, fmt.Errorf("query_capacity_rps: %d bursts ran, want %d", len(c.rates), bursts))
		return
	}
	r.rep.value("query_capacity_rps", "1/s", median(c.rates), c.done, false)
	r.ops.attempted += c.done + c.failed
	r.ops.failed += c.failed
}

// rangeKernelUS times the mat range kernel the read path runs for one
// workload: building the range-query matrix and multiplying it into an
// n×4 panel, in microseconds.
func rangeKernelUS(n int, ranges [][2]int, panel, dst []float64) float64 {
	start := time.Now()
	q := mat.RangeQueries(n, toRange1D(ranges))
	mat.MatMat(q, dst[:len(ranges)*4], panel, 4)
	return float64(time.Since(start)) / 1e3
}

// randomPanel returns an n×4 row-major panel drawn from rng.
func randomPanel(rng *rand.Rand, n int) []float64 {
	p := make([]float64, n*4)
	for i := range p {
		p[i] = rng.Float64() * 100
	}
	return p
}

// harnessKernel is a kernel the harness owns over the same data as a
// served dataset, for timing the kernel and operator layers directly.
type harnessKernel struct {
	k    *kernel.Kernel
	root *kernel.Handle
}

// newHarnessKernel protects the piecewise dataset the server generates
// for (n, seed), with a budget the harness never exhausts.
func newHarnessKernel(n int, seed uint64) harnessKernel {
	x := dataset.Synthetic1D("piecewise", n, 1e6, seed)
	k, root := kernel.InitVectorSeeded(x, 1e9, seed)
	return harnessKernel{k: k, root: root}
}

// session returns the root handle bound to a fresh kernel session.
func (h harnessKernel) session() *kernel.Handle { return h.k.NewSession().Bind(h.root) }

// addSummary sums the solver, audit and cache counters of s into acc.
func addSummary(acc *serve.Summary, s serve.Summary) {
	acc.WarmRefreshes += s.WarmRefreshes
	acc.ColdRefreshes += s.ColdRefreshes
	acc.SavedIterations += s.SavedIterations
	acc.PanelSolves += s.PanelSolves
	acc.AuditSize += s.AuditSize
	acc.Cache.Hits += s.Cache.Hits
	acc.Cache.Misses += s.Cache.Misses
}

// solverDeltas records the solver counters moved between two summaries;
// iters holds the iteration count of each traced refresh.
func solverDeltas(r *run, s0, s1 serve.Summary, iters []float64) {
	warm := float64(s1.WarmRefreshes - s0.WarmRefreshes)
	cold := float64(s1.ColdRefreshes - s0.ColdRefreshes)
	n := warm + cold
	r.rep.value("solver.refreshes", "count", n, int(n), false)
	r.rep.value("solver.warm_refresh_ratio", "ratio", ratio(warm, n), int(n), false)
	r.rep.value("solver.saved_iters_per_refresh", "count", ratio(float64(s1.SavedIterations-s0.SavedIterations), n), int(n), false)
	r.rep.value("solver.iters_per_refresh", "count", mean(iters), len(iters), false)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
