// Command perfbench is ektelo-go's benchmark: three workloads that
// drive the real serve HTTP handlers over loopback from one process,
// with end-to-end metrics from an untraced run and per-layer metrics
// from a separate traced run. See README.md.
//
// Run from the repository root:
//
//	bash perfbench/run.sh --workload write-read --seed 7 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload plan-mix --seed 1 --seconds 20 --repeat 10
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"read-paced": readPaced,
	"write-read": writeRead,
	"plan-mix":   planMix,
}

// endToEnd lists the gated metrics every workload reports from its
// untraced run, in output order.
var endToEnd = []string{
	"setup_s", "query_p50_ms", "cpu_ms_per_request", "allocs_per_query",
	"live_heap_mb",
}

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

// perLayer lists the traced run's metrics. Every workload reports all
// of them; a layer the workload leaves idle reports 0.
var perLayer = []layerMetric{
	{"mat.range_answer_us.8", "us"},
	{"mat.range_answer_us.256", "us"},
	{"solver.refreshes", "count"},
	{"solver.refresh_ms", "ms"},
	{"solver.iters_per_refresh", "count"},
	{"solver.warm_refresh_ratio", "ratio"},
	{"solver.saved_iters_per_refresh", "count"},
	{"serve.query_inproc_p50_us", "us"},
	{"serve.batch_clients_mean", "count"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.commits", "count"},
	{"serve.commit_ms", "ms"},
	{"serve.allocs_per_commit", "count"},
	{"kernel.laplace_ms", "ms"},
	{"core.plan_exec_ms.HB", "ms"},
	{"core.plan_exec_ms.AHP", "ms"},
	{"core.plan_exec_ms.DAWA", "ms"},
	{"core.plan_exec_ms.MWEM", "ms"},
	{"core.plan_exec_ms.Privelet", "ms"},
	{"core.plan_exec_ms.Greedy-H", "ms"},
	{"core.rows_per_cycle", "count"},
	{"wal.bytes", "B"},
	{"wal.append_bytes_per_commit", "B"},
	{"wal.panel_bytes_per_commit", "B"},
	{"wal.checkpoint_bytes_per_commit", "B"},
	{"wal.syncs_per_commit", "count"},
	{"wal.sync_ms_per_commit", "ms"},
	{"wal.recover_ms", "ms"},
	{"audit.leaves_per_commit", "count"},
	{"repl.tail_us", "us"},
	{"repl.apply_ms", "ms"},
	{"repl.bytes_per_commit", "B"},
	{"cluster.router_hop_us", "us"},
	{"cluster.sync_once_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_p50_ms", "ms"},
}

// run is one workload execution.
type run struct {
	workload string
	seed     uint64
	seconds  int
	nproc    int
	tr       *tracer // nil on the untraced run
	rep      *report
	ops      checks
	dir      string // scratch state inside the checkout
}

// checks counts operations and failed output checks.
type checks struct {
	attempted, failed int
	first             []string
}

// op counts one operation; err (a transport error or a failed output
// check) marks it failed. It reports whether the operation succeeded.
func (c *checks) op(err error) bool {
	c.attempted++
	if err != nil {
		c.fail(err)
		return false
	}
	return true
}

// fail marks a check that belongs to an already counted operation.
func (c *checks) fail(err error) {
	c.failed++
	if len(c.first) < 8 {
		c.first = append(c.first, err.Error())
	}
}

// record is the full account of one run, written beside the result.
type record struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Env       environment       `json:"env"`
	Noise     boxNoise          `json:"box_noise"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	WallS     float64           `json:"wall_s"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]resultItem `json:"metrics"`
}

type resultItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload: read-paced, write-read or plan-mix")
	seed := flag.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Int("seconds", 20, "measured length of the run, in seconds")
	trace := flag.Int("trace", 0, "1: the traced run, reporting per-layer metrics")
	repeat := flag.Int("repeat", 0, "steadiness report: run the workload this many times (seeds seed, seed+1, ...)")
	sets := flag.Int("sets", 1, "with -repeat: number of sets to run and compare")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (read-paced, write-read or plan-mix), --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	if *repeat > 0 {
		os.Exit(steadiness(*workload, *seed, *seconds, *trace, *repeat, *sets))
	}
	os.Exit(runOnce(*workload, *seed, *seconds, *trace == 1))
}

// runOnce executes one run and prints its record and result. It
// returns the process exit code.
func runOnce(workload string, seed uint64, seconds int, traced bool) int {
	wall := time.Now()
	r := &run{
		workload: workload,
		seed:     seed,
		seconds:  seconds,
		nproc:    runtime.NumCPU(),
		rep:      newReport(),
		dir:      filepath.Join(".bench_build", "perfbench", "state", fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid())),
	}
	if traced {
		r.tr = newTracer()
	}
	steal0 := stealTicks()
	noise := boxNoise{CalibrateMsPre: calibrate()}
	err := workloads[workload](r)
	noise.CalibrateMsPost = calibrate()
	if s1 := stealTicks(); steal0 >= 0 && s1 >= 0 {
		noise.StealTicks = s1 - steal0
	}
	os.RemoveAll(r.dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", workload, err)
		return 1
	}
	if len(r.rep.errs) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: refusing to report: %v\n", workload, errors.Join(r.rep.errs...))
		return 1
	}
	r.ops.failed = min(r.ops.failed, r.ops.attempted)
	okRatio := ratio(float64(r.ops.attempted-r.ops.failed), float64(r.ops.attempted))
	r.rep.value("ok_ratio", "ratio", okRatio, r.ops.attempted, false)

	rec := record{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: traced,
		Env: readEnvironment(), Noise: noise,
		Attempted: r.ops.attempted, Failed: r.ops.failed, Failures: r.ops.first,
		Metrics: r.rep.metrics, WallS: time.Since(wall).Seconds(),
	}
	res := result{Correct: r.ops.failed == 0 && r.ops.attempted > 0, Attempted: r.ops.attempted,
		Failed: r.ops.failed, Metrics: map[string]resultItem{}}
	names := endToEnd
	if traced {
		names = nil
		for _, m := range perLayer {
			names = append(names, m.name)
			if _, ok := r.rep.metrics[m.name]; !ok {
				r.rep.value(m.name, m.unit, 0, 0, false)
			}
		}
		path := filepath.Join(".bench_build", "perfbench", "traces", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", len(r.tr.snapshot()), path)
	}
	for _, name := range names {
		m, ok := r.rep.metrics[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", workload, name)
			return 1
		}
		res.Metrics[name] = resultItem{Value: m.Value, Unit: m.Unit}
	}
	printTable(r.rep)
	recPath := filepath.Join(".bench_build", "perfbench", "records",
		fmt.Sprintf("%s-seed%d-trace%d-%d.json", workload, seed, btoi(traced), os.Getpid()))
	if err := writeRecord(recPath, rec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing the run record: %v\n", err)
	} else {
		fmt.Printf("record: %s\n", recPath)
	}
	envLine, _ := json.Marshal(struct {
		Env   environment `json:"env"`
		Noise boxNoise    `json:"box_noise"`
		Seed  uint64      `json:"seed"`
		WallS float64     `json:"wall_s"`
	}{rec.Env, noise, seed, rec.WallS})
	fmt.Printf("env: %s\n", envLine)
	for _, f := range r.ops.first {
		fmt.Printf("FAILED: %s\n", f)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// writeRecord stores the run record as indented JSON at path.
func writeRecord(path string, rec record) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// printTable prints every metric with its unit and sample count.
func printTable(rep *report) {
	names := append([]string(nil), rep.order...)
	sort.Strings(names)
	fmt.Printf("%-34s %14s %-6s %8s %s\n", "metric", "value", "unit", "samples", "")
	for _, name := range names {
		m := rep.metrics[name]
		tag := ""
		if m.Gated {
			tag = "gated"
		}
		fmt.Printf("%-34s %14.4f %-6s %8d %s\n", name, m.Value, m.Unit, m.N, tag)
	}
}
