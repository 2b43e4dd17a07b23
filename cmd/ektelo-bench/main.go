// Command ektelo-bench regenerates the tables and figures of the EKTELO
// paper's evaluation (§10) on the synthetic substitute datasets.
//
// Usage:
//
//	ektelo-bench -exp table4|table5|table6|fig3|fig4a|fig4b|fig5|matvec|gram|serve|sweep|incremental|wal|cluster|all [-full] [-json FILE] [-par N,M]
//
// Without -full the quick configurations run (small domains, seconds);
// with -full the paper-scale configurations run (up to the 1.4M-cell
// Census domain; minutes). The matvec experiment benchmarks the shared
// parallel mat-vec engine, the gram experiment benchmarks the blocked
// Gram kernels against the column-at-a-time baseline, the serve
// experiment load-tests the ektelo-serve query front end at 1 vs N
// parallel clients (-par doubles as the client-count list), the sweep
// experiment prices one strategy across a multi-epsilon grid in a
// single LSMRMulti/NNLSMulti panel solve vs per-column scalar solves,
// and the incremental experiment measures an MWEM/DAWA-style
// append-query loop on the warm (incremental) vs forced-cold refresh
// path, and the wal experiment counts the durable bytes per measurement
// commit of the write-ahead log vs the checkpoint bytes of a dataset
// that rewrites its full snapshot every commit (with a restart
// bit-identity check), and the cluster
// experiment drives a three-backend sharded serve cluster (router +
// WAL-shipped read replicas) through read fan-out, replication-lag and
// failover measurements; with -json each records its report
// (BENCH_1..8.json) so the perf trajectory is tracked in-repo.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
)

var (
	jsonOut  = flag.String("json", "", "write the matvec/gram benchmark report to this file as JSON")
	parList  = flag.String("par", "4", "comma-separated parallelism levels for the matvec and gram experiments (1 is always included)")
	planMode = flag.Bool("plan", false, "serve experiment only: drive plan-mode measurement + cached-vs-uncached query load (BENCH_5.json)")
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: table4, table5, table6, fig3, fig4a, fig4b, fig5, matvec, all")
	full := flag.Bool("full", false, "run the paper-scale configuration instead of the quick one")
	flag.Parse()

	runners := map[string]func(bool){
		"table4":      runTable4,
		"table5":      runTable5,
		"table6":      runTable6,
		"fig3":        runFig3,
		"fig4a":       runFig4a,
		"fig4b":       runFig4b,
		"fig5":        runFig5,
		"matvec":      runMatVec,
		"gram":        runGram,
		"serve":       runServe,
		"sweep":       runSweep,
		"incremental": runIncremental,
		"wal":         runWAL,
		"cluster":     runCluster,
	}
	order := []string{"table4", "table5", "fig3", "fig4a", "fig4b", "fig5", "table6", "matvec", "gram", "serve", "sweep", "incremental", "wal", "cluster"}

	if *exp == "all" {
		// The benchmark experiments would write the same -json file in
		// turn, the later clobbering the earlier; require a specific one.
		if *jsonOut != "" {
			fmt.Fprintln(os.Stderr, "-json requires a single benchmark experiment (matvec, gram, serve, sweep, incremental or wal), not -exp all")
			os.Exit(2)
		}
		for _, name := range order {
			runners[name](*full)
		}
		return
	}
	run, ok := runners[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	run(*full)
}

func banner(title string) func() {
	fmt.Printf("== %s ==\n", title)
	start := time.Now()
	return func() { fmt.Printf("(%s elapsed)\n\n", time.Since(start).Round(time.Millisecond)) }
}

func runTable4(full bool) {
	done := banner("Table 4: MWEM variants (error-improvement factors vs standard MWEM)")
	cfg := experiments.QuickTable4()
	if full {
		cfg = experiments.FullTable4()
	}
	fmt.Print(experiments.Table4String(experiments.Table4(cfg)))
	done()
}

func runTable5(full bool) {
	done := banner("Table 5: Census case study (scaled per-query L2 error)")
	cfg := experiments.QuickTable5()
	if full {
		cfg = experiments.FullTable5()
	}
	fmt.Print(experiments.Table5String(experiments.Table5(cfg)))
	done()
}

func runTable6(full bool) {
	done := banner("Table 6: workload-based domain reduction")
	cfg := experiments.QuickTable6()
	if full {
		cfg = experiments.FullTable6()
	}
	fmt.Print(experiments.Table6String(experiments.Table6(cfg)))
	done()
}

func runFig3(full bool) {
	done := banner("Figure 3: Naive Bayes classifier AUC vs privacy budget")
	cfg := experiments.QuickFig3()
	if full {
		cfg = experiments.FullFig3()
	}
	fmt.Print(experiments.Fig3String(experiments.Fig3(cfg)))
	done()
}

func runFig4a(full bool) {
	done := banner("Figure 4a: 1-D/2-D plan runtime by matrix representation")
	cfg := experiments.QuickFig4a()
	if full {
		cfg = experiments.FullFig4a()
	}
	fmt.Print(experiments.Fig4String(experiments.Fig4a(cfg)))
	done()
}

func runFig4b(full bool) {
	done := banner("Figure 4b: multi-dimensional plan runtime")
	cfg := experiments.QuickFig4b()
	if full {
		cfg = experiments.FullFig4b()
	}
	fmt.Print(experiments.Fig4String(experiments.Fig4b(cfg)))
	done()
}

func runFig5(full bool) {
	done := banner("Figure 5: inference scalability")
	cfg := experiments.QuickFig5()
	if full {
		cfg = experiments.FullFig5()
	}
	fmt.Print(experiments.Fig5String(experiments.Fig5(cfg)))
	done()
}

// parLevels parses the -par flag.
func parLevels() []int {
	var levels []int
	for _, f := range strings.Split(*parList, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "bad -par entry %q\n", f)
			os.Exit(2)
		}
		levels = append(levels, n)
	}
	return levels
}

// writeJSONReport writes a benchmark report to -json when set.
func writeJSONReport(rep any) {
	if *jsonOut == "" {
		return
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "marshal report: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonOut, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *jsonOut)
}

func runMatVec(bool) {
	done := banner("Mat-vec engine: serial vs parallel on 2^20-cell matrices")
	rep := experiments.MatVecBench(parLevels())
	fmt.Print(experiments.MatVecBenchString(rep))
	writeJSONReport(rep)
	done()
}

func runGram(bool) {
	done := banner("Blocked Gram: panel kernels vs column-at-a-time baseline")
	rep := experiments.GramBench(parLevels())
	fmt.Print(experiments.GramBenchString(rep))
	writeJSONReport(rep)
	done()
}

func runServe(bool) {
	if *planMode {
		done := banner("Serve front end: plan-mode measurement + cached-vs-uncached query load")
		rep := experiments.ServePlanBench(parLevels())
		fmt.Print(experiments.ServePlanBenchString(rep))
		writeJSONReport(rep)
		done()
		return
	}
	done := banner("Serve front end: requests/sec at 1 vs N parallel clients")
	rep := experiments.ServeBench(parLevels())
	fmt.Print(experiments.ServeBenchString(rep))
	writeJSONReport(rep)
	done()
}

func runWAL(full bool) {
	done := banner("WAL persistence: durable bytes per commit vs full snapshot rewrites")
	rep := experiments.WALBench(full)
	fmt.Print(experiments.WALBenchString(rep))
	writeJSONReport(rep)
	done()
}

func runCluster(full bool) {
	done := banner("Sharded cluster: routed read fan-out, replication lag, failover")
	rep := experiments.ClusterBench(full)
	fmt.Print(experiments.ClusterBenchString(rep))
	writeJSONReport(rep)
	done()
}

func runIncremental(full bool) {
	done := banner("Incremental refresh: warm vs cold panel rebuild per appended generation")
	rep := experiments.IncrementalBench(full)
	fmt.Print(experiments.IncrementalBenchString(rep))
	writeJSONReport(rep)
	done()
}

func runSweep(full bool) {
	done := banner("Multi-epsilon sweep: one panel solve vs per-column scalar solves")
	cfg := experiments.QuickSweep()
	if full {
		cfg = experiments.FullSweep()
	}
	rep := experiments.SweepBench(cfg)
	fmt.Print(experiments.SweepBenchString(rep))
	writeJSONReport(rep)
	done()
}
