package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness report reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs the workload repeat times per set, each run in its own
// process with its own seed (seed, seed+1, ...; every set uses the same
// seeds), and prints each metric's median, quartiles and spread next to
// its bound. With two or more sets it also prints how far each later
// set's median moved from the first set's in the worse direction. It
// returns 0 when every spread but setup_s's and every move stays within
// the metric's bound.
func steadiness(workload string, seed uint64, seconds, trace, repeat, sets int) int {
	var spec benchSpec
	if data, err := os.ReadFile("BENCHMARK.json"); err == nil {
		if err := json.Unmarshal(data, &spec); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: BENCHMARK.json: %v\n", err)
			return 2
		}
	}
	bound := map[string]float64{}
	better := map[string]string{}
	for _, m := range spec.EndToEnd {
		bound[m.Name], better[m.Name] = m.Bound, m.Better
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	values := make([]map[string][]float64, sets)
	var order []string
	failedRuns := 0
	for s := 0; s < sets; s++ {
		values[s] = map[string][]float64{}
		for i := 0; i < repeat; i++ {
			n := seed + uint64(i)
			cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(n, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			err := cmd.Run()
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || jerr != nil || !res.Correct {
				failedRuns++
				fmt.Printf("set %d seed %d: run failed: %v\n", s+1, n, err)
				continue
			}
			fmt.Printf("set %d seed %d:", s+1, n)
			for _, name := range sortedKeys(res.Metrics) {
				if s == 0 && i == 0 {
					order = append(order, name)
				}
				values[s][name] = append(values[s][name], res.Metrics[name].Value)
				fmt.Printf(" %s=%.4g", name, res.Metrics[name].Value)
			}
			fmt.Println()
		}
	}
	ok := failedRuns == 0
	fmt.Printf("\n%-28s %4s %12s %12s %12s %8s %7s %s\n", "metric", "set", "median", "q1", "q3", "spread", "bound", "")
	for _, name := range order {
		b, gated := bound[name]
		var base float64
		for s := 0; s < sets; s++ {
			xs := values[s][name]
			med := median(xs)
			q1, q3 := quartiles(xs)
			spread := ratio(q3-q1, med)
			verdict := ""
			if gated {
				switch {
				case name != "setup_s" && spread > b:
					verdict, ok = "SPREAD > bound", false
				case spread > b/3:
					verdict = "spread > bound/3"
				}
			}
			if s == 0 {
				base = med
			} else if gated {
				move := ratio(med-base, base)
				if better[name] == "higher" {
					move = -move
				}
				verdict += fmt.Sprintf(" moved %+.1f%%", move*100)
				if move > b {
					verdict, ok = verdict+" > bound", false
				}
			}
			bs := "-"
			if gated {
				bs = fmt.Sprintf("%.2f", b)
			}
			fmt.Printf("%-28s %4d %12.4f %12.4f %12.4f %7.1f%% %7s %s\n", name, s+1, med, q1, q3, spread*100, bs, verdict)
		}
	}
	summary, _ := json.Marshal(map[string]any{"workload": workload, "runs": repeat * sets, "failed_runs": failedRuns, "steady": ok})
	fmt.Println(string(summary))
	if !ok {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
