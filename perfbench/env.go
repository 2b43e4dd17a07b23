package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// environment names the box and the build a record was measured on.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
}

func readEnvironment() environment {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     gitCommit("."),
		Kernel:     strings.TrimSpace(string(kernel)),
	}
}

// gitCommit resolves HEAD of the repository at dir without running
// git; a checkout that is not a repository reports "unknown".
func gitCommit(dir string) string {
	head, err := os.ReadFile(dir + "/.git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if id, err := os.ReadFile(dir + "/.git/" + ref); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(dir + "/.git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return "unknown"
}

// stealTicks reads the cumulative steal time of all CPUs from
// /proc/stat, in clock ticks (-1 when unavailable).
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) > 8 && f[0] == "cpu" {
			v, err := strconv.ParseInt(f[8], 10, 64)
			if err != nil {
				return -1
			}
			return v
		}
	}
	return -1
}

// calibrationSink keeps the calibration loop from being optimized away.
var calibrationSink uint64

// calibrate times a fixed CPU loop, in ms. Recorded before and after a
// run as a box-speed indicator; it never rescales a result.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 30_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibrationSink += x
	return float64(time.Since(start)) / 1e6
}

// boxNoise holds the run's box-noise indicators.
type boxNoise struct {
	StealTicks      int64   `json:"steal_ticks"`
	CalibrateMsPre  float64 `json:"calibrate_ms_before"`
	CalibrateMsPost float64 `json:"calibrate_ms_after"`
}
