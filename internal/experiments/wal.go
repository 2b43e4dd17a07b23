package experiments

// WAL write-amplification benchmark (BENCH_7.json): the same 64-commit
// measurement loop driven against two identically seeded serve
// datasets. The first runs the write-ahead log at its default
// compaction cadence, with every byte it writes counted through the
// wal.FaultFS accounting layer. The second compacts after every commit
// (CheckpointEvery 1), and only the bytes of its checkpoint file are
// counted: one full-state snapshot per commit, the cost of persisting
// by rewriting the whole grown log — O(total) bytes per commit,
// quadratic over the run. The WAL appends one record per commit —
// O(delta) — so the headline number is the bytes-per-run reduction.
// The WAL total honestly includes its checkpoint compaction (the run is
// exactly one CheckpointEvery window, so one compaction lands inside
// it) and the panel sidecar writes. The rewrite side's count leaves
// out its own log appends and sidecars, which would only inflate the
// baseline.
//
// The run panics below a 5× reduction — the acceptance floor for the
// WAL existing at all — and panics if the two datasets' answers, or
// either dataset's post-restart answers, are not bit-identical: a
// persistence format is only as good as the state it restores.

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/mat"
	"repro/internal/serve"
	"repro/internal/wal"
)

// WALSample is one sampled commit.
type WALSample struct {
	Commit int `json:"commit"`
	// CumWALBytes / CumSnapshotBytes are the counted bytes of each side
	// (every WAL byte; checkpoint bytes of the rewrite side) up to and
	// including this commit.
	CumWALBytes      int64 `json:"cum_wal_bytes"`
	CumSnapshotBytes int64 `json:"cum_snapshot_bytes"`
	WALNs            int64 `json:"wal_ns"`
	SnapshotNs       int64 `json:"snapshot_ns"`
}

// WALBenchReport is the full WAL benchmark output (BENCH_7.json).
type WALBenchReport struct {
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Domain     int    `json:"domain"`
	Commits    int    `json:"commits"`
	RowsTotal  int    `json:"rows_total"`
	// WALBytes is every durable byte the WAL dataset wrote across the
	// run (checkpoint compaction and panel sidecars included);
	// SnapshotBytes is the checkpoint bytes of the dataset that
	// checkpoints every commit. Reduction is snapshot/wal — the
	// write-amplification factor the log removes. Acceptance floor: 5×.
	WALBytes      int64   `json:"wal_bytes"`
	SnapshotBytes int64   `json:"snapshot_bytes"`
	Reduction     float64 `json:"reduction"`
	// WALCommitNs / SnapshotCommitNs are mean wall-clock per Measure
	// commit (kernel work is identical on both sides, so the gap is
	// persistence).
	WALCommitNs      int64 `json:"wal_commit_ns"`
	SnapshotCommitNs int64 `json:"snapshot_commit_ns"`
	// RestartBitIdentical: both datasets restored from disk answer the
	// reference workload bit-identically to their pre-restart selves
	// (and to each other — the seeds match).
	RestartBitIdentical bool        `json:"restart_bit_identical"`
	Samples             []WALSample `json:"samples,omitempty"`
}

// WALBench runs the loop. With full=false the quick configuration runs
// (seconds); full scales the domain.
func WALBench(full bool) WALBenchReport {
	domain := 128
	if full {
		domain = 512
	}
	const commits = 64 // exactly one default CheckpointEvery window
	rep := WALBenchReport{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Domain:     domain,
		Commits:    commits,
	}

	dirW, err := os.MkdirTemp("", "ektelo-walbench-w")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dirW)
	dirS, err := os.MkdirTemp("", "ektelo-walbench-s")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dirS)

	fsW, fsS := wal.NewFaultFS(nil), &checkpointFS{}
	srvW := serve.New(serve.Config{StateDir: dirW, FS: fsW})
	srvS := serve.New(serve.Config{StateDir: dirS, FS: fsS, CheckpointEvery: 1})

	const seed, epsTotal, epsCommit = 11, 100, 0.1
	dw, err := srvW.CreateDataset("walbench", "piecewise", domain, 1e6, seed, epsTotal)
	if err != nil {
		panic(err)
	}
	ds, err := srvS.CreateDataset("walbench", "piecewise", domain, 1e6, seed, epsTotal)
	if err != nil {
		panic(err)
	}

	var walNs, snapNs int64
	sampleEvery := commits / 8
	for c := 1; c <= commits; c++ {
		start := time.Now()
		rows, err := dw.Measure("h2", epsCommit)
		if err != nil {
			panic(err)
		}
		w := time.Since(start).Nanoseconds()
		start = time.Now()
		if _, err := ds.Measure("h2", epsCommit); err != nil {
			panic(err)
		}
		s := time.Since(start).Nanoseconds()
		walNs += w
		snapNs += s
		rep.RowsTotal += rows
		if c%sampleEvery == 0 {
			rep.Samples = append(rep.Samples, WALSample{
				Commit: c, CumWALBytes: fsW.BytesWritten(), CumSnapshotBytes: fsS.bytes.Load(),
				WALNs: w, SnapshotNs: s,
			})
		}
	}
	rep.WALCommitNs = walNs / commits
	rep.SnapshotCommitNs = snapNs / commits

	// Reference workload answered before and after a restart of both
	// datasets.
	ranges := make([]mat.Range1D, 32)
	for q := range ranges {
		lo := (q * 37) % (domain - domain/4)
		ranges[q] = mat.Range1D{Lo: lo, Hi: lo + domain/4 - 1}
	}
	beforeW, err := dw.Query(ranges)
	if err != nil {
		panic(err)
	}
	beforeS, err := ds.Query(ranges)
	if err != nil {
		panic(err)
	}
	srvW.Close()
	srvS.Close()
	rep.WALBytes = fsW.BytesWritten()
	rep.SnapshotBytes = fsS.bytes.Load()
	if rep.WALBytes > 0 {
		rep.Reduction = float64(rep.SnapshotBytes) / float64(rep.WALBytes)
	}

	srvW2 := serve.New(serve.Config{StateDir: dirW})
	defer srvW2.Close()
	srvS2 := serve.New(serve.Config{StateDir: dirS, CheckpointEvery: 1})
	defer srvS2.Close()
	dw2, err := srvW2.CreateDataset("walbench", "piecewise", domain, 1e6, seed, epsTotal)
	if err != nil {
		panic(err)
	}
	ds2, err := srvS2.CreateDataset("walbench", "piecewise", domain, 1e6, seed, epsTotal)
	if err != nil {
		panic(err)
	}
	afterW, err := dw2.Query(ranges)
	if err != nil {
		panic(err)
	}
	afterS, err := ds2.Query(ranges)
	if err != nil {
		panic(err)
	}
	rep.RestartBitIdentical = true
	for i := range beforeW.Answers {
		if afterW.Answers[i] != beforeW.Answers[i] || afterS.Answers[i] != beforeS.Answers[i] ||
			beforeW.Answers[i] != beforeS.Answers[i] {
			rep.RestartBitIdentical = false
		}
	}
	if !rep.RestartBitIdentical {
		panic("wal bench: restart answers not bit-identical")
	}
	if rep.Reduction < 5 {
		panic(fmt.Sprintf("wal bench: only %.2fx fewer durable bytes than snapshot rewrites (acceptance floor 5x)",
			rep.Reduction))
	}
	return rep
}

// checkpointFS is the real filesystem with a byte count of checkpoint
// files only (the snapshot format, written to a temp file and renamed
// into place); log appends and panel sidecars pass through uncounted.
type checkpointFS struct {
	wal.OSFS
	bytes atomic.Int64
}

func (c *checkpointFS) Create(name string) (wal.File, error) {
	f, err := c.OSFS.Create(name)
	if err != nil || !strings.Contains(name, ".snapshot.json") {
		return f, err
	}
	return &countedFile{File: f, n: &c.bytes}, nil
}

// countedFile adds every byte written through it to n.
type countedFile struct {
	wal.File
	n *atomic.Int64
}

func (f *countedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.n.Add(int64(n))
	return n, err
}

// WALBenchString renders the report as a table.
func WALBenchString(rep WALBenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "wal write amplification (%s, GOMAXPROCS=%d, NumCPU=%d)\n",
		rep.GoVersion, rep.GoMaxProcs, rep.NumCPU)
	fmt.Fprintf(&b, "%-8s %8s %10s %14s %14s %10s %14s %14s %9s\n",
		"domain", "commits", "rows", "wal bytes", "snap bytes", "reduction", "wal ns/ci", "snap ns/ci", "bitwise")
	fmt.Fprintf(&b, "%-8d %8d %10d %14d %14d %9.2fx %14d %14d %9v\n",
		rep.Domain, rep.Commits, rep.RowsTotal, rep.WALBytes, rep.SnapshotBytes,
		rep.Reduction, rep.WALCommitNs, rep.SnapshotCommitNs, rep.RestartBitIdentical)
	return b.String()
}
