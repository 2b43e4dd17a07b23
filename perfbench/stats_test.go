package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{20, 0.5, 10, true},  // rank 10 of 20: 10 beyond
		{19, 0.5, 10, false}, // rank 10 of 19: 9 beyond
		{100, 0.9, 90, true}, // rank 90 of 100: 10 beyond
		{99, 0.9, 90, false}, // rank 90 of 99: 9 beyond
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{5000, 0.999, 4995, false}, // 5 beyond: p999 needs 10,000 samples
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestReportRefusesUnsupportedGatedTimings(t *testing.T) {
	rep := newReport()
	rep.pct("p90_gated", "ms", seq(99), 0.9, true)
	rep.avg("mean_gated", "ms", seq(minMean-1), true)
	if len(rep.errs) != 2 {
		t.Fatalf("got %d refusals, want 2: %v", len(rep.errs), rep.errs)
	}
	if _, ok := rep.metrics["p90_gated"]; ok {
		t.Error("an unsupported gated percentile was emitted")
	}
	if _, ok := rep.metrics["mean_gated"]; ok {
		t.Error("a gated mean of too few samples was emitted")
	}

	rep = newReport()
	rep.pct("p90_diag", "ms", seq(99), 0.9, false)
	rep.pct("p90_ok", "ms", seq(100), 0.9, true)
	rep.avg("mean_ok", "ms", seq(minMean), true)
	if len(rep.errs) != 0 {
		t.Fatalf("unexpected refusals: %v", rep.errs)
	}
	if _, ok := rep.metrics["p90_diag"]; ok {
		t.Error("an unsupported diagnostic percentile was printed")
	}
	if m := rep.metrics["p90_ok"]; m.Value != 90 || m.N != 100 || !m.Gated {
		t.Errorf("p90_ok = %+v", m)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(data, n=4) in Python 3.
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 1, 3}, 1, 5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestClassMedianWeighsClassesByShare(t *testing.T) {
	cheap := seq(30)                                                  // median 15.5
	costly := []float64{90, 100, 110, 95, 105, 100, 98, 102, 99, 101} // median 100
	rep := newReport()
	rep.classMedian("cost", "ms", map[string][]float64{"cheap": cheap, "costly": costly}, true)
	want := (30*15.5 + 10*100.0) / 40
	if m := rep.metrics["cost"]; math.Abs(m.Value-want) > 1e-12 || m.N != 40 || !m.Gated {
		t.Fatalf("cost = %+v, want value %g from 40 samples", m, want)
	}

	// One request stalled for a second moves the mean of all 40 by 22 ms
	// and the class median not at all.
	stalled := append(append([]float64(nil), costly[:9]...), 1000)
	rep.classMedian("cost_stalled", "ms", map[string][]float64{"cheap": cheap, "costly": stalled}, true)
	if got := rep.metrics["cost_stalled"].Value; math.Abs(got-want) > 1e-12 {
		t.Errorf("a stalled request moved the class median: %g, want %g", got, want)
	}

	// A class too small for its median refuses the gated value.
	rep = newReport()
	rep.classMedian("cost", "ms", map[string][]float64{"cheap": cheap, "costly": costly[:minMean-1]}, true)
	if _, ok := rep.metrics["cost"]; ok || len(rep.errs) != 1 {
		t.Errorf("a class of %d samples was accepted: %v", minMean-1, rep.errs)
	}
}
