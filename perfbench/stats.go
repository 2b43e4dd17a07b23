package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// p50 needs 20 samples, p90 needs 100, p99 needs 1000.
const minBeyond = 10

// minMean is the fewest samples a gated mean, or each class of a gated
// class median, is computed from.
const minMean = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether the sample supports it, that is, whether at least minBeyond
// samples rank above the selected one.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(n))) - 1
	idx = max(0, min(idx, n-1))
	return s[idx], n-1-idx >= minBeyond
}

// mean returns the arithmetic mean of xs (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count; 0 for no samples).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs the way
// Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method). It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	ld := len(xs)
	if ld < 2 {
		if ld == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// metric is one reported number with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	// Gated marks an end-to-end metric the benchmark bounds; the others
	// are diagnostics or per-layer numbers.
	Gated bool `json:"gated,omitempty"`
}

// report collects a run's metrics. A gated timing that its samples do
// not support is refused: it is recorded as an error, and the run
// prints no result.
type report struct {
	metrics map[string]metric
	order   []string
	errs    []error
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, m metric) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = m
}

// value records a number that is not a timing statistic (a count, a
// ratio, a byte total) from n underlying samples.
func (r *report) value(name, unit string, v float64, n int, gated bool) {
	r.set(name, metric{Value: v, Unit: unit, N: n, Gated: gated})
}

// pct records the q-quantile of xs. A gated percentile without
// minBeyond samples beyond it is refused.
func (r *report) pct(name, unit string, xs []float64, q float64, gated bool) {
	v, ok := percentile(xs, q)
	if !ok && gated {
		r.errs = append(r.errs, fmt.Errorf("%s: %d samples cannot support p%g (need %d beyond it)",
			name, len(xs), q*100, minBeyond))
		return
	}
	if !ok {
		return // an unsupported diagnostic is left out rather than printed
	}
	r.set(name, metric{Value: v, Unit: unit, N: len(xs), Gated: gated})
}

// avg records the mean of xs. A gated mean of fewer than minMean
// samples is refused.
func (r *report) avg(name, unit string, xs []float64, gated bool) {
	if len(xs) < minMean && gated {
		r.errs = append(r.errs, fmt.Errorf("%s: %d samples, a gated mean needs %d", name, len(xs), minMean))
		return
	}
	r.set(name, metric{Value: mean(xs), Unit: unit, N: len(xs), Gated: gated})
}

// groupStat records the median, across groups of samples spread over
// the timed phase (read-paced's segments), of each group's q-quantile.
// A slow patch of the box then moves one group's value, not the
// result. Every group must support its percentile on its own.
func (r *report) groupStat(name, unit string, groups [][]float64, q float64, gated bool) {
	var vals []float64
	n := 0
	for i, g := range groups {
		n += len(g)
		v, ok := percentile(g, q)
		if !ok {
			if gated {
				r.errs = append(r.errs, fmt.Errorf("%s: group %d has %d samples, too few for its statistic", name, i, len(g)))
			}
			return
		}
		vals = append(vals, v)
	}
	if len(vals) == 0 {
		if gated {
			r.errs = append(r.errs, fmt.Errorf("%s: no samples", name))
		}
		return
	}
	r.set(name, metric{Value: median(vals), Unit: unit, N: n, Gated: gated})
}

// classMedian records the mix-weighted class median of a workload's
// timed requests: each operation class's median latency, weighted by
// the class's share of the requests. Like a mean, it moves when any
// class gets slower, in proportion to that class's share, and it does
// not flip between classes as a median of mixed classes does; unlike a
// mean, a few requests stalled by the box (a descheduled vCPU, a GC)
// do not move it. A gated value needs minMean samples in every class.
func (r *report) classMedian(name, unit string, classes map[string][]float64, gated bool) {
	var sum float64
	n := 0
	for _, c := range sortedKeys(classes) {
		xs := classes[c]
		if len(xs) < minMean {
			if gated {
				r.errs = append(r.errs, fmt.Errorf("%s: class %s has %d samples, a gated class median needs %d", name, c, len(xs), minMean))
			}
			return
		}
		sum += float64(len(xs)) * median(xs)
		n += len(xs)
	}
	if n == 0 {
		if gated {
			r.errs = append(r.errs, fmt.Errorf("%s: no samples", name))
		}
		return
	}
	r.set(name, metric{Value: sum / float64(n), Unit: unit, N: n, Gated: gated})
}

// ratio returns a/b, or 0 when b is 0 (an idle layer reports zero).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
