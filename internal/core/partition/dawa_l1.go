package partition

import (
	"math"
	"sort"
)

// This file implements DAWA's original L1 bucketing objective exactly,
// as an ablation partner for the O(1)-incremental L2 objective used by
// DawaL1Partition (see its doc comment for why the substitution holds;
// TestDawaCostAblation checks it). The exact interval cost is
//
//	cost(i,j) = min_c Σ_{k∈[i,j]} |x̃_k − c| + 1/eps2
//	          = Σ |x̃_k − median| + 1/eps2,
//
// and the DP is O(n·L²·log L) in the worst case, so the bucket cap L
// matters much more here than for the L2 variant.

// DawaL1PartitionExact computes the stage-1 bucketing with the exact L1
// deviation cost. maxBucket (0 means 64) caps bucket width.
func DawaL1PartitionExact(noisy []float64, eps2 float64, maxBucket int) Partition {
	n := len(noisy)
	if n == 0 {
		return Partition{}
	}
	if maxBucket <= 0 || maxBucket > n {
		maxBucket = 64
		if maxBucket > n {
			maxBucket = n
		}
	}
	noiseCost := 1 / eps2

	const inf = math.MaxFloat64
	best := make([]float64, n+1)
	from := make([]int, n+1)
	// window holds the sorted values of the interval [i, j-1] while i
	// decreases for a fixed j; prefix sums over it give the L1 deviation
	// around the median in O(log L) per query after O(L) maintenance.
	for j := 1; j <= n; j++ {
		best[j] = inf
		lo := j - maxBucket
		if lo < 0 {
			lo = 0
		}
		window := make([]float64, 0, j-lo)
		for i := j - 1; i >= lo; i-- {
			// Insert noisy[i] keeping window sorted.
			v := noisy[i]
			pos := sort.SearchFloat64s(window, v)
			window = append(window, 0)
			copy(window[pos+1:], window[pos:])
			window[pos] = v
			dev := l1DeviationSorted(window)
			c := best[i] + dev + noiseCost
			if c < best[j] {
				best[j] = c
				from[j] = i
			}
		}
	}
	groups := make([]int, n)
	var bounds []int
	for j := n; j > 0; j = from[j] {
		bounds = append(bounds, from[j])
	}
	for bi := len(bounds) - 1; bi >= 0; bi-- {
		start := bounds[bi]
		end := n
		if bi > 0 {
			end = bounds[bi-1]
		}
		for k := start; k < end; k++ {
			groups[k] = len(bounds) - 1 - bi
		}
	}
	return FromGroups(groups)
}

// l1DeviationSorted computes Σ|v − median| over a sorted slice.
func l1DeviationSorted(sorted []float64) float64 {
	m := len(sorted)
	if m == 0 {
		return 0
	}
	med := sorted[m/2]
	var dev float64
	for _, v := range sorted {
		dev += math.Abs(v - med)
	}
	return dev
}
