package partition

import (
	"math"
	"sort"
)

// This file implements the two data-adaptive partition selection
// operators of paper §5.4. Both are Private→Public in the framework: the
// plan first spends ε₁ obtaining a noisy copy of the data vector through
// the kernel's VectorLaplace, then calls these (pure, public)
// post-processing routines on the noisy counts.

// AHPCluster computes the AHP grouping (Zhang et al. [49], the PA
// operator): noisy counts below the threshold η·log(n)/ε are zeroed,
// cells are sorted by noisy value, and sorted runs whose spread stays
// within the noise scale are merged into clusters.
//
// noisy is the ε₁-noisy data vector; eps is the budget used to produce
// it (it calibrates both the threshold and the merge tolerance); eta is
// the AHP threshold multiplier (the AHP paper tunes it around 0.35).
func AHPCluster(noisy []float64, eta, eps float64) Partition {
	n := len(noisy)
	if n == 0 {
		return Partition{}
	}
	thresh := eta * math.Log(float64(n)+1) / eps
	vals := make([]float64, n)
	for i, v := range noisy {
		if v < thresh {
			v = 0
		}
		vals[i] = v
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return vals[order[a]] < vals[order[b]] })

	// Greedy merge over the sorted values: a cluster closes when adding
	// the next value would stretch its range beyond the Laplace noise
	// scale (values within noise of each other are indistinguishable, so
	// grouping them loses little and removes per-cell noise).
	tol := 2 / eps
	groups := make([]int, n)
	cluster := 0
	clusterMin := vals[order[0]]
	for rank, idx := range order {
		v := vals[idx]
		if rank > 0 && v-clusterMin > tol {
			cluster++
			clusterMin = v
		}
		groups[idx] = cluster
	}
	return FromGroups(groups)
}

// DawaL1Partition computes DAWA's stage-1 data-aware bucketing (Li et
// al. [26], the PD operator) by dynamic programming over contiguous
// buckets. The cost of bucket [i,j] is the within-bucket deviation from
// uniformity plus the noise cost of one Laplace measurement at the
// stage-2 budget eps2:
//
//	cost(i,j) = Σ_{k∈[i,j]} (x̃_k − μ)² + 2/eps2²
//
// The paper's DAWA uses an L1 deviation; the L2 form has an O(1)
// incremental formula via prefix sums and selects near-identical
// bucketings on the benchmark distributions (TestDawaCostAblation
// compares it against the exact L1 DP, DawaL1PartitionExact).
// maxBucket caps bucket width to keep the DP at O(n·maxBucket);
// 0 means no cap.
func DawaL1Partition(noisy []float64, eps2 float64, maxBucket int) Partition {
	n := len(noisy)
	if n == 0 {
		return Partition{}
	}
	if maxBucket <= 0 || maxBucket > n {
		maxBucket = n
	}
	// Prefix sums of x and x² for O(1) interval deviation.
	ps := make([]float64, n+1)
	ps2 := make([]float64, n+1)
	for i, v := range noisy {
		ps[i+1] = ps[i] + v
		ps2[i+1] = ps2[i] + v*v
	}
	dev := func(i, j int) float64 { // Σ(x−μ)² over [i, j] inclusive
		cnt := float64(j - i + 1)
		s := ps[j+1] - ps[i]
		s2 := ps2[j+1] - ps2[i]
		d := s2 - s*s/cnt
		if d < 0 {
			d = 0
		}
		return d
	}
	noiseCost := 2 / (eps2 * eps2)

	const inf = math.MaxFloat64
	best := make([]float64, n+1) // best[j] = min cost of bucketing x[0:j]
	from := make([]int, n+1)
	for j := 1; j <= n; j++ {
		best[j] = inf
		lo := j - maxBucket
		if lo < 0 {
			lo = 0
		}
		for i := lo; i < j; i++ {
			c := best[i] + dev(i, j-1) + noiseCost
			if c < best[j] {
				best[j] = c
				from[j] = i
			}
		}
	}
	// Recover bucket boundaries.
	groups := make([]int, n)
	var bounds []int
	for j := n; j > 0; j = from[j] {
		bounds = append(bounds, from[j])
	}
	// bounds holds bucket starts in reverse order.
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
