package dataset

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// This file holds the synthetic data generators that substitute for the
// paper's external datasets (DPBench 1-D distributions, the March-2000
// CPS Census extract, and the Credit Default data), which are not
// bundled with the code. Each generator preserves the qualitative
// properties (skew, sparsity, cluster structure, attribute correlation)
// that drive the data-dependent algorithms' behaviour.

func newRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x51f15ead0badcafe))
}

// Synthetic1DKinds lists the named 1-D distributions, spanning the axes
// the DPBench datasets vary: uniformity, sparsity, spikes, smoothness and
// cluster structure.
var Synthetic1DKinds = []string{
	"uniform", "zipf", "gauss-mix", "piecewise", "spikes",
	"ramp", "bimodal", "sparse", "steps", "power",
}

// Synthetic1D returns a 1-D count vector of length n whose total mass is
// close to scale records, drawn from the named distribution family.
func Synthetic1D(kind string, n int, scale float64, seed uint64) []float64 {
	rng := newRand(seed)
	w := make([]float64, n)
	switch kind {
	case "uniform":
		for i := range w {
			w[i] = 1
		}
	case "zipf":
		for i := range w {
			w[i] = 1 / math.Pow(float64(i+1), 1.1)
		}
		shuffleFloat(rng, w)
	case "gauss-mix":
		centers := []float64{0.2, 0.5, 0.8}
		widths := []float64{0.02, 0.08, 0.04}
		heights := []float64{1, 0.6, 1.4}
		for i := range w {
			t := float64(i) / float64(n)
			for c := range centers {
				d := (t - centers[c]) / widths[c]
				w[i] += heights[c] * math.Exp(-d*d/2)
			}
		}
	case "piecewise":
		// Few uniform segments of very different levels: DAWA/AHP friendly.
		nSeg := 8
		for s := 0; s < nSeg; s++ {
			level := math.Exp(rng.Float64()*6 - 3)
			lo, hi := s*n/nSeg, (s+1)*n/nSeg
			for i := lo; i < hi; i++ {
				w[i] = level
			}
		}
	case "spikes":
		for i := range w {
			w[i] = 0.01
		}
		for s := 0; s < 12; s++ {
			w[rng.IntN(n)] = 20 * (1 + rng.Float64())
		}
	case "ramp":
		for i := range w {
			w[i] = float64(i+1) / float64(n)
		}
	case "bimodal":
		for i := range w {
			t := float64(i) / float64(n)
			d1 := (t - 0.25) / 0.05
			d2 := (t - 0.75) / 0.05
			w[i] = math.Exp(-d1*d1/2) + math.Exp(-d2*d2/2) + 0.01
		}
	case "sparse":
		// 95% empty cells, a few dense clusters.
		for c := 0; c < 5; c++ {
			center := rng.IntN(n)
			for k := -n / 100; k <= n/100; k++ {
				i := center + k
				if i >= 0 && i < n {
					w[i] += math.Exp(-float64(k*k) / float64(n*n/4000+1))
				}
			}
		}
	case "steps":
		level := 1.0
		for i := range w {
			if i%max(1, n/16) == 0 {
				level = math.Exp(rng.Float64()*4 - 2)
			}
			w[i] = level
		}
	case "power":
		for i := range w {
			w[i] = math.Pow(float64(i+1), -0.5)
		}
	default:
		panic(fmt.Sprintf("dataset: unknown Synthetic1D kind %q", kind))
	}
	// Normalize to the requested total mass and sample multinomially so
	// counts are non-negative integers like real histograms. A cumulative
	// table plus binary search keeps this O(records·log n).
	cum := make([]float64, n)
	var total float64
	for i, v := range w {
		total += v
		cum[i] = total
	}
	x := make([]float64, n)
	for r := 0; r < int(scale); r++ {
		u := rng.Float64() * total
		i := sort.SearchFloat64s(cum, u)
		if i >= n {
			i = n - 1
		}
		x[i]++
	}
	return x
}

func shuffleFloat(rng *rand.Rand, w []float64) {
	for i := len(w) - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		w[i], w[j] = w[j], w[i]
	}
}

// CensusSchema is the schema of the synthetic CPS-like extract of the
// paper's §9.2 case study: Income in 5000 uniform ranges, Age in 5
// uniform ranges, 7 marital statuses, 4 races, 2 genders — a domain of
// 1,400,000 cells.
var CensusSchema = Schema{
	{Name: "income", Size: 5000},
	{Name: "age", Size: 5},
	{Name: "status", Size: 7},
	{Name: "race", Size: 4},
	{Name: "gender", Size: 2},
}

// CensusRows matches the paper's 49,436 heads-of-household.
const CensusRows = 49436

// Census generates the synthetic CPS-like table: heavy-tailed income
// (log-normal mixture), age/status correlation, skewed race and gender
// marginals — the properties the paper's Census experiments exercise.
func Census(seed uint64) *Table {
	rng := newRand(seed)
	t := New(CensusSchema)
	for i := 0; i < CensusRows; i++ {
		age := sampleWeights(rng, []float64{0.18, 0.24, 0.23, 0.20, 0.15})
		// Income: log-normal with age-dependent location; bucketized over
		// (0, 750000) in 5000 uniform ranges of 150 each.
		mu := 10.2 + 0.18*float64(age)
		if age == 4 {
			mu -= 0.35 // retirement dip
		}
		income := math.Exp(mu + 0.7*rng.NormFloat64())
		bucket := int(income / 150)
		if bucket >= 5000 {
			bucket = 4999
		}
		// Marital status correlates with age: young mostly never-married.
		var status int
		if age == 0 {
			status = sampleWeights(rng, []float64{0.15, 0.02, 0.03, 0.01, 0.70, 0.05, 0.04})
		} else {
			status = sampleWeights(rng, []float64{0.55, 0.03, 0.10, 0.12, 0.12, 0.05, 0.03})
		}
		race := sampleWeights(rng, []float64{0.78, 0.11, 0.06, 0.05})
		gender := sampleWeights(rng, []float64{0.55, 0.45})
		t.Append(bucket, age, status, race, gender)
	}
	return t
}

// CreditSchema is the schema of the synthetic Credit-Default-like data of
// §9.3: the binary label plus four predictors X3–X6 with a combined
// predictor domain of 7·4·11·56 = 17,248 cells, matching the paper.
var CreditSchema = Schema{
	{Name: "default", Size: 2},
	{Name: "education", Size: 7},
	{Name: "marriage", Size: 4},
	{Name: "paystatus", Size: 11},
	{Name: "age", Size: 56},
}

// CreditRows matches the 30,000 clients of the Credit Default data.
const CreditRows = 30000

// CreditDefault generates the synthetic credit-card data. The label is
// imbalanced (~22% default) and correlated with pay status and,
// more weakly, education and age, giving a learnable but noisy signal.
func CreditDefault(seed uint64) *Table {
	rng := newRand(seed)
	t := New(CreditSchema)
	for i := 0; i < CreditRows; i++ {
		def := 0
		if rng.Float64() < 0.22 {
			def = 1
		}
		var pay int
		if def == 1 {
			pay = clampInt(int(3.5+2.2*rng.NormFloat64()), 0, 10)
		} else {
			pay = clampInt(int(1.2+1.5*rng.NormFloat64()), 0, 10)
		}
		var edu int
		if def == 1 {
			edu = sampleWeights(rng, []float64{0.10, 0.28, 0.34, 0.16, 0.05, 0.04, 0.03})
		} else {
			edu = sampleWeights(rng, []float64{0.16, 0.38, 0.30, 0.10, 0.03, 0.02, 0.01})
		}
		marriage := sampleWeights(rng, []float64{0.05, 0.45, 0.47, 0.03})
		base := 34.0
		if def == 1 {
			base = 37.5
		}
		age := clampInt(int(base+9*rng.NormFloat64())-21, 0, 55)
		t.Append(def, edu, marriage, pay, age)
	}
	return t
}

// Grid2D returns a 2-D count vector (row-major h×w) with clustered mass,
// standing in for the spatial datasets used by the grid algorithms.
func Grid2D(h, w int, scale float64, seed uint64) []float64 {
	rng := newRand(seed)
	x := make([]float64, h*w)
	nClusters := 6
	type cluster struct{ cy, cx, sy, sx, weight float64 }
	clusters := make([]cluster, nClusters)
	for c := range clusters {
		clusters[c] = cluster{
			cy: rng.Float64(), cx: rng.Float64(),
			sy: 0.02 + 0.1*rng.Float64(), sx: 0.02 + 0.1*rng.Float64(),
			weight: rng.Float64() + 0.2,
		}
	}
	var totalW float64
	for _, c := range clusters {
		totalW += c.weight
	}
	for r := 0; r < int(scale); r++ {
		u := rng.Float64() * totalW
		var acc float64
		var pick cluster
		for _, c := range clusters {
			acc += c.weight
			if u < acc {
				pick = c
				break
			}
		}
		i := clampInt(int((pick.cy+pick.sy*rng.NormFloat64())*float64(h)), 0, h-1)
		j := clampInt(int((pick.cx+pick.sx*rng.NormFloat64())*float64(w)), 0, w-1)
		x[i*w+j]++
	}
	return x
}

func sampleWeights(rng *rand.Rand, w []float64) int {
	var total float64
	for _, v := range w {
		total += v
	}
	u := rng.Float64() * total
	var acc float64
	for i, v := range w {
		acc += v
		if u < acc {
			return i
		}
	}
	return len(w) - 1
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
