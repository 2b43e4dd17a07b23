package selection

import (
	"math/rand/v2"

	"repro/internal/mat"
	"repro/internal/solver"
)

// This file implements HDMM-lite (paper plan #13), a scoped version of
// the HDMM strategy optimizer of McKenna et al.: for a Kronecker-
// structured workload it selects, per dimension, the strategy among a
// family of templates that minimizes the matrix-mechanism expected error
//
//	Error(W; A) ∝ ‖A‖₁² · ‖W A⁺‖²_F,
//
// where the Frobenius term is estimated stochastically using only
// implicit mat-vec products: ‖WA⁺‖²_F = Σ_q ‖qA⁺‖² over workload rows q,
// and z = qA⁺ is the minimum-norm solution of zA = q, obtained by CGLS
// on Aᵀ. This replaces HDMM's exact gradient-based optimization over a
// parameterized strategy space with a search over a fixed template
// family: the implicit estimate needs only mat-vec products, so the
// optimizer scales to domains where A⁺ cannot be formed.

// HDMMCandidates is the template family searched per dimension.
func HDMMCandidates(n int) map[string]mat.Matrix {
	c := map[string]mat.Matrix{
		"identity": mat.Identity(n),
		"h2":       H2(n),
		"hb":       HB(n),
		"total+id": mat.VStack(mat.Total(n), mat.Identity(n)),
	}
	if n >= 2 && n&(n-1) == 0 {
		c["wavelet"] = mat.Wavelet(n)
	}
	return c
}

// hdmmPanel is the number of sampled workload rows solved per batched
// CGLS block: each solver iteration then makes one MatMat/TMatMat pass
// over the strategy instead of one per sampled row.
const hdmmPanel = 32

// HDMMScore estimates the matrix-mechanism expected total squared error
// of strategy a for workload w, sampling at most sampleRows workload rows
// for the Frobenius term. The sampled rows are extracted as basis panels
// (one TMatMat per panel) and solved in batches through CGLSMulti.
func HDMMScore(w, a mat.Matrix, sampleRows int, rng *rand.Rand) float64 {
	wr, wc := w.Dims()
	_, ac := a.Dims()
	if wc != ac {
		panic("selection: HDMMScore dimension mismatch")
	}
	sens := mat.L1Sensitivity(a)
	if sens == 0 {
		return 0
	}
	rows := sampleRows
	if rows >= wr {
		rows = wr
	}
	var frob float64
	at := mat.T(a)
	// One workspace serves every panel's basis extraction and block solve.
	ws := mat.NewWorkspace()
	for s0 := 0; s0 < rows; s0 += hdmmPanel {
		k := rows - s0
		if k > hdmmPanel {
			k = hdmmPanel
		}
		basis := ws.GetZero(wr * k)
		for c := 0; c < k; c++ {
			i := s0 + c
			if rows < wr {
				i = rng.IntN(wr)
			}
			basis[i*k+c] = 1
		}
		q := ws.Get(wc * k) // column c = sampled workload row
		mat.TMatMat(w, q, basis, k)
		// Minimum-norm z with zA = q  ⇔  Aᵀ zᵀ = qᵀ solved by block CGLS,
		// whose limit from x₀ = 0 is the pseudo-inverse solution; the
		// Frobenius contribution is the squared norm of every solution
		// column, i.e. of the whole panel.
		res := solver.CGLSMulti(at, q, k, solver.Options{MaxIter: 500, Tol: 1e-9, Work: ws})
		for _, v := range res.X {
			frob += v * v
		}
		ws.Put(basis)
		ws.Put(q)
	}
	if rows > 0 && rows < wr {
		frob *= float64(wr) / float64(rows)
	}
	return sens * sens * frob
}

// HDMMSelect chooses, independently per dimension of the Kronecker
// workload factors, the candidate strategy minimizing HDMMScore, and
// returns the Kronecker product of the winners. The per-dimension
// decomposition is exact for single-Kronecker workloads, where both the
// sensitivity and the Frobenius term factor across dimensions.
func HDMMSelect(workloadFactors []mat.Matrix, sampleRows int, rng *rand.Rand) mat.Matrix {
	chosen := make([]mat.Matrix, len(workloadFactors))
	for d, wf := range workloadFactors {
		_, n := wf.Dims()
		bestScore := -1.0
		var best mat.Matrix
		for _, cand := range sortedCandidates(n) {
			score := HDMMScore(wf, cand.m, sampleRows, rng)
			if bestScore < 0 || score < bestScore {
				bestScore = score
				best = cand.m
			}
		}
		chosen[d] = best
	}
	if len(chosen) == 1 {
		return chosen[0]
	}
	return mat.Kron(chosen...)
}

type namedMatrix struct {
	name string
	m    mat.Matrix
}

// sortedCandidates returns the template family in a fixed order so the
// arg-min tie-break is deterministic.
func sortedCandidates(n int) []namedMatrix {
	cands := HDMMCandidates(n)
	order := []string{"identity", "total+id", "h2", "hb", "wavelet"}
	out := make([]namedMatrix, 0, len(cands))
	for _, name := range order {
		if m, ok := cands[name]; ok {
			out = append(out, namedMatrix{name: name, m: m})
		}
	}
	return out
}
