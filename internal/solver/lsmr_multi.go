package solver

import (
	"math"

	"repro/internal/mat"
	"repro/internal/vec"
)

// This file extends the batched multi-RHS tier (see batch.go) with the
// paper's named solver: LSMRMulti runs k independent Golub-Kahan
// bidiagonalization recurrences in lockstep, so the two matrix
// applications per LSMR iteration become one MatMat and one TMatMat over
// a rows×k panel — one pass over the matrix per iteration for all k
// right-hand sides. NNLSMulti does the same for FISTA projected-gradient
// non-negative least squares, which prices multi-epsilon trial sweeps
// (one strategy, k epsilon columns) at a single panel solve.
//
// Both follow the CGLSMulti contract: each column executes exactly the
// arithmetic of its scalar solve (LSMR / NNLS) on its own right-hand
// side, converged columns freeze under per-column latches while the rest
// keep iterating, and results match the one-at-a-time path to the last
// bit for matrices whose panel kernels accumulate in MatVec order
// (Dense, CSR, and the combinators built from them). With a warm
// Options.Work workspace the iteration loops allocate nothing.

// LSMRMulti solves min ‖A·x_c − y_c‖₂ for the k right-hand sides packed
// in the rows×k row-major panel y with the block LSMR of Fong & Saunders
// run column-wise in lockstep. opts.X0, when non-nil, is a cols×k
// row-major panel warm-starting every column (see the package docs for
// the warm-start contract), and opts.Damp adds per-column Tikhonov
// damping exactly as in LSMR; MaxIter, Tol, TolFloor (length k when
// set) and Work behave as in LSMR, applied per column.
func LSMRMulti(a mat.Matrix, y []float64, k int, opts Options) MultiResult {
	rows, cols := a.Dims()
	if k < 1 {
		panic("solver: LSMRMulti needs k >= 1")
	}
	if len(y) != rows*k {
		panic("solver: LSMRMulti rhs panel length mismatch")
	}
	if len(opts.TolFloor) != 0 && len(opts.TolFloor) != k {
		panic("solver: LSMRMulti TolFloor length mismatch")
	}
	ws := opts.Work
	x := make([]float64, cols*k)
	res := MultiResult{X: x, K: k}

	u := ws.Get(rows * k) // left Lanczos panel; starts as the rhs residual
	copy(u, y)
	if opts.X0 != nil {
		if len(opts.X0) != cols*k {
			panic("solver: LSMRMulti X0 panel length mismatch")
		}
		copy(x, opts.X0)
		panelResidual(a, u, x, k, ws)
	}
	v := ws.Get(cols * k)
	h := ws.Get(cols * k)
	hBar := ws.GetZero(cols * k)
	tmpRow := ws.Get(rows * k)
	tmpCol := ws.Get(cols * k)
	// Per-column scalar state of the rotations and panel coefficients.
	alpha := ws.Get(k)
	beta := ws.Get(k)
	alphaNext := ws.Get(k)
	zetaBar := ws.Get(k)
	alphaBar := ws.Get(k)
	rho := ws.Get(k)
	rhoBar := ws.Get(k)
	cBar := ws.Get(k)
	sBar := ws.Get(k)
	normAr0 := ws.Get(k)
	target := ws.Get(k)
	coefHBar := ws.Get(k)
	step := ws.Get(k)
	coefH := ws.Get(k)
	inv := ws.Get(k)
	sum := ws.Get(k)
	defer func() {
		ws.Put(u)
		ws.Put(v)
		ws.Put(h)
		ws.Put(hBar)
		ws.Put(tmpRow)
		ws.Put(tmpCol)
		ws.Put(alpha)
		ws.Put(beta)
		ws.Put(alphaNext)
		ws.Put(zetaBar)
		ws.Put(alphaBar)
		ws.Put(rho)
		ws.Put(rhoBar)
		ws.Put(cBar)
		ws.Put(sBar)
		ws.Put(normAr0)
		ws.Put(target)
		ws.Put(coefHBar)
		ws.Put(step)
		ws.Put(coefH)
		ws.Put(inv)
		ws.Put(sum)
	}()

	done := make([]bool, k)
	colNorm2(u, k, nil, beta, sum)
	colInvScale(beta, u, k, nil, inv)
	mat.TMatMat(a, v, u, k)
	colNorm2(v, k, nil, alpha, sum)
	colInvScale(alpha, v, k, nil, inv)

	tol := opts.tol()
	active := 0
	for c := 0; c < k; c++ {
		normAr0[c] = alpha[c] * beta[c]
		target[c] = tol * normAr0[c]
		if len(opts.TolFloor) > 0 && opts.TolFloor[c] > target[c] {
			target[c] = opts.TolFloor[c]
		}
		if normAr0[c] == 0 || (len(opts.TolFloor) > 0 && normAr0[c] <= target[c]) {
			// Zero gradient, or the start point already meets the absolute
			// floor: current x_c (zero or X0) stands.
			done[c] = true
			continue
		}
		active++
		// Initialization per Fong & Saunders, Algorithm 1.
		zetaBar[c] = alpha[c] * beta[c]
		alphaBar[c] = alpha[c]
		rho[c] = 1
		rhoBar[c] = 1
		cBar[c] = 1
		sBar[c] = 0
	}
	copy(h, v)

	maxIter := opts.maxIter(cols)
	for it := 1; it <= maxIter && active > 0; it++ {
		lat := latchMask(done, active, k)
		// Continue the bidiagonalization:
		// β_{k+1} u_{k+1} = A v_k − α_k u_k
		mat.MatMat(a, tmpRow, v, k)
		colBidiagStep(u, tmpRow, alpha, lat, k)
		colNorm2(u, k, lat, beta, sum)
		colInvScale(beta, u, k, lat, inv)
		// α_{k+1} v_{k+1} = Aᵀ u_{k+1} − β_{k+1} v_k
		mat.TMatMat(a, tmpCol, u, k)
		colBidiagStep(v, tmpCol, beta, lat, k)
		colNorm2(v, k, lat, alphaNext, sum)
		colInvScale(alphaNext, v, k, lat, inv)
		res.Iterations = it
		for c := 0; c < k; c++ {
			if done[c] {
				continue
			}
			// First plane rotation, eliminating β_{k+1}. Damping enters
			// through α̂ = hypot(ᾱ, λ), the same fold as scalar LSMR; the
			// branch keeps λ = 0 bit-identical to the undamped recurrence.
			alphaHat := alphaBar[c]
			if opts.Damp > 0 {
				alphaHat = math.Hypot(alphaBar[c], opts.Damp)
			}
			rhoOld := rho[c]
			rho[c] = math.Hypot(alphaHat, beta[c])
			cos := alphaHat / rho[c]
			sin := beta[c] / rho[c]
			theta := sin * alphaNext[c]
			alphaBar[c] = cos * alphaNext[c]
			// Second plane rotation.
			rhoBarOld := rhoBar[c]
			thetaBar := sBar[c] * rho[c]
			rhoTemp := cBar[c] * rho[c]
			rhoBar[c] = math.Hypot(cBar[c]*rho[c], theta)
			cBar[c] = rhoTemp / rhoBar[c]
			sBar[c] = theta / rhoBar[c]
			zeta := cBar[c] * zetaBar[c]
			zetaBar[c] = -sBar[c] * zetaBar[c]
			// Column-c coefficients of the h̄ / x / h panel updates below.
			coefHBar[c] = thetaBar * rho[c] / (rhoOld * rhoBarOld)
			step[c] = zeta / (rho[c] * rhoBar[c])
			coefH[c] = theta / rho[c]
			alpha[c] = alphaNext[c]
		}
		colBidiagStep(hBar, h, coefHBar, lat, k) // h̄ = h − coef·h̄
		colAxpyLatch(step, hBar, x, lat, k)      // x += step·h̄
		colBidiagStep(h, v, coefH, lat, k)       // h = v − coef·h
		for c := 0; c < k; c++ {
			if done[c] {
				continue
			}
			if math.Abs(zetaBar[c]) <= target[c] { // estimate of ‖Aᵀr_c‖
				done[c] = true
				active--
			}
		}
	}
	res.Converged = active == 0
	return res
}

// The panel helpers below take done == nil to mean "no column latched
// yet" and run branch-free k-wide inner loops that auto-vectorize — the
// steady state until the first column converges. The branchy paths run
// only after that, and perform the identical arithmetic on the columns
// still active. The solvers pass nil while every column is live (see
// latchMask).

// latchMask returns the done slice to hand the panel helpers: nil while
// every column is still active (selects the branch-free fast paths).
func latchMask(done []bool, active, k int) []bool {
	if active == k {
		return nil
	}
	return done
}

// colInvScale normalizes every non-latched panel column by its norm in
// the exact order the scalar path does: the scalar computes 1/norm once
// and multiplies every element, so the batched path precomputes the
// per-column inverse and multiplies along rows. Zero-norm columns are
// left untouched (multiplying by 1 is exact).
func colInvScale(norm, panel []float64, k int, done []bool, inv []float64) {
	for c := 0; c < k; c++ {
		inv[c] = 1
		if (done == nil || !done[c]) && norm[c] > 0 {
			inv[c] = 1 / norm[c]
		}
	}
	if done == nil {
		for i := 0; i+k <= len(panel); i += k {
			row := panel[i : i+k]
			for c := range row {
				row[c] *= inv[c]
			}
		}
		return
	}
	for i := 0; i+k <= len(panel); i += k {
		row := panel[i : i+k]
		for c := range row {
			if done[c] {
				continue
			}
			row[c] *= inv[c]
		}
	}
}

// colBidiagStep computes dst[i,c] = tmp[i,c] − coef[c]·dst[i,c] over the
// panel, skipping latched columns (the bidiagonalization continuation
// and the LSMR h̄ / h updates share this form).
func colBidiagStep(dst, tmp, coef []float64, done []bool, k int) {
	if done == nil {
		for i := 0; i+k <= len(dst); i += k {
			dr := dst[i : i+k]
			tr := tmp[i : i+k]
			for c, tv := range tr {
				dr[c] = tv - coef[c]*dr[c]
			}
		}
		return
	}
	for i := 0; i+k <= len(dst); i += k {
		dr := dst[i : i+k]
		tr := tmp[i : i+k]
		for c := range dr {
			if done[c] {
				continue
			}
			dr[c] = tr[c] - coef[c]*dr[c]
		}
	}
}

// colAxpyLatch computes y[i,c] += coef[c]·x[i,c], skipping latched
// columns (so frozen solutions stay bit-identical, −0.0 included).
func colAxpyLatch(coef, x, y []float64, done []bool, k int) {
	if done == nil {
		colAxpy(coef, x, y, k)
		return
	}
	for i := 0; i+k <= len(x); i += k {
		xr := x[i : i+k]
		yr := y[i : i+k]
		for c := range xr {
			if done[c] {
				continue
			}
			yr[c] += coef[c] * xr[c]
		}
	}
}

// colNorm2 computes the Euclidean norm of every non-latched panel column
// with exactly vec.Norm2's arithmetic — the max-|·| overflow guard, then
// the scaled sum of squares in row order — so batched columns norm
// bit-identically to extracted ones. out doubles as the max-|·| (and
// divisor) buffer; sum is scratch for the per-column squared sums.
func colNorm2(a []float64, k int, done []bool, out, sum []float64) {
	for c := 0; c < k; c++ {
		if done == nil || !done[c] {
			out[c] = 0
			sum[c] = 0
		}
	}
	if done == nil {
		for i := 0; i+k <= len(a); i += k {
			row := a[i : i+k]
			for c, v := range row {
				if av := math.Abs(v); av > out[c] {
					out[c] = av
				}
			}
		}
		// A zero max means an all-zero column: dividing by 1 keeps the
		// sum at zero and the final product 1·√0 = 0, matching Norm2.
		for c := 0; c < k; c++ {
			if out[c] == 0 {
				out[c] = 1
			}
		}
		for i := 0; i+k <= len(a); i += k {
			row := a[i : i+k]
			for c, v := range row {
				r := v / out[c]
				sum[c] += r * r
			}
		}
		for c := 0; c < k; c++ {
			out[c] *= math.Sqrt(sum[c])
		}
		return
	}
	for i := 0; i+k <= len(a); i += k {
		row := a[i : i+k]
		for c, v := range row {
			if done[c] {
				continue
			}
			if av := math.Abs(v); av > out[c] {
				out[c] = av
			}
		}
	}
	for c := 0; c < k; c++ {
		if done[c] || out[c] == 0 {
			continue
		}
		maxAbs := out[c]
		var s float64
		for i := c; i < len(a); i += k {
			r := a[i] / maxAbs
			s += r * r
		}
		out[c] = maxAbs * math.Sqrt(s)
	}
}

// NNLSMulti solves min_{x_c≥0} ‖A·x_c − y_c‖₂ for the k right-hand
// sides packed in the rows×k row-major panel y by FISTA projected
// gradient with a shared step 1/L (L is a property of A alone), sharing
// each iteration's matrix applications across columns via
// MatMat/TMatMat. Weights, if non-nil, scale each measurement row as in
// NNLS. opts.X0, when non-nil, is a cols×k row-major panel whose
// columns (clamped non-negative, as in NNLS) seed the iteration;
// MaxIter, Tol, TolFloor (length k when set) and Work behave as in
// NNLS, applied per column with per-column convergence latches and
// per-column momentum restarts. opts.Damp is ignored.
func NNLSMulti(a mat.Matrix, y []float64, k int, weights []float64, opts Options) MultiResult {
	ws := opts.Work
	if k < 1 {
		panic("solver: NNLSMulti needs k >= 1")
	}
	if len(opts.TolFloor) != 0 && len(opts.TolFloor) != k {
		panic("solver: NNLSMulti TolFloor length mismatch")
	}
	if weights != nil {
		a = mat.RowScaled(weights, a)
		wy := ws.Get(len(y))
		for i := 0; i+k <= len(y); i += k {
			w := weights[i/k]
			yr := y[i : i+k]
			wr := wy[i : i+k]
			for c, v := range yr {
				wr[c] = w * v
			}
		}
		defer ws.Put(wy)
		y = wy
	}
	rows, cols := a.Dims()
	if len(y) != rows*k {
		panic("solver: NNLSMulti rhs panel length mismatch")
	}
	x := make([]float64, cols*k)
	res := MultiResult{X: x, K: k}
	if opts.X0 != nil {
		if len(opts.X0) != cols*k {
			panic("solver: NNLSMulti X0 panel length mismatch")
		}
		copy(x, opts.X0)
		vec.ClampNonNeg(x)
	}
	lip := PowerIterLW(a, 30, ws)
	if lip == 0 {
		// Zero operator: return the zero panel exactly as scalar NNLS
		// does, X0 or not.
		for i := range x {
			x[i] = 0
		}
		res.Converged = true
		return res
	}
	step := 1 / lip
	z := ws.GetZero(cols * k) // momentum panel; starts at X (zero or clamped X0)
	copy(z, x)
	xPrev := ws.Get(cols * k)
	grad := ws.Get(cols * k)
	resid := ws.Get(rows * k)
	target := ws.Get(k)
	diff := ws.Get(k)
	up := ws.Get(k)
	t := ws.Get(k)
	mom := ws.Get(k)
	defer func() {
		ws.Put(z)
		ws.Put(xPrev)
		ws.Put(grad)
		ws.Put(resid)
		ws.Put(target)
		ws.Put(diff)
		ws.Put(up)
		ws.Put(t)
		ws.Put(mom)
	}()
	for c := range t {
		t[c] = 1
	}
	done := make([]bool, k)
	active := k
	maxIter := opts.maxIter(cols)
	tol := opts.tol()
	for it := 0; it < maxIter && active > 0; it++ {
		lat := latchMask(done, active, k)
		// grad_c = Aᵀ(A·z_c − y_c)
		mat.MatMat(a, resid, z, k)
		colSub(resid, y, lat, k)
		mat.TMatMat(a, grad, resid, k)
		if it == 0 {
			colNorm2(grad, k, lat, target, diff)
			for c := 0; c < k; c++ {
				if target[c] == 0 { // zero gradient: current x_c (zero or X0) is optimal
					done[c] = true
					active--
					continue
				}
				target[c] *= tol
				if len(opts.TolFloor) > 0 && opts.TolFloor[c] > target[c] {
					target[c] = opts.TolFloor[c]
				}
			}
			if active == 0 {
				break
			}
			lat = latchMask(done, active, k)
		}
		// Projected gradient step from the momentum iterate, then the
		// per-column restart test and momentum (see NNLS).
		colProjStep(x, xPrev, z, grad, step, up, lat, k)
		for c := 0; c < k; c++ {
			if done[c] {
				continue
			}
			if up[c] > 0 {
				t[c] = 1
			}
			tNext := (1 + math.Sqrt(1+4*t[c]*t[c])) / 2
			mom[c] = (t[c] - 1) / tNext
			t[c] = tNext
		}
		colMomentum(z, x, xPrev, mom, diff, lat, k)
		res.Iterations = it + 1
		// Converged when the projected step is tiny relative to the
		// column's target (the scalar NNLS rule, per column).
		for c := 0; c < k; c++ {
			if done[c] {
				continue
			}
			if math.Sqrt(diff[c]) <= step*target[c] {
				done[c] = true
				active--
			}
		}
	}
	res.Converged = active == 0
	return res
}

// colSub computes dst[i,c] -= y[i,c] over the panel (the NNLS residual
// step), skipping latched columns.
func colSub(dst, y []float64, done []bool, k int) {
	if done == nil {
		for i := 0; i+k <= len(dst); i += k {
			dr := dst[i : i+k]
			yr := y[i : i+k]
			for c, v := range yr {
				dr[c] -= v
			}
		}
		return
	}
	for i := 0; i+k <= len(dst); i += k {
		dr := dst[i : i+k]
		yr := y[i : i+k]
		for c := range dr {
			if done[c] {
				continue
			}
			dr[c] -= yr[c]
		}
	}
}

// colProjStep saves x into xPrev, takes the clamped gradient step
// x[i,c] = max(0, z[i,c] − step·grad[i,c]) and accumulates the restart
// test ⟨z_c − x_c, x_c − xPrev_c⟩ into up[c], skipping latched columns.
func colProjStep(x, xPrev, z, grad []float64, step float64, up []float64, done []bool, k int) {
	for c := range up {
		if done == nil || !done[c] {
			up[c] = 0
		}
	}
	for i := 0; i+k <= len(x); i += k {
		xr := x[i : i+k]
		pr := xPrev[i : i+k]
		zr := z[i : i+k]
		gr := grad[i : i+k]
		if done == nil {
			for c := range xr {
				pr[c] = xr[c]
				v := zr[c] - step*gr[c]
				if v < 0 {
					v = 0
				}
				xr[c] = v
				up[c] += (zr[c] - v) * (v - pr[c])
			}
			continue
		}
		for c := range xr {
			if done[c] {
				continue
			}
			pr[c] = xr[c]
			v := zr[c] - step*gr[c]
			if v < 0 {
				v = 0
			}
			xr[c] = v
			up[c] += (zr[c] - v) * (v - pr[c])
		}
	}
}

// colMomentum applies the FISTA momentum update
// z = x + mom[c]·(x − xPrev) and accumulates the per-column squared step
// into diff, skipping latched columns.
func colMomentum(z, x, xPrev, mom, diff []float64, done []bool, k int) {
	for c := range diff {
		if done == nil || !done[c] {
			diff[c] = 0
		}
	}
	for i := 0; i+k <= len(z); i += k {
		zr := z[i : i+k]
		xr := x[i : i+k]
		pr := xPrev[i : i+k]
		if done == nil {
			for c := range zr {
				d := xr[c] - pr[c]
				zr[c] = xr[c] + mom[c]*d
				diff[c] += d * d
			}
			continue
		}
		for c := range zr {
			if done[c] {
				continue
			}
			d := xr[c] - pr[c]
			zr[c] = xr[c] + mom[c]*d
			diff[c] += d * d
		}
	}
}
