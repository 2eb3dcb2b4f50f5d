// Package fit provides dense linear least-squares fitting used by the
// characterisation harness to determine the empirical K-coefficients of the
// paper's delay formulas (Section 3.4).
//
// All of the paper's formula families are linear in their unknowns once the
// right basis is chosen:
//
//   - DR(T)        = K10*T^2 + K11*T + K12                     (quadratic)
//   - D0R(Tx,Ty)   = (K20*Tx^(1/3)+K21)(K22*Ty^(1/3)+K23)+K24  (expands to
//     a*x*y + b*x + c*y + d with x = Tx^(1/3), y = Ty^(1/3))
//   - SR(Tx,Ty)    = full quadratic in (Tx, Ty)                (6 terms)
//
// so ordinary least squares over a characterisation grid recovers them. The
// Fit functions return the fitted core surfaces, so the order of each basis's
// coefficients is known here only.
package fit

import (
	"errors"
	"fmt"
	"math"

	"sstiming/internal/core"
)

// ErrSingular is returned when the normal equations are (numerically)
// singular, usually because the sample set does not span the basis.
var ErrSingular = errors.New("fit: singular system (insufficient or degenerate samples)")

// LeastSquares solves min_k ||A k - y||_2 for the coefficient vector k,
// where A is given row-wise (one row per sample). It uses Householder QR for
// numerical robustness.
func LeastSquares(rows [][]float64, y []float64) ([]float64, error) {
	m := len(rows)
	if m == 0 {
		return nil, fmt.Errorf("fit: no samples")
	}
	n := len(rows[0])
	if n == 0 {
		return nil, fmt.Errorf("fit: empty basis")
	}
	if m < n {
		return nil, fmt.Errorf("fit: %d samples cannot determine %d coefficients", m, n)
	}
	if len(y) != m {
		return nil, fmt.Errorf("fit: %d rows but %d targets", m, len(y))
	}

	// Copy into a working matrix (m x n) and RHS.
	a := make([]float64, m*n)
	for i, r := range rows {
		if len(r) != n {
			return nil, fmt.Errorf("fit: row %d has %d entries, want %d", i, len(r), n)
		}
		copy(a[i*n:(i+1)*n], r)
	}
	b := make([]float64, m)
	copy(b, y)

	// Householder QR: for each column, form the reflector and apply it to
	// the remaining columns and to b.
	for col := 0; col < n; col++ {
		// Norm of the column below (and including) the diagonal.
		var norm float64
		for i := col; i < m; i++ {
			norm += a[i*n+col] * a[i*n+col]
		}
		norm = math.Sqrt(norm)
		if norm < 1e-300 {
			return nil, ErrSingular
		}
		alpha := -norm
		if a[col*n+col] < 0 {
			alpha = norm
		}
		// v = x - alpha*e1 (stored temporarily).
		v := make([]float64, m-col)
		v[0] = a[col*n+col] - alpha
		for i := col + 1; i < m; i++ {
			v[i-col] = a[i*n+col]
		}
		var vv float64
		for _, t := range v {
			vv += t * t
		}
		if vv < 1e-300 {
			// Column already triangular; nothing to do.
			continue
		}
		// Apply H = I - 2 v v^T / (v^T v) to A[:, col:] and b.
		for c := col; c < n; c++ {
			var dot float64
			for i := col; i < m; i++ {
				dot += v[i-col] * a[i*n+c]
			}
			f := 2 * dot / vv
			for i := col; i < m; i++ {
				a[i*n+c] -= f * v[i-col]
			}
		}
		var dot float64
		for i := col; i < m; i++ {
			dot += v[i-col] * b[i]
		}
		f := 2 * dot / vv
		for i := col; i < m; i++ {
			b[i] -= f * v[i-col]
		}
	}

	// Back substitution on the upper-triangular R (stored in a).
	k := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		diag := a[r*n+r]
		if math.Abs(diag) < 1e-12*float64(n) {
			return nil, ErrSingular
		}
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= a[r*n+c] * k[c]
		}
		k[r] = sum / diag
	}
	return k, nil
}

// Stats summarises the quality of a fit.
type Stats struct {
	RMS    float64 // root mean square residual
	MaxAbs float64 // largest absolute residual
	R2     float64 // coefficient of determination
}

// Residuals computes fit-quality statistics for coefficients k over the
// given samples.
func Residuals(rows [][]float64, y []float64, k []float64) Stats {
	var s Stats
	if len(rows) == 0 {
		return s
	}
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))

	var ssRes, ssTot float64
	for i, r := range rows {
		var pred float64
		for j, c := range r {
			pred += c * k[j]
		}
		res := y[i] - pred
		ssRes += res * res
		ssTot += (y[i] - mean) * (y[i] - mean)
		if a := math.Abs(res); a > s.MaxAbs {
			s.MaxAbs = a
		}
	}
	s.RMS = math.Sqrt(ssRes / float64(len(rows)))
	if ssTot > 0 {
		s.R2 = 1 - ssRes/ssTot
	} else {
		s.R2 = 1
	}
	return s
}

// QuadBasis returns the quadratic single-variable basis row [t^2, t, 1].
func QuadBasis(t float64) []float64 { return []float64{t * t, t, 1} }

// CrossBasisPaper returns the paper's exact D0R basis row
// [x*y, x, y, 1] with x = tx^(1/3), y = ty^(1/3) — the expansion of
// (K20*x+K21)(K22*y+K23)+K24.
func CrossBasisPaper(tx, ty float64) []float64 {
	x := math.Cbrt(tx)
	y := math.Cbrt(ty)
	return []float64{x * y, x, y, 1}
}

// CrossBasis returns the extended D0R basis row used by default in this
// reproduction: the paper's four product-form terms plus quadratic
// correction terms in cube-root space,
// [x*y, x, y, 1, x^2, y^2, x^2*y, x*y^2]. The corrections capture the
// saturation of the zero-skew delay surface in the weaker input that the
// square-law simulator exhibits; zeroing them recovers the paper's exact
// form (see DESIGN.md and the D0-basis ablation bench).
func CrossBasis(tx, ty float64) []float64 {
	x := math.Cbrt(tx)
	y := math.Cbrt(ty)
	return []float64{x * y, x, y, 1, x * x, y * y, x * x * y, x * y * y}
}

// Quad2Basis returns the full two-variable quadratic basis row
// [tx^2, ty^2, tx*ty, tx, ty, 1] used for the SR skew-threshold formula.
func Quad2Basis(tx, ty float64) []float64 {
	return []float64{tx * tx, ty * ty, tx * ty, tx, ty, 1}
}

// FitQuad fits y = a*t^2 + b*t + c and returns it with its fit statistics.
func FitQuad(ts, ys []float64) (core.Quad, Stats, error) {
	rows := make([][]float64, len(ts))
	for i, t := range ts {
		rows[i] = QuadBasis(t)
	}
	k, st, err := solve(rows, ys)
	if err != nil {
		return core.Quad{}, Stats{}, err
	}
	return core.Quad{K: [3]float64{k[0], k[1], k[2]}}, st, nil
}

// FitCross fits the extended D0R form over (tx, ty) samples.
func FitCross(txs, tys, ys []float64) (core.Cross, Stats, error) {
	k, st, err := solve2(txs, tys, ys, CrossBasis)
	if err != nil {
		return core.Cross{}, Stats{}, err
	}
	return core.Cross{
		Kxy: k[0], Kx: k[1], Ky: k[2], K1: k[3],
		Kxx: k[4], Kyy: k[5], Kxxy: k[6], Kxyy: k[7],
	}, st, nil
}

// FitCrossPaper fits the paper's exact 4-term D0R form; the correction
// terms of the returned surface are zero.
func FitCrossPaper(txs, tys, ys []float64) (core.Cross, Stats, error) {
	k, st, err := solve2(txs, tys, ys, CrossBasisPaper)
	if err != nil {
		return core.Cross{}, Stats{}, err
	}
	return core.Cross{Kxy: k[0], Kx: k[1], Ky: k[2], K1: k[3]}, st, nil
}

// FitQuad2 fits the full two-variable quadratic over (tx, ty) samples.
func FitQuad2(txs, tys, ys []float64) (core.Quad2, Stats, error) {
	k, st, err := solve2(txs, tys, ys, Quad2Basis)
	if err != nil {
		return core.Quad2{}, Stats{}, err
	}
	return core.Quad2{Kxx: k[0], Kyy: k[1], Kxy: k[2], Kx: k[3], Ky: k[4], K1: k[5]}, st, nil
}

// solve2 fits the two-variable basis over (tx, ty) samples.
func solve2(txs, tys, ys []float64, basis func(tx, ty float64) []float64) ([]float64, Stats, error) {
	rows := make([][]float64, len(txs))
	for i := range txs {
		rows[i] = basis(txs[i], tys[i])
	}
	return solve(rows, ys)
}

// solve returns the least-squares coefficients and their fit statistics.
func solve(rows [][]float64, ys []float64) ([]float64, Stats, error) {
	k, err := LeastSquares(rows, ys)
	if err != nil {
		return nil, Stats{}, err
	}
	return k, Residuals(rows, ys, k), nil
}
