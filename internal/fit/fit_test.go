package fit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLeastSquaresExactQuadratic(t *testing.T) {
	// y = 2t^2 - 3t + 0.5 must be recovered exactly from >3 samples.
	ts := []float64{0.1, 0.4, 0.7, 1.0, 1.6, 2.2}
	ys := make([]float64, len(ts))
	for i, x := range ts {
		ys[i] = 2*x*x - 3*x + 0.5
	}
	k, st, err := FitQuad(ts, ys)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, -3, 0.5}
	for i := range want {
		if math.Abs(k.K[i]-want[i]) > 1e-9 {
			t.Errorf("K[%d] = %g, want %g", i, k.K[i], want[i])
		}
	}
	if st.RMS > 1e-9 {
		t.Errorf("RMS = %g, want ~0", st.RMS)
	}
	if st.R2 < 0.999999 {
		t.Errorf("R2 = %g, want ~1", st.R2)
	}
}

func TestLeastSquaresOverdeterminedNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var rows [][]float64
	var ys []float64
	for i := 0; i < 200; i++ {
		x := rng.Float64() * 3
		rows = append(rows, QuadBasis(x))
		ys = append(ys, 1.5*x*x+0.2*x+4+0.01*rng.NormFloat64())
	}
	k, err := LeastSquares(rows, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(k[0]-1.5) > 0.05 || math.Abs(k[1]-0.2) > 0.05 || math.Abs(k[2]-4) > 0.05 {
		t.Errorf("noisy fit off: %v", k)
	}
}

func TestCrossBasisRecoversPaperForm(t *testing.T) {
	// Construct data from the paper's factored D0R form and verify the
	// expanded linear fit reproduces it.
	const (
		k20, k21, k22, k23, k24 = 0.8, 0.1, 0.5, 0.3, 0.05
	)
	f := func(tx, ty float64) float64 {
		return (k20*math.Cbrt(tx)+k21)*(k22*math.Cbrt(ty)+k23) + k24
	}
	var txs, tys, ys []float64
	for _, tx := range []float64{0.1, 0.3, 0.6, 1.0, 1.5} {
		for _, ty := range []float64{0.1, 0.3, 0.6, 1.0, 1.5} {
			txs = append(txs, tx)
			tys = append(tys, ty)
			ys = append(ys, f(tx, ty))
		}
	}
	k, st, err := FitCross(txs, tys, ys)
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxAbs > 1e-9 {
		t.Errorf("max residual = %g, want ~0 (form is exactly representable)", st.MaxAbs)
	}
	// Check a prediction at an off-grid point.
	pred := k.Kxy*math.Cbrt(0.45)*math.Cbrt(0.8) + k.Kx*math.Cbrt(0.45) + k.Ky*math.Cbrt(0.8) + k.K1
	if math.Abs(pred-f(0.45, 0.8)) > 1e-9 {
		t.Errorf("off-grid prediction = %g, want %g", pred, f(0.45, 0.8))
	}
}

func TestQuad2Exact(t *testing.T) {
	coef := []float64{0.3, -0.2, 0.7, 1.1, -0.4, 2.0}
	eval := func(tx, ty float64) float64 {
		b := Quad2Basis(tx, ty)
		var s float64
		for i := range b {
			s += b[i] * coef[i]
		}
		return s
	}
	var txs, tys, ys []float64
	for _, tx := range []float64{0.1, 0.5, 0.9, 1.3} {
		for _, ty := range []float64{0.2, 0.6, 1.0, 1.4} {
			txs = append(txs, tx)
			tys = append(tys, ty)
			ys = append(ys, eval(tx, ty))
		}
	}
	k, st, err := FitQuad2(txs, tys, ys)
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxAbs > 1e-9 {
		t.Errorf("max residual = %g, want ~0", st.MaxAbs)
	}
	for i, got := range []float64{k.Kxx, k.Kyy, k.Kxy, k.Kx, k.Ky, k.K1} {
		if math.Abs(got-coef[i]) > 1e-8 {
			t.Errorf("coefficient %d = %g, want %g", i, got, coef[i])
		}
	}
}

func TestErrorPaths(t *testing.T) {
	if _, err := LeastSquares(nil, nil); err == nil {
		t.Error("expected error for no samples")
	}
	if _, err := LeastSquares([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("expected error for underdetermined system")
	}
	if _, err := LeastSquares([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("expected error for ragged rows")
	}
	if _, err := LeastSquares([][]float64{{1}, {2}}, []float64{1}); err == nil {
		t.Error("expected error for mismatched target length")
	}
	// Degenerate: two identical columns.
	rows := [][]float64{{1, 1}, {2, 2}, {3, 3}}
	if _, err := LeastSquares(rows, []float64{1, 2, 3}); err == nil {
		t.Error("expected ErrSingular for rank-deficient system")
	}
}

func TestLeastSquaresInterpolatesExactlyProperty(t *testing.T) {
	// Property: for any quadratic with bounded coefficients, fitting on a
	// fixed sample grid recovers predictions at arbitrary points.
	f := func(a8, b8, c8 int8) bool {
		a := float64(a8) / 16
		b := float64(b8) / 16
		c := float64(c8) / 16
		ts := []float64{0.1, 0.5, 1.1, 1.7, 2.3}
		ys := make([]float64, len(ts))
		for i, x := range ts {
			ys[i] = a*x*x + b*x + c
		}
		k, _, err := FitQuad(ts, ys)
		if err != nil {
			return false
		}
		const x = 0.77
		pred := k.K[0]*x*x + k.K[1]*x + k.K[2]
		return math.Abs(pred-(a*x*x+b*x+c)) < 1e-7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResidualsEmptyAndPerfect(t *testing.T) {
	if s := Residuals(nil, nil, nil); s.RMS != 0 || s.MaxAbs != 0 {
		t.Errorf("empty residuals nonzero: %+v", s)
	}
	// Constant target: ssTot is zero, R2 should report 1 for perfect fit.
	rows := [][]float64{{1}, {1}, {1}}
	y := []float64{2, 2, 2}
	s := Residuals(rows, y, []float64{2})
	if s.R2 != 1 || s.RMS != 0 {
		t.Errorf("perfect constant fit: %+v", s)
	}
}
