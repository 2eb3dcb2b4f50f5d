// Ablation benchmarks for the design choices called out in DESIGN.md:
//
//   - D0 basis: the paper's exact 4-term product form versus this
//     reproduction's extended 8-term basis;
//   - V-shape model versus a dense lookup table (accuracy and the cost of
//     worst-case corner identification);
//   - characterisation grid density versus model accuracy;
//   - bi-tonic corner handling (interior peak) versus endpoints-only;
//   - ITR-pruned ATPG (the paper's §7) on the persistent incremental timing
//     graph versus from-scratch refinement per decision step.
package sstiming_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"sstiming/internal/atpg"
	"sstiming/internal/benchgen"
	"sstiming/internal/cells"
	"sstiming/internal/charlib"
	"sstiming/internal/core"
	"sstiming/internal/prechar"
	"sstiming/internal/spice"
)

var ablD0Once, ablTableOnce, ablGridOnce, ablBitonicOnce sync.Once

// characterizeNAND2 characterises only NAND2 with the given options applied.
func characterizeNAND2(tb testing.TB, mutate func(*charlib.Options)) *core.CellModel {
	tb.Helper()
	opts := charlib.Options{
		Tech:  benchTech,
		Cells: []cells.Config{{Kind: cells.NAND, N: 2, Tech: benchTech, LoadInverter: true}},
	}
	if mutate != nil {
		mutate(&opts)
	}
	lib, err := charlib.Characterize(opts)
	if err != nil {
		tb.Fatal(err)
	}
	return lib.MustCell("NAND2")
}

// sampleZeroSkewError measures the RMS and max relative error of the
// model's zero-skew delay against fresh simulations at off-grid points.
func sampleZeroSkewError(tb testing.TB, m *core.CellModel) (rms, maxRel float64) {
	tb.Helper()
	rng := rand.New(rand.NewSource(5))
	var sum float64
	n := 10
	for i := 0; i < n; i++ {
		tx := (0.15 + 1.2*rng.Float64()) * 1e-9
		ty := (0.15 + 1.2*rng.Float64()) * 1e-9
		sim := spiceNAND2Delay(tb, tx, ty, 0)
		mod := m.DelayCtrl2(0, 1, tx, ty, 0, 0)
		rel := math.Abs(mod-sim) / sim
		sum += rel * rel
		if rel > maxRel {
			maxRel = rel
		}
	}
	return math.Sqrt(sum / float64(n)), maxRel
}

// BenchmarkAblationD0Basis compares the paper's exact four-term D0R formula
// with the extended basis used by default in this reproduction.
func BenchmarkAblationD0Basis(b *testing.B) {
	ablD0Once.Do(func() {
		paper := characterizeNAND2(b, func(o *charlib.Options) { o.PaperExactD0 = true })
		extended := characterizeNAND2(b, nil)
		pRMS, pMax := sampleZeroSkewError(b, paper)
		eRMS, eMax := sampleZeroSkewError(b, extended)
		fmt.Printf("\nAblation: D0R basis (zero-skew delay vs simulator, off-grid)\n")
		fmt.Printf("  %-22s rms %5.1f%%  max %5.1f%%\n", "paper 4-term form", pRMS*100, pMax*100)
		fmt.Printf("  %-22s rms %5.1f%%  max %5.1f%%\n", "extended 8-term form", eRMS*100, eMax*100)
	})

	m := prechar.MustLibrary().MustCell("NAND2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Pair(0, 1).D0.Eval(0.4e-9, 0.7e-9)
	}
}

// tableModel is a dense 3-D lookup table (Tx, Ty, skew) built from direct
// simulations — the table-lookup alternative the paper argues against for
// STA, because extreme-corner identification requires scanning the table.
type tableModel struct {
	ts    []float64 // transition-time axis (shared for Tx and Ty)
	skews []float64
	// delay[i][j][k] for (tx=ts[i], ty=ts[j], skew=skews[k])
	delay [][][]float64
}

func buildTable(tb testing.TB, ts, skews []float64) *tableModel {
	tb.Helper()
	tm := &tableModel{ts: ts, skews: skews}
	tm.delay = make([][][]float64, len(ts))
	for i, tx := range ts {
		tm.delay[i] = make([][]float64, len(ts))
		for j, ty := range ts {
			tm.delay[i][j] = make([]float64, len(skews))
			for k, s := range skews {
				tm.delay[i][j][k] = spiceNAND2Delay(tb, tx, ty, s)
			}
		}
	}
	return tm
}

// interp1 finds the bracketing index and fraction on an ascending axis.
func interp1(axis []float64, v float64) (int, float64) {
	if v <= axis[0] {
		return 0, 0
	}
	last := len(axis) - 1
	if v >= axis[last] {
		return last - 1, 1
	}
	for i := 1; i <= last; i++ {
		if v <= axis[i] {
			return i - 1, (v - axis[i-1]) / (axis[i] - axis[i-1])
		}
	}
	return last - 1, 1
}

// Eval trilinearly interpolates the table.
func (tm *tableModel) Eval(tx, ty, skew float64) float64 {
	i, fi := interp1(tm.ts, tx)
	j, fj := interp1(tm.ts, ty)
	k, fk := interp1(tm.skews, skew)
	var v float64
	for di := 0; di <= 1; di++ {
		for dj := 0; dj <= 1; dj++ {
			for dk := 0; dk <= 1; dk++ {
				w := lerpw(fi, di) * lerpw(fj, dj) * lerpw(fk, dk)
				v += w * tm.delay[i+di][j+dj][k+dk]
			}
		}
	}
	return v
}

func lerpw(f float64, d int) float64 {
	if d == 1 {
		return f
	}
	return 1 - f
}

// BenchmarkAblationVShapeVsTable compares the V-shape analytic model with a
// dense lookup table of the same simulation budget: accuracy is comparable,
// but identifying the extreme-delay corner over a (Tx, Ty, skew) range is a
// constant-time analytic operation for the model versus a scan for the
// table.
func BenchmarkAblationVShapeVsTable(b *testing.B) {
	m := prechar.MustLibrary().MustCell("NAND2")
	ts := []float64{0.1e-9, 0.4e-9, 0.8e-9, 1.5e-9}
	skews := []float64{-1.0e-9, -0.5e-9, -0.2e-9, 0, 0.2e-9, 0.5e-9, 1.0e-9}
	var tbl *tableModel

	ablTableOnce.Do(func() {
		tbl = buildTable(b, ts, skews)
		rng := rand.New(rand.NewSource(9))
		var vErr, tErr, vMax, tMax float64
		n := 12
		for i := 0; i < n; i++ {
			tx := (0.15 + 1.1*rng.Float64()) * 1e-9
			ty := (0.15 + 1.1*rng.Float64()) * 1e-9
			s := (rng.Float64()*1.6 - 0.8) * 1e-9
			sim := spiceNAND2Delay(b, tx, ty, s)
			ve := math.Abs(m.DelayCtrl2(0, 1, tx, ty, s, 0)-sim) / sim
			te := math.Abs(tbl.Eval(tx, ty, s)-sim) / sim
			vErr += ve * ve
			tErr += te * te
			vMax = math.Max(vMax, ve)
			tMax = math.Max(tMax, te)
		}
		fmt.Printf("\nAblation: V-shape model vs dense lookup table (NAND2 delay)\n")
		fmt.Printf("  %-18s rms %5.1f%%  max %5.1f%%\n", "V-shape (paper)", math.Sqrt(vErr/float64(n))*100, vMax*100)
		fmt.Printf("  %-18s rms %5.1f%%  max %5.1f%% (%d sims to build)\n", "lookup table",
			math.Sqrt(tErr/float64(n))*100, tMax*100, len(ts)*len(ts)*len(skews))
		fmt.Printf("  corner identification: analytic (V-shape anchors + quad extrema) vs table scan\n")
	})
	if tbl == nil {
		tbl = buildTable(b, ts, skews)
	}

	b.Run("model-eval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = m.DelayCtrl2(0, 1, 0.45e-9, 0.75e-9, 0.1e-9, 0)
		}
	})
	b.Run("table-eval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = tbl.Eval(0.45e-9, 0.75e-9, 0.1e-9)
		}
	})
	// Corner identification: min delay over a (Tx,Ty,skew) box.
	b.Run("model-corner", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Analytic: minimum is at skew 0 (Claim 1) with the
			// endpoint transition times.
			min := math.Inf(1)
			for _, tx := range []float64{0.3e-9, 1.0e-9} {
				for _, ty := range []float64{0.3e-9, 1.0e-9} {
					if d := m.DelayCtrl2(0, 1, tx, ty, 0, 0); d < min {
						min = d
					}
				}
			}
			_ = min
		}
	})
	b.Run("table-corner", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Table: scan a dense sampling of the box.
			min := math.Inf(1)
			for tx := 0.3e-9; tx <= 1.0e-9; tx += 0.05e-9 {
				for ty := 0.3e-9; ty <= 1.0e-9; ty += 0.05e-9 {
					for s := -0.3e-9; s <= 0.3e-9; s += 0.05e-9 {
						if d := tbl.Eval(tx, ty, s); d < min {
							min = d
						}
					}
				}
			}
			_ = min
		}
	})
}

// BenchmarkAblationGridDensity measures model accuracy as a function of the
// characterisation grid size.
func BenchmarkAblationGridDensity(b *testing.B) {
	ablGridOnce.Do(func() {
		grids := map[string][]float64{
			"3-point": {0.15e-9, 0.6e-9, 1.4e-9},
			"4-point": {0.15e-9, 0.4e-9, 0.8e-9, 1.3e-9},
			"5-point": {0.1e-9, 0.25e-9, 0.5e-9, 0.9e-9, 1.5e-9},
		}
		fmt.Printf("\nAblation: characterisation grid density (NAND2, off-grid zero-skew delay)\n")
		for _, name := range []string{"3-point", "4-point", "5-point"} {
			m := characterizeNAND2(b, func(o *charlib.Options) { o.Grid = grids[name] })
			rms, maxRel := sampleZeroSkewError(b, m)
			fmt.Printf("  %-8s rms %5.1f%%  max %5.1f%%\n", name, rms*100, maxRel*100)
		}
	})

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = prechar.MustLibrary().MustCell("NAND2").DelayCtrl2(0, 1, 0.5e-9, 0.5e-9, 0, 0)
	}
}

// BenchmarkAblationBitonicCorners quantifies the error of endpoints-only
// worst-case corner identification versus the peak-aware MaxOver on
// bi-tonic delay curves (the paper's Figure 9 case c).
func BenchmarkAblationBitonicCorners(b *testing.B) {
	q := prechar.MustLibrary().MustCell("NAND2").CtrlPins[0].Delay

	ablBitonicOnce.Do(func() {
		peak, ok := q.PeakT()
		if !ok {
			fmt.Printf("\nAblation: fitted delay curve is monotone in the library range; using synthetic bi-tonic curve\n")
			q = core.Quad{K: [3]float64{-0.08, 0.35, 0.05}}
			peak, _ = q.PeakT()
		}
		lo, hi := peak-0.5e-9, peak+0.5e-9
		if lo < 0.05e-9 {
			lo = 0.05e-9
		}
		_, full := q.MaxOver(lo, hi)
		endp := math.Max(q.Eval(lo), q.Eval(hi))
		fmt.Printf("\nAblation: bi-tonic corner handling over [%.2f, %.2f] ns (peak %.2f ns)\n",
			lo*1e9, hi*1e9, peak*1e9)
		fmt.Printf("  peak-aware max delay    %.4f ns\n", full*1e9)
		fmt.Printf("  endpoints-only estimate %.4f ns (underestimates by %.1f%%)\n",
			endp*1e9, 100*(1-endp/full))
	})

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = q.MaxOver(0.2e-9, 3e-9)
	}
}

var ablIntOnce sync.Once

// BenchmarkAblationIntegrationMethod compares the simulator's integration
// schemes on the characterisation workload: the NAND2 zero-skew delay
// measured at decreasing time steps. The trapezoidal scheme converges to
// the fine-step answer with ~4x coarser steps than backward Euler —
// relevant because characterisation cost scales inversely with the step.
func BenchmarkAblationIntegrationMethod(b *testing.B) {
	ablIntOnce.Do(func() {
		cfg := cells.Config{Kind: cells.NAND, N: 2, Tech: benchTech, LoadInverter: true}
		const T = 0.5e-9
		measure := func(method spice.Method, h float64) float64 {
			ckt, err := cfg.Build([]cells.Drive{
				cells.Falling(1.2e-9, T), cells.Falling(1.2e-9, T),
			})
			if err != nil {
				b.Fatal(err)
			}
			res, err := ckt.Transient(spice.TransientOpts{
				TStop: 4.5e-9, TStep: h, Method: method, Record: []string{"out"},
			})
			if err != nil {
				b.Fatal(err)
			}
			tr, err := res.Wave("out").MeasureTransition(benchTech.Vdd, true)
			if err != nil {
				b.Fatal(err)
			}
			return tr.Arrival - 1.2e-9
		}

		ref := measure(spice.Trapezoidal, 0.25e-12)
		fmt.Printf("\nAblation: integration method (NAND2 zero-skew delay; reference %.4f ns)\n", ref*1e9)
		fmt.Printf("  %8s %18s %18s\n", "h(ps)", "backward-euler err", "trapezoidal err")
		for _, h := range []float64{8e-12, 4e-12, 2e-12, 1e-12} {
			be := measure(spice.BackwardEuler, h)
			tr := measure(spice.Trapezoidal, h)
			fmt.Printf("  %8.1f %15.2f ps %15.2f ps\n",
				h*1e12, (be-ref)*1e12, (tr-ref)*1e12)
		}
	})

	cfg := cells.Config{Kind: cells.NAND, N: 2, Tech: benchTech, LoadInverter: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ckt, err := cfg.Build([]cells.Drive{
			cells.Falling(1.2e-9, 0.5e-9), cells.Falling(1.2e-9, 0.5e-9),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ckt.Transient(spice.TransientOpts{
			TStop: 4.5e-9, TStep: 2e-12, Record: []string{"out"},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationITRIncremental runs the §7 ITR-pruned crosstalk ATPG
// campaign on the c432 stand-in (12 random faults, fixed seed, one worker)
// two ways: on the persistent incremental timing graph, and with a
// from-scratch itr.Refine per decision step (ITRFullRecompute). Both see
// byte-identical windows, so each must reproduce the reference campaign's
// outcome counts exactly.
func BenchmarkAblationITRIncremental(b *testing.B) {
	lib := prechar.MustLibrary()
	c, err := benchgen.Load("c432")
	if err != nil {
		b.Fatal(err)
	}
	faults := atpg.RandomFaults(c, 12, 7, 1e-9)
	campaign := func(b *testing.B, fullRecompute bool) atpg.CampaignStats {
		s, err := atpg.RunCampaign(c, faults, atpg.Options{
			Lib:              lib,
			UseITR:           true,
			ITRFullRecompute: fullRecompute,
			Jobs:             1,
		})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	want := campaign(b, true)
	for _, v := range []struct {
		name          string
		fullRecompute bool
	}{{"incremental", false}, {"full-recompute", true}} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := campaign(b, v.fullRecompute); got != want {
					b.Fatalf("campaign stats %+v, reference %+v", got, want)
				}
			}
		})
	}
}
