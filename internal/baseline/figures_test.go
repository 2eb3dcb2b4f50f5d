package baseline

import (
	"math"
	"testing"

	"sstiming/internal/cells"
	"sstiming/internal/device"
	"sstiming/internal/prechar"
)

// spiceNAND2Delay simulates the transistor-level NAND2 testbench of the
// Figure 2 bench: input 0 falls at 1.2 ns with transition tx, input 1
// falls skew later with transition ty. It returns the gate delay relative
// to the earliest input arrival.
func spiceNAND2Delay(t *testing.T, tx, ty, skew float64) float64 {
	t.Helper()
	tech := device.Default05um()
	cfg := cells.Config{Kind: cells.NAND, N: 2, Tech: tech, LoadInverter: true}
	ax, ay := 1.2e-9, 1.2e-9+skew
	drives := []cells.Drive{cells.Falling(ax, tx), cells.Falling(ay, ty)}
	tr, err := cfg.MeasureResponse(drives, true, cells.SimOptions{TStop: math.Max(ax, ay) + 3.5e-9})
	if err != nil {
		t.Fatal(err)
	}
	return tr.Arrival - math.Min(ax, ay)
}

// TestFigure2VShape asserts Figure 2: the V-shape model of the NAND2
// to-controlling delay tracks the transistor-level simulation across the
// skew sweep of EXPERIMENTS.md (Tx = Ty = 0.5 ns) — within 2% at zero skew
// and beyond the arms, within 10% everywhere (the arms' knee is where the
// piecewise-linear shape is coarsest) — and its minimum sits at zero skew
// (Claim 1).
func TestFigure2VShape(t *testing.T) {
	nand2 := prechar.MustLibrary().MustCell("NAND2")
	const tx, ty = 0.5e-9, 0.5e-9
	anchors := map[float64]bool{0: true, -0.6e-9: true, 0.6e-9: true, -1.0e-9: true, 1.0e-9: true}
	for _, skew := range []float64{-1.0e-9, -0.6e-9, -0.3e-9, -0.15e-9, 0, 0.15e-9, 0.3e-9, 0.6e-9, 1.0e-9} {
		sim := spiceNAND2Delay(t, tx, ty, skew)
		mod := nand2.DelayCtrl2(0, 1, tx, ty, skew, 0)
		tol := 0.10
		if anchors[skew] {
			tol = 0.02
		}
		if e := math.Abs(mod-sim) / sim; e > tol {
			t.Errorf("skew %.2f ns: model %.4f ns vs simulator %.4f ns, error %.1f%% > %.0f%%",
				skew*1e9, mod*1e9, sim*1e9, 100*e, 100*tol)
		}
	}
	d0 := nand2.DelayCtrl2(0, 1, tx, ty, 0, 0)
	for ps := -1000; ps <= 1000; ps++ {
		if d := nand2.DelayCtrl2(0, 1, tx, ty, float64(ps)*1e-12, 0); d < d0 {
			t.Fatalf("model delay %.6g ns at skew %d ps is below its zero-skew value %.6g ns", d*1e9, ps, d0*1e9)
		}
	}
}

// TestFigure5Trends asserts Figure 5's trends on NAND2, as EXPERIMENTS.md
// records them: the pin-0 delay is bi-tonic in the input transition time
// (rising to an interior peak at 2.23 ± 0.05 ns, then falling to 3 ns); the
// output transition time rises strictly over 0.1–3 ns, from 0.153 to
// 0.68 ns within 2%; at Tx = Ty = 0.5 ns the to-controlling delay is
// smallest at zero skew and does not fall moving away from it on either
// side; and the to-controlling transition time is V-shaped: it does not
// rise towards its minimum and does not fall past it, and both ±0.6 ns arms
// sit at least 10% above it. Sweeps step 1 ps in skew and 10 ps in T.
func TestFigure5Trends(t *testing.T) {
	nand2 := prechar.MustLibrary().MustCell("NAND2")
	pin := nand2.CtrlPins[0]

	peak, ok := pin.Delay.PeakT()
	if !ok || math.Abs(peak-2.23e-9) > 0.05e-9 {
		t.Fatalf("pin-0 delay peak = %.3f ns (bi-tonic %t), want an interior peak at 2.23 ± 0.05 ns", peak*1e9, ok)
	}
	within := func(name string, got, want float64) {
		if e := math.Abs(got-want) / want; e > 0.02 {
			t.Errorf("%s = %.4f ns, want %.3f ns within 2%% (off by %.1f%%)", name, got*1e9, want*1e9, 100*e)
		}
	}
	within("output transition at T = 0.1 ns", pin.TransAt(0.1e-9, 0), 0.153e-9)
	within("output transition at T = 3 ns", pin.TransAt(3e-9, 0), 0.68e-9)
	for ns := 11; ns <= 300; ns++ {
		lo, hi := float64(ns-1)*1e-11, float64(ns)*1e-11
		if tl, th := pin.TransAt(lo, 0), pin.TransAt(hi, 0); th <= tl {
			t.Fatalf("output transition falls from %.6f ns at T = %.2f ns to %.6f ns at %.2f ns", tl*1e9, lo*1e9, th*1e9, hi*1e9)
		}
		dl, dh := pin.DelayAt(lo, 0), pin.DelayAt(hi, 0)
		if hi <= peak && dh <= dl || lo >= peak && dh >= dl {
			t.Fatalf("delay %.6f ns at T = %.2f ns, %.6f ns at %.2f ns: not bi-tonic about the %.3f ns peak",
				dl*1e9, lo*1e9, dh*1e9, hi*1e9, peak*1e9)
		}
	}

	const tx, ty = 0.5e-9, 0.5e-9
	delay := func(ps int) float64 { return nand2.DelayCtrl2(0, 1, tx, ty, float64(ps)*1e-12, 0) }
	trans := func(ps int) float64 { return nand2.TransCtrl2(0, 1, tx, ty, float64(ps)*1e-12, 0) }
	if d0 := delay(0); delay(-300) <= d0 || delay(300) <= d0 {
		t.Errorf("delay at zero skew %.6f ns is not below both ±0.3 ns arms (%.6f, %.6f ns)", d0*1e9, delay(-300)*1e9, delay(300)*1e9)
	}
	argmin := -1000
	for ps := -1000; ps <= 1000; ps++ {
		if trans(ps) < trans(argmin) {
			argmin = ps
		}
	}
	for ps := 1; ps <= 1000; ps++ {
		if delay(ps) < delay(ps-1) || delay(-ps) < delay(-ps+1) {
			t.Fatalf("delay falls moving away from zero skew at ±%d ps", ps)
		}
	}
	for ps := -999; ps <= 1000; ps++ {
		if ps <= argmin && trans(ps) > trans(ps-1) || ps > argmin && trans(ps) < trans(ps-1) {
			t.Fatalf("transition time at skew %d ps breaks the V about its minimum at %d ps", ps, argmin)
		}
	}
	if m := trans(argmin); trans(-600) < 1.1*m || trans(600) < 1.1*m {
		t.Errorf("transition arms %.4f / %.4f ns are not 10%% above the %.4f ns minimum", trans(-600)*1e9, trans(600)*1e9, m*1e9)
	}
}

// TestFigure9CornerRule asserts Figure 9's worst-case corner rule on the
// bi-tonic NAND2 pin-0 delay curve: MaxOver picks the right endpoint of a
// range left of the peak, the left endpoint of a range right of it, and the
// interior peak of a range that straddles it — and no point of the range
// exceeds the value it reports.
func TestFigure9CornerRule(t *testing.T) {
	q := prechar.MustLibrary().MustCell("NAND2").CtrlPins[0].Delay
	peak, ok := q.PeakT()
	if !ok || peak < 2.0e-9 || peak > 2.5e-9 {
		t.Fatalf("NAND2 pin-0 delay peak = %.3f ns (bi-tonic %t), want an interior peak near 2.23 ns", peak*1e9, ok)
	}
	for _, r := range []struct {
		name   string
		lo, hi float64
		want   float64
	}{
		{"left of peak", peak - 1.2e-9, peak - 0.4e-9, peak - 0.4e-9},
		{"right of peak", peak + 0.4e-9, peak + 1.2e-9, peak + 0.4e-9},
		{"straddles peak", peak - 0.4e-9, peak + 0.4e-9, peak},
	} {
		arg, val := q.MaxOver(r.lo, r.hi)
		if arg != r.want {
			t.Errorf("%s [%.3f, %.3f] ns: argmax %.4f ns, want %.4f ns", r.name, r.lo*1e9, r.hi*1e9, arg*1e9, r.want*1e9)
		}
		for i := 0; i <= 100; i++ {
			tt := r.lo + (r.hi-r.lo)*float64(i)/100
			if v := q.Eval(tt); v > val {
				t.Errorf("%s: delay %.6g ns at T = %.4f ns exceeds MaxOver's %.6g ns", r.name, v*1e9, tt*1e9, val*1e9)
			}
		}
	}
}

// TestFigure11VaryTy asserts Figure 11 (NAND2, zero skew, Tx = 0.5 ns,
// sweeping Ty): the proposed model stays within 3% of the transistor-level
// simulation at every Ty; the Nabavi-style baseline, which averages the two
// transition times, is off by at least 10% at the sweep's ends and matches
// the proposed model where Ty = Tx.
func TestFigure11VaryTy(t *testing.T) {
	nand2 := prechar.MustLibrary().MustCell("NAND2")
	const tx = 0.5e-9
	for _, ty := range []float64{0.15e-9, 0.3e-9, 0.5e-9, 0.8e-9, 1.2e-9} {
		sim := spiceNAND2Delay(t, tx, ty, 0)
		prop := (Proposed{}).CtrlDelay2(nand2, 0, 1, tx, ty, 0)
		nab := (Nabavi{}).CtrlDelay2(nand2, 0, 1, tx, ty, 0)
		if e := math.Abs(prop-sim) / sim; e > 0.03 {
			t.Errorf("Ty %.2f ns: proposed %.4f ns vs simulator %.4f ns, error %.1f%% > 3%%", ty*1e9, prop*1e9, sim*1e9, 100*e)
		}
		switch ty {
		case 0.15e-9, 1.2e-9:
			if e := math.Abs(nab-sim) / sim; e < 0.10 {
				t.Errorf("Ty %.2f ns: Nabavi-style %.4f ns is within %.1f%% of the simulator's %.4f ns, want >= 10%%", ty*1e9, nab*1e9, 100*e, sim*1e9)
			}
		case tx:
			if math.Abs(nab-prop) > 1e-6*prop {
				t.Errorf("Ty = Tx: Nabavi-style %.6f ns, proposed %.6f ns; want equal", nab*1e9, prop*1e9)
			}
		}
	}
}

// TestFigure12VarySkew asserts Figure 12 (NAND2, Tx = Ty = 0.5 ns, sweeping
// the skew): the proposed model stays within 6% of the transistor-level
// simulation at every skew; the Jun-style merged arrival grows with |skew|
// to at least 3x the simulator at +1.2 ns; the Nabavi-style baseline is
// flat, at its zero-skew value, wherever the transitions overlap.
func TestFigure12VarySkew(t *testing.T) {
	nand2 := prechar.MustLibrary().MustCell("NAND2")
	const tx, ty = 0.5e-9, 0.5e-9
	nab0 := (Nabavi{}).CtrlDelay2(nand2, 0, 1, tx, ty, 0)
	for _, skew := range []float64{-0.8e-9, -0.2e-9, 0, 0.4e-9, 1.2e-9} {
		sim := spiceNAND2Delay(t, tx, ty, skew)
		prop := (Proposed{}).CtrlDelay2(nand2, 0, 1, tx, ty, skew)
		if e := math.Abs(prop-sim) / sim; e > 0.06 {
			t.Errorf("skew %.2f ns: proposed %.4f ns vs simulator %.4f ns, error %.1f%% > 6%%", skew*1e9, prop*1e9, sim*1e9, 100*e)
		}
		switch skew {
		case 1.2e-9:
			if jun := (Jun{}).CtrlDelay2(nand2, 0, 1, tx, ty, skew); jun < 3*sim {
				t.Errorf("skew +1.2 ns: Jun-style %.4f ns is below 3x the simulator's %.4f ns", jun*1e9, sim*1e9)
			}
		case -0.2e-9, 0.4e-9:
			if nab := (Nabavi{}).CtrlDelay2(nand2, 0, 1, tx, ty, skew); nab != nab0 {
				t.Errorf("skew %.2f ns: Nabavi-style %.6f ns, want its zero-skew %.6f ns", skew*1e9, nab*1e9, nab0*1e9)
			}
		}
	}
}
