package itr

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/logicsim"
	"sstiming/internal/nineval"
	"sstiming/internal/prechar"
	"sstiming/internal/sta"
)

// TestEmptyCubeEqualsSTA checks the paper's statement that "STA is a special
// case of ITR where S_tr = 0 for every line": refining with an empty cube
// must reproduce the STA windows exactly.
func TestEmptyCubeEqualsSTA(t *testing.T) {
	lib := prechar.MustLibrary()
	for _, mode := range []sta.Mode{sta.ModeProposed, sta.ModePinToPin} {
		c := benchgen.C17()
		staRes, err := sta.Analyze(c, sta.Options{Lib: lib, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		itrRes, err := Refine(c, nineval.Cube{}, Options{Lib: lib, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		for net, li := range itrRes.Lines {
			if li.SRise != nineval.SMaybe || li.SFall != nineval.SMaybe {
				t.Errorf("mode %v: %s: states (%v,%v), want (0,0)", mode, net, li.SRise, li.SFall)
			}
			sw := staRes.Lines[net]
			if diffWindow(li.Rise, sw.Rise) > 1e-15 || diffWindow(li.Fall, sw.Fall) > 1e-15 {
				t.Errorf("mode %v: %s: ITR window differs from STA:\n  itr  %+v / %+v\n  sta  %+v / %+v",
					mode, net, li.Rise, li.Fall, sw.Rise, sw.Fall)
			}
		}
	}
}

func diffWindow(a, b sta.Window) float64 {
	return math.Max(math.Max(math.Abs(a.AS-b.AS), math.Abs(a.AL-b.AL)),
		math.Max(math.Abs(a.TS-b.TS), math.Abs(a.TL-b.TL)))
}

// TestRefinementTightensAndStaysSound is the core ITR property (Section 5):
// as values are specified, windows only shrink, and they always contain the
// timing-simulation result of any consistent full assignment.
func TestRefinementTightensAndStaysSound(t *testing.T) {
	lib := prechar.MustLibrary()
	c := benchgen.C17()
	const tol = 2e-12

	staRes, err := sta.Analyze(c, sta.Options{Lib: lib, Mode: sta.ModeProposed})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		v1 := logicsim.RandomVector(c, rng.Intn)
		v2 := logicsim.RandomVector(c, rng.Intn)
		sim, err := logicsim.Simulate(c, v1, v2, logicsim.Options{Lib: lib, Mode: sta.ModeProposed})
		if err != nil {
			t.Fatal(err)
		}

		// Full cube from the vector pair.
		cube := nineval.Cube{}
		for _, pi := range c.PIs {
			cube[pi] = nineval.Value{V1: nineval.Frame(v1[pi]), V2: nineval.Frame(v2[pi])}
		}
		res, err := Refine(c, cube, Options{Lib: lib, Mode: sta.ModeProposed})
		if err != nil {
			t.Fatal(err)
		}

		for _, net := range c.Nets() {
			ev, ok := sim.Event(net)
			if !ok {
				continue
			}
			w, ok := res.Window(net, ev.Rising)
			if !ok {
				t.Fatalf("trial %d: %s switched (%v) but ITR window undefined", trial, net, ev.Rising)
			}
			// Soundness: simulated event inside the refined window.
			if ev.Arrival < w.AS-tol || ev.Arrival > w.AL+tol {
				t.Errorf("trial %d: %s arrival %.4e outside ITR window [%.4e, %.4e]",
					trial, net, ev.Arrival, w.AS, w.AL)
			}
			if ev.Trans < w.TS-tol || ev.Trans > w.TL+tol {
				t.Errorf("trial %d: %s trans %.4e outside ITR window [%.4e, %.4e]",
					trial, net, ev.Trans, w.TS, w.TL)
			}
			// Refinement: the ITR window is inside the STA window.
			sw, _ := staRes.Window(net, ev.Rising)
			if w.AS < sw.AS-tol || w.AL > sw.AL+tol {
				t.Errorf("trial %d: %s ITR arrival window [%.4e,%.4e] not inside STA [%.4e,%.4e]",
					trial, net, w.AS, w.AL, sw.AS, sw.AL)
			}
		}

		// Non-switching directions must have no window (S = -1 ->
		// timing fields undefined).
		for net := range res.Lines {
			if a, b := sim.Values(net); a == b {
				if _, ok := res.Window(net, true); ok {
					if res.Lines[net].SRise == nineval.SNo {
						t.Errorf("trial %d: %s rise window defined despite S = -1", trial, net)
					}
				}
			}
		}
	}
}

func TestRefineWindowsShrinkMonotonically(t *testing.T) {
	// Assigning more PI values never widens a surviving window.
	lib := prechar.MustLibrary()
	c := benchgen.C17()
	rng := rand.New(rand.NewSource(33))
	const tol = 1e-12

	for trial := 0; trial < 10; trial++ {
		v1 := logicsim.RandomVector(c, rng.Intn)
		v2 := logicsim.RandomVector(c, rng.Intn)

		prev, err := Refine(c, nineval.Cube{}, Options{Lib: lib, Mode: sta.ModeProposed})
		if err != nil {
			t.Fatal(err)
		}
		cube := nineval.Cube{}
		for _, pi := range c.PIs {
			cube[pi] = nineval.Value{V1: nineval.Frame(v1[pi]), V2: nineval.Frame(v2[pi])}
			cur, err := Refine(c, cube, Options{Lib: lib, Mode: sta.ModeProposed})
			if err != nil {
				t.Fatal(err)
			}
			for net, li := range cur.Lines {
				pli := prev.Lines[net]
				for _, rising := range []bool{true, false} {
					w, ok := cur.windowOf(li, rising)
					if !ok {
						continue
					}
					pw, pok := prev.windowOf(pli, rising)
					if !pok {
						t.Errorf("trial %d: %s window reappeared after being ruled out", trial, net)
						continue
					}
					if w.AS < pw.AS-tol || w.AL > pw.AL+tol {
						t.Errorf("trial %d: %s %v window widened: [%.4e,%.4e] vs [%.4e,%.4e]",
							trial, net, rising, w.AS, w.AL, pw.AS, pw.AL)
					}
				}
			}
			prev = cur
		}
	}
}

func (r *Result) windowOf(li *LineInfo, rising bool) (sta.Window, bool) {
	if li == nil {
		return sta.Window{}, false
	}
	if rising {
		if !li.HasRise() {
			return sta.Window{}, false
		}
		return li.Rise, true
	}
	if !li.HasFall() {
		return sta.Window{}, false
	}
	return li.Fall, true
}

func TestRefineRejectsInconsistentCube(t *testing.T) {
	lib := prechar.MustLibrary()
	c := benchgen.C17()
	cube := nineval.Cube{"1": nineval.V00, "10": nineval.V00} // forces a conflict
	if _, err := Refine(c, cube, Options{Lib: lib}); err == nil {
		t.Error("expected error for inconsistent cube")
	}
	if _, err := Refine(c, nineval.Cube{}, Options{}); err == nil {
		t.Error("expected error for missing library")
	}
}

func TestDefiniteFallerTightensLatestArrival(t *testing.T) {
	// With input 1 of gate 10 = NAND(1,3) definitely falling, the latest
	// rise of net 10 is bounded by input 1's worst case, which is at
	// most the STA bound (max over both inputs).
	lib := prechar.MustLibrary()
	c := benchgen.C17()
	staRes, err := sta.Analyze(c, sta.Options{Lib: lib, Mode: sta.ModeProposed})
	if err != nil {
		t.Fatal(err)
	}
	cube := nineval.Cube{"1": nineval.V10} // PI 1 definitely falls
	res, err := Refine(c, cube, Options{Lib: lib, Mode: sta.ModeProposed})
	if err != nil {
		t.Fatal(err)
	}
	w, ok := res.Window("10", true)
	if !ok {
		t.Fatal("net 10 rise window undefined")
	}
	sw, _ := staRes.Window("10", true)
	if w.AL > sw.AL+1e-15 {
		t.Errorf("refined AL %g exceeds STA AL %g", w.AL, sw.AL)
	}
}

func TestTable1Rules(t *testing.T) {
	// Rule 1: Y cannot transition -> X must.
	for _, tgt := range AllTargets() {
		s := ImpliedSettings(tgt, nineval.SNo)
		if len(s) != 1 || s[0].SX != nineval.SYes || s[0].SY != nineval.SNo {
			t.Errorf("%v with S_Y=-1: %v, want [(1,-1)]", tgt, s)
		}
	}
	// Rule 2: minimising a to-controlling (rising) target with Y
	// definitely switching -> X joins (speed-up).
	aRS := Target{Rising: true}
	if s := ImpliedSettings(aRS, nineval.SYes); len(s) != 1 || s[0] != (Setting{nineval.SYes, nineval.SYes}) {
		t.Errorf("A_R,S with S_Y=1: %v, want [(1,1)]", s)
	}
	// Rule 3: minimising a to-non-controlling (falling) target with Y
	// definite -> X stays quiet.
	aFS := Target{Rising: false}
	if s := ImpliedSettings(aFS, nineval.SYes); len(s) != 1 || s[0] != (Setting{nineval.SNo, nineval.SYes}) {
		t.Errorf("A_F,S with S_Y=1: %v, want [(-1,1)]", s)
	}
	// Rule 4: minimising to-controlling with potential Y -> both switch.
	if s := ImpliedSettings(aRS, nineval.SMaybe); len(s) != 1 || s[0] != (Setting{nineval.SYes, nineval.SYes}) {
		t.Errorf("A_R,S with S_Y=0: %v, want [(1,1)]", s)
	}
	// Rule 5: minimising to-non-controlling with potential Y -> two cases.
	if s := ImpliedSettings(aFS, nineval.SMaybe); len(s) != 2 {
		t.Errorf("A_F,S with S_Y=0: %v, want two candidate settings", s)
	}
	// Dual of rule 2: maximising to-controlling with definite Y -> X quiet.
	aRL := Target{Rising: true, Largest: true}
	if s := ImpliedSettings(aRL, nineval.SYes); len(s) != 1 || s[0] != (Setting{nineval.SNo, nineval.SYes}) {
		t.Errorf("A_R,L with S_Y=1: %v, want [(-1,1)]", s)
	}
	// Dual of rule 3: maximising to-non-controlling -> both switch.
	aFL := Target{Rising: false, Largest: true}
	if s := ImpliedSettings(aFL, nineval.SYes); len(s) != 1 || s[0] != (Setting{nineval.SYes, nineval.SYes}) {
		t.Errorf("A_F,L with S_Y=1: %v, want [(1,1)]", s)
	}
}

func TestTable1Rendering(t *testing.T) {
	tbl := Table1()
	if len(tbl) == 0 {
		t.Fatal("empty table")
	}
	for _, want := range []string{"A_R,S", "T_F,L", "(1,1)", "(-1,1)"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}

func TestTargetString(t *testing.T) {
	if (Target{Rising: true}).String() != "A_R,S" {
		t.Error("target string wrong")
	}
	if (Target{Trans: true, Largest: true}).String() != "T_F,L" {
		t.Error("target string wrong")
	}
	if n := len(AllTargets()); n != 8 {
		t.Errorf("%d targets, want 8", n)
	}
}
