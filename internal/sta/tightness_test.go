package sta

import (
	"math"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/logicsim"
	"sstiming/internal/prechar"
)

// TestC17WindowsExhaustive enumerates ALL 32x32 vector pairs of c17 and
// checks two properties of the STA windows against the timing simulator:
//
//  1. soundness — every simulated event of every pair lies inside the
//     window (no sampling: this is the complete behaviour space);
//  2. tightness at the outputs — the minimum simulated PO arrival over all
//     pairs is close to the STA lower edge (the corner STA predicts is
//     actually achievable), and likewise for the maximum.
func TestC17WindowsExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive enumeration")
	}
	lib := prechar.MustLibrary()
	c := benchgen.C17()
	res, err := Analyze(c, Options{Lib: lib, Mode: ModeProposed})
	if err != nil {
		t.Fatal(err)
	}

	vec := func(bits int) logicsim.Vector {
		v := make(logicsim.Vector, len(c.PIs))
		for i, pi := range c.PIs {
			v[pi] = (bits >> i) & 1
		}
		return v
	}

	const tol = 2e-12
	bestMin := math.Inf(1)
	bestMax := math.Inf(-1)
	events := 0
	for a := 0; a < 32; a++ {
		for b := 0; b < 32; b++ {
			sim, err := logicsim.Simulate(c, vec(a), vec(b), logicsim.Options{Lib: lib})
			if err != nil {
				t.Fatal(err)
			}
			for _, net := range c.Nets() {
				ev, ok := sim.Event(net)
				if !ok {
					continue
				}
				events++
				w, ok := res.Window(net, ev.Rising)
				if !ok {
					t.Fatalf("no window for %s", net)
				}
				if ev.Arrival < w.AS-tol || ev.Arrival > w.AL+tol {
					t.Errorf("pair (%d,%d): %s arrival %.4e outside [%.4e, %.4e]",
						a, b, net, ev.Arrival, w.AS, w.AL)
				}
			}
			for _, po := range c.POs {
				if ev, ok := sim.Event(po); ok {
					if ev.Arrival < bestMin {
						bestMin = ev.Arrival
					}
					if ev.Arrival > bestMax {
						bestMax = ev.Arrival
					}
				}
			}
		}
	}
	if events == 0 {
		t.Fatal("no events simulated")
	}

	staMin := res.MinPOArrival()
	staMax := res.MaxPOArrival()
	t.Logf("events checked: %d", events)
	t.Logf("PO min: STA %.4f ns, achieved %.4f ns (gap %.1f ps)",
		staMin*1e9, bestMin*1e9, (bestMin-staMin)*1e12)
	t.Logf("PO max: STA %.4f ns, achieved %.4f ns (gap %.1f ps)",
		staMax*1e9, bestMax*1e9, (staMax-bestMax)*1e12)

	// Soundness of the envelope.
	if bestMin < staMin-tol {
		t.Errorf("achieved min %.4e below STA bound %.4e", bestMin, staMin)
	}
	if bestMax > staMax+tol {
		t.Errorf("achieved max %.4e above STA bound %.4e", bestMax, staMax)
	}
	// Tightness: STA's corners should be nearly achievable on this tiny,
	// reconvergence-light circuit. Allow 60 ps of conservatism.
	if bestMin-staMin > 60e-12 {
		t.Errorf("STA min-delay overly conservative: gap %.1f ps", (bestMin-staMin)*1e12)
	}
	if staMax-bestMax > 60e-12 {
		t.Errorf("STA max-delay overly conservative: gap %.1f ps", (staMax-bestMax)*1e12)
	}
}
