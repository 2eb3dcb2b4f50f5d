package sta

import (
	"math"
	"math/rand"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/logicsim"
	"sstiming/internal/prechar"
)

func TestNCExtensionWidensOnlyLatestCorners(t *testing.T) {
	lib := prechar.MustLibrary()
	c := benchgen.C17()

	base, err := Analyze(c, Options{Lib: lib, Mode: ModeProposed})
	if err != nil {
		t.Fatal(err)
	}
	ext, err := Analyze(c, Options{Lib: lib, Mode: ModeProposed, NCExtension: true})
	if err != nil {
		t.Fatal(err)
	}

	widened := false
	for net, be := range base.Lines {
		xe := ext.Lines[net]
		check := func(b, x Window, dir string) {
			// Latest corners may only grow; shortest transition may
			// only shrink (downstream effects of wider transition
			// windows). The earliest arrival AS is corner-evaluated
			// and may move slightly either way downstream, which
			// the containment test covers.
			if x.AL < b.AL-1e-15 || x.TL < b.TL-1e-15 {
				t.Errorf("%s %s: NC extension shrank a latest corner", net, dir)
			}
			if x.TS > b.TS+1e-15 {
				t.Errorf("%s %s: NC extension raised the shortest transition", net, dir)
			}
			if x.AL > b.AL+1e-15 {
				widened = true
			}
		}
		check(be.Rise, xe.Rise, "rise")
		check(be.Fall, xe.Fall, "fall")
	}
	if !widened {
		t.Error("NC extension never widened a latest arrival on c17")
	}
}

// TestNCExtensionContainment re-runs the simulation-containment property
// with the extension enabled on both sides: the widened windows must cover
// the Λ-model simulation events (which can arrive later than the pin-to-pin
// max-combine predicts).
func TestNCExtensionContainment(t *testing.T) {
	lib := prechar.MustLibrary()
	const tol = 2e-12
	c := benchgen.C17()

	staRes, err := Analyze(c, Options{Lib: lib, Mode: ModeProposed, NCExtension: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 32; trial++ {
		v1 := logicsim.RandomVector(c, rng.Intn)
		v2 := logicsim.RandomVector(c, rng.Intn)
		sim, err := logicsim.Simulate(c, v1, v2, logicsim.Options{
			Lib: lib, Mode: ModeProposed, NCExtension: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, net := range c.Nets() {
			ev, ok := sim.Event(net)
			if !ok {
				continue
			}
			w, ok := staRes.Window(net, ev.Rising)
			if !ok {
				t.Fatalf("no window for %s", net)
			}
			if ev.Arrival < w.AS-tol || ev.Arrival > w.AL+tol {
				t.Errorf("trial %d: %s arrival %.4e outside extended window [%.4e, %.4e]",
					trial, net, ev.Arrival, w.AS, w.AL)
			}
			if ev.Trans < w.TS-tol || ev.Trans > w.TL+tol {
				t.Errorf("trial %d: %s trans %.4e outside extended window [%.4e, %.4e]",
					trial, net, ev.Trans, w.TS, w.TL)
			}
		}
	}
}

// TestNCExtensionSimSlower: for a vector pair with simultaneous rising NAND
// inputs, the extended simulation arrives later than the legacy one.
func TestNCExtensionSimSlower(t *testing.T) {
	lib := prechar.MustLibrary()
	c := benchgen.C17()
	// All PIs rise together: gate 10 = NAND(1,3) sees simultaneous
	// to-non-controlling transitions.
	v1 := logicsim.Vector{"1": 0, "2": 0, "3": 0, "6": 0, "7": 0}
	v2 := logicsim.Vector{"1": 1, "2": 1, "3": 1, "6": 1, "7": 1}

	legacy, err := logicsim.Simulate(c, v1, v2, logicsim.Options{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	ext, err := logicsim.Simulate(c, v1, v2, logicsim.Options{Lib: lib, NCExtension: true})
	if err != nil {
		t.Fatal(err)
	}
	le, _ := legacy.Event("10")
	xe, _ := ext.Event("10")
	if xe.Arrival <= le.Arrival {
		t.Errorf("extension should slow gate 10: %g vs %g", xe.Arrival, le.Arrival)
	}
	// The slowdown is the Section 3.6 second-order effect: tens of
	// percent at zero skew.
	if xe.Arrival > 2*le.Arrival {
		t.Errorf("implausibly large NC slowdown: %g vs %g", xe.Arrival, le.Arrival)
	}
}

func TestNCExtensionDefaultOffPreservesPublishedResults(t *testing.T) {
	// The Table 2 property (identical max-delays between models) must
	// hold with the default options, NC surfaces in the library
	// notwithstanding.
	lib := prechar.MustLibrary()
	c, err := benchgen.Load("c880")
	if err != nil {
		t.Fatal(err)
	}
	p2p, err := Analyze(c, Options{Lib: lib, Mode: ModePinToPin})
	if err != nil {
		t.Fatal(err)
	}
	prop, err := Analyze(c, Options{Lib: lib, Mode: ModeProposed})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p2p.MaxPOArrival()-prop.MaxPOArrival()) > 1e-15 {
		t.Error("default-mode max-delays no longer agree")
	}
}
