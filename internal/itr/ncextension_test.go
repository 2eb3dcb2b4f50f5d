package itr

import (
	"math/rand"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/logicsim"
	"sstiming/internal/nineval"
	"sstiming/internal/prechar"
	"sstiming/internal/sta"
)

// TestITRNCExtensionMatchesSTAOnEmptyCube: the special-case identity (empty
// cube = STA) must hold with the extension enabled on both sides.
func TestITRNCExtensionMatchesSTAOnEmptyCube(t *testing.T) {
	lib := prechar.MustLibrary()
	c := benchgen.C17()
	staRes, err := sta.Analyze(c, sta.Options{Lib: lib, Mode: sta.ModeProposed, NCExtension: true})
	if err != nil {
		t.Fatal(err)
	}
	itrRes, err := Refine(c, nineval.Cube{}, Options{Lib: lib, Mode: sta.ModeProposed, NCExtension: true})
	if err != nil {
		t.Fatal(err)
	}
	for net, li := range itrRes.Lines {
		sw := staRes.Lines[net]
		if diffWindow(li.Rise, sw.Rise) > 1e-15 || diffWindow(li.Fall, sw.Fall) > 1e-15 {
			t.Errorf("%s: extended ITR != extended STA:\n  itr %+v/%+v\n  sta %+v/%+v",
				net, li.Rise, li.Fall, sw.Rise, sw.Fall)
		}
	}
}

// TestITRNCExtensionContainment: refined extended windows contain extended
// simulation events for consistent full assignments.
func TestITRNCExtensionContainment(t *testing.T) {
	lib := prechar.MustLibrary()
	c := benchgen.C17()
	const tol = 2e-12
	rng := rand.New(rand.NewSource(71))

	for trial := 0; trial < 16; trial++ {
		v1 := logicsim.RandomVector(c, rng.Intn)
		v2 := logicsim.RandomVector(c, rng.Intn)
		sim, err := logicsim.Simulate(c, v1, v2, logicsim.Options{Lib: lib, NCExtension: true})
		if err != nil {
			t.Fatal(err)
		}
		cube := nineval.Cube{}
		for _, pi := range c.PIs {
			cube[pi] = nineval.Value{V1: nineval.Frame(v1[pi]), V2: nineval.Frame(v2[pi])}
		}
		res, err := Refine(c, cube, Options{Lib: lib, Mode: sta.ModeProposed, NCExtension: true})
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
				t.Fatalf("trial %d: %s switched but window undefined", trial, net)
			}
			if ev.Arrival < w.AS-tol || ev.Arrival > w.AL+tol {
				t.Errorf("trial %d: %s arrival %.4e outside extended ITR window [%.4e, %.4e]",
					trial, net, ev.Arrival, w.AS, w.AL)
			}
		}
	}
}
