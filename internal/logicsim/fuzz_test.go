package logicsim

import (
	"math/rand"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/prechar"
	"sstiming/internal/sta"
)

// TestContainmentOnRandomTopologies fuzzes circuit topology: many small
// random circuits are generated (different seeds, shapes and gate mixes)
// and the STA-contains-simulation property is checked on each. This guards
// the window propagation rules against topology corner cases (NOR-heavy
// fabrics, buffer chains, deep reconvergence) that the fixed benchmarks may
// not exercise.
func TestContainmentOnRandomTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing")
	}
	lib := prechar.MustLibrary()
	const tol = 2e-12

	for seed := int64(1); seed <= 12; seed++ {
		prof := benchgen.Profile{
			Name:  "fuzz",
			PIs:   4 + int(seed%5),
			POs:   2 + int(seed%3),
			Gates: 20 + int(seed*7)%40,
			Depth: 4 + int(seed)%6,
			Seed:  seed * 1013,
		}
		c, err := benchgen.Generate(prof)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		for _, mode := range []sta.Mode{sta.ModeProposed, sta.ModePinToPin} {
			res, err := sta.Analyze(c, sta.Options{Lib: lib, Mode: mode})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 6; trial++ {
				v1 := RandomVector(c, rng.Intn)
				v2 := RandomVector(c, rng.Intn)
				sim, err := Simulate(c, v1, v2, Options{Lib: lib, Mode: mode})
				if err != nil {
					t.Fatalf("seed %d trial %d: %v", seed, trial, err)
				}
				for _, net := range c.Nets() {
					ev, ok := sim.Event(net)
					if !ok {
						continue
					}
					w, ok := res.Window(net, ev.Rising)
					if !ok {
						t.Fatalf("seed %d: no window for %s", seed, net)
					}
					if ev.Arrival < w.AS-tol || ev.Arrival > w.AL+tol {
						t.Errorf("seed %d/%v trial %d: %s arrival %.4e outside [%.4e, %.4e]",
							seed, mode, trial, net, ev.Arrival, w.AS, w.AL)
					}
					if ev.Trans < w.TS-tol || ev.Trans > w.TL+tol {
						t.Errorf("seed %d/%v trial %d: %s trans %.4e outside [%.4e, %.4e]",
							seed, mode, trial, net, ev.Trans, w.TS, w.TL)
					}
				}
			}
		}
	}
}

// TestNCExtensionContainmentOnRandomTopologies repeats the fuzz with the
// Section 3.6 extension enabled on both sides.
func TestNCExtensionContainmentOnRandomTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing")
	}
	lib := prechar.MustLibrary()
	const tol = 2e-12

	for seed := int64(1); seed <= 6; seed++ {
		prof := benchgen.Profile{
			Name:  "fuzznc",
			PIs:   5,
			POs:   3,
			Gates: 30 + int(seed*11)%30,
			Depth: 5,
			Seed:  seed * 977,
		}
		c, err := benchgen.Generate(prof)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sta.Analyze(c, sta.Options{Lib: lib, Mode: sta.ModeProposed, NCExtension: true})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 6; trial++ {
			v1 := RandomVector(c, rng.Intn)
			v2 := RandomVector(c, rng.Intn)
			sim, err := Simulate(c, v1, v2, Options{Lib: lib, NCExtension: true})
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
					t.Fatalf("seed %d: no window for %s", seed, net)
				}
				if ev.Arrival < w.AS-tol || ev.Arrival > w.AL+tol {
					t.Errorf("seed %d trial %d: %s arrival %.4e outside [%.4e, %.4e]",
						seed, trial, net, ev.Arrival, w.AS, w.AL)
				}
			}
		}
	}
}
