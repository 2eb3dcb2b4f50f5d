package logicsim

import (
	"math/rand"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/netlist"
	"sstiming/internal/prechar"
	"sstiming/internal/sta"
)

func TestLogicValuesMatchDirectEvaluation(t *testing.T) {
	lib := prechar.MustLibrary()
	c := benchgen.C17()
	rng := rand.New(rand.NewSource(11))

	for trial := 0; trial < 32; trial++ {
		v1 := RandomVector(c, rng.Intn)
		v2 := RandomVector(c, rng.Intn)
		res, err := Simulate(c, v1, v2, Options{Lib: lib})
		if err != nil {
			t.Fatal(err)
		}
		// Re-evaluate frame 2 independently.
		vals := make(map[string]int)
		for _, pi := range c.PIs {
			vals[pi] = v2[pi]
		}
		for _, gi := range c.TopoOrder() {
			g := &c.Gates[gi]
			in := make([]int, len(g.Inputs))
			for i, n := range g.Inputs {
				in[i] = vals[n]
			}
			v, err := g.Kind.Eval(in)
			if err != nil {
				t.Fatal(err)
			}
			vals[g.Output] = v
		}
		for net, want := range vals {
			if _, got := res.Values(net); got != want {
				t.Fatalf("trial %d: V2[%s] = %d, want %d", trial, net, got, want)
			}
		}
		// Event consistency: a net has an event iff V1 != V2, and the
		// direction matches.
		for _, net := range c.Nets() {
			ev, has := res.Event(net)
			a, b := res.Values(net)
			switched := a != b
			if has != switched {
				t.Fatalf("trial %d: net %s event presence %v but switched %v", trial, net, has, switched)
			}
			if has && ev.Rising != (b == 1) {
				t.Fatalf("trial %d: net %s event direction wrong", trial, net)
			}
		}
	}
}

func TestEventsRespectCausality(t *testing.T) {
	lib := prechar.MustLibrary()
	c := benchgen.C17()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 16; trial++ {
		v1 := RandomVector(c, rng.Intn)
		v2 := RandomVector(c, rng.Intn)
		res, err := Simulate(c, v1, v2, Options{Lib: lib})
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.Gates {
			g := &c.Gates[i]
			ev, has := res.Event(g.Output)
			if !has {
				continue
			}
			// The output must switch after at least one input event.
			earliest := -1.0
			for _, in := range g.Inputs {
				if ie, ok := res.Event(in); ok {
					if earliest < 0 || ie.Arrival < earliest {
						earliest = ie.Arrival
					}
				}
			}
			if earliest < 0 {
				t.Fatalf("gate %s switched without input events", g.Output)
			}
			if ev.Arrival <= earliest {
				t.Errorf("gate %s arrival %g not after earliest cause %g", g.Output, ev.Arrival, earliest)
			}
			if ev.Trans <= 0 {
				t.Errorf("gate %s transition time %g, want > 0", g.Output, ev.Trans)
			}
		}
	}
}

// TestSTAWindowsContainSimulation is the key soundness property linking the
// two applications: for any fully specified vector pair, every simulated
// arrival and transition time must fall inside the STA min-max window of the
// same line and direction — for both delay models.
func TestSTAWindowsContainSimulation(t *testing.T) {
	lib := prechar.MustLibrary()
	const tol = 2e-12

	for _, benchName := range []string{"c17", "c432"} {
		c, err := benchgen.Load(benchName)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []sta.Mode{sta.ModeProposed, sta.ModePinToPin} {
			staRes, err := sta.Analyze(c, sta.Options{Lib: lib, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(99))
			trials := 24
			if benchName == "c432" {
				trials = 8
			}
			for trial := 0; trial < trials; trial++ {
				v1 := RandomVector(c, rng.Intn)
				v2 := RandomVector(c, rng.Intn)
				simRes, err := Simulate(c, v1, v2, Options{Lib: lib, Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				for _, net := range c.Nets() {
					ev, ok := simRes.Event(net)
					if !ok {
						continue
					}
					w, ok := staRes.Window(net, ev.Rising)
					if !ok {
						t.Fatalf("%s: no STA window for %s", benchName, net)
					}
					if ev.Arrival < w.AS-tol || ev.Arrival > w.AL+tol {
						t.Errorf("%s/%v trial %d: %s arrival %.4e outside STA window [%.4e, %.4e]",
							benchName, mode, trial, net, ev.Arrival, w.AS, w.AL)
					}
					if ev.Trans < w.TS-tol || ev.Trans > w.TL+tol {
						t.Errorf("%s/%v trial %d: %s trans %.4e outside STA window [%.4e, %.4e]",
							benchName, mode, trial, net, ev.Trans, w.TS, w.TL)
					}
				}
			}
		}
	}
}

func TestProposedNeverSlowerThanPinToPin(t *testing.T) {
	// Simultaneous switching only speeds transitions up: for the same
	// vector pair, the proposed-model arrival of any event is <= the
	// pin-to-pin arrival.
	lib := prechar.MustLibrary()
	c := benchgen.C17()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 24; trial++ {
		v1 := RandomVector(c, rng.Intn)
		v2 := RandomVector(c, rng.Intn)
		prop, err := Simulate(c, v1, v2, Options{Lib: lib, Mode: sta.ModeProposed})
		if err != nil {
			t.Fatal(err)
		}
		p2p, err := Simulate(c, v1, v2, Options{Lib: lib, Mode: sta.ModePinToPin})
		if err != nil {
			t.Fatal(err)
		}
		for _, net := range c.Nets() {
			pe, ok := prop.Event(net)
			if !ok {
				continue
			}
			qe, ok := p2p.Event(net)
			if !ok {
				t.Fatalf("event sets differ at %s", net)
			}
			if pe.Arrival > qe.Arrival+1e-15 {
				t.Errorf("trial %d: %s proposed arrival %g after pin-to-pin %g",
					trial, net, pe.Arrival, qe.Arrival)
			}
		}
	}
}

func TestSimulateErrors(t *testing.T) {
	lib := prechar.MustLibrary()
	c := benchgen.C17()
	full := RandomVector(c, func(int) int { return 1 })
	if _, err := Simulate(c, full, full, Options{}); err == nil {
		t.Error("expected error for missing library")
	}
	partial := Vector{"1": 1}
	if _, err := Simulate(c, partial, full, Options{Lib: lib}); err == nil {
		t.Error("expected error for incomplete vector")
	}
	bad := RandomVector(c, func(int) int { return 1 })
	bad["1"] = 7
	if _, err := Simulate(c, bad, full, Options{Lib: lib}); err == nil {
		t.Error("expected error for non-binary value")
	}
}

func TestBufferTiming(t *testing.T) {
	lib := prechar.MustLibrary()
	c := netlist.New("buf")
	c.AddPI("a")
	c.AddGate(netlist.Buf, "z", "a")
	c.AddPO("z")
	if err := c.Build(); err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(c, Vector{"a": 0}, Vector{"a": 1}, Options{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	ev, ok := res.Event("z")
	if !ok || !ev.Rising {
		t.Fatalf("buffer output should rise: %+v", ev)
	}
	if ev.Arrival <= 0 {
		t.Errorf("buffer delay %g, want > 0", ev.Arrival)
	}
}
