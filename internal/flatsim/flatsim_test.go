package flatsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/logicsim"
	"sstiming/internal/netlist"
	"sstiming/internal/prechar"
	"sstiming/internal/sta"
)

func TestInverterChainFlat(t *testing.T) {
	c := netlist.New("chain3")
	c.AddPI("a")
	c.AddGate(netlist.Inv, "b", "a")
	c.AddGate(netlist.Inv, "d", "b")
	c.AddGate(netlist.Inv, "z", "d")
	c.AddPO("z")
	if err := c.Build(); err != nil {
		t.Fatal(err)
	}

	res, err := Simulate(c, logicsim.Vector{"a": 0}, logicsim.Vector{"a": 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// a rises; b falls, d rises, z falls; arrivals strictly ordered.
	eb, ed, ez := res.Events["b"], res.Events["d"], res.Events["z"]
	if eb.Rising || !ed.Rising || ez.Rising {
		t.Fatalf("directions wrong: %+v %+v %+v", eb, ed, ez)
	}
	if !(eb.Arrival < ed.Arrival && ed.Arrival < ez.Arrival) {
		t.Errorf("arrivals not ordered: %g %g %g", eb.Arrival, ed.Arrival, ez.Arrival)
	}
}

// TestC17FlatVsGateLevel is the reproduction's flagship integration test:
// the entire c17 circuit simulated at transistor level versus the
// gate-level event model built from the fitted library. Logic must agree
// exactly; arrivals within modelling tolerance.
func TestC17FlatVsGateLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	lib := prechar.MustLibrary()
	c := benchgen.C17()
	rng := rand.New(rand.NewSource(2))

	var worstAbs, worstRel float64
	checked := 0
	for trial := 0; trial < 10; trial++ {
		v1 := logicsim.RandomVector(c, rng.Intn)
		v2 := logicsim.RandomVector(c, rng.Intn)

		flat, err := Simulate(c, v1, v2, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		gate, err := logicsim.Simulate(c, v1, v2, logicsim.Options{
			Lib:       lib,
			PIArrival: 1e-9, // match flatsim's default stimulus
			PITrans:   0.2e-9,
		})
		if err != nil {
			t.Fatal(err)
		}

		// Logic agreement.
		for net, want := range flat.V2 {
			if _, got := gate.Values(net); got != want {
				t.Fatalf("trial %d: logic mismatch at %s", trial, net)
			}
		}
		// Event agreement: the flattened sim may legitimately lack an
		// event where the gate-level model has one (analogue glitches
		// that do not complete are not modelled), but for two-frame
		// static vectors both should agree on switching nets.
		for net, fe := range flat.Events {
			ge, ok := gate.Event(net)
			if !ok {
				t.Fatalf("trial %d: flat sim switches %s but gate model does not", trial, net)
			}
			if fe.Rising != ge.Rising {
				t.Fatalf("trial %d: direction mismatch at %s", trial, net)
			}
			abs := math.Abs(fe.Arrival - ge.Arrival)
			rel := abs / math.Max(fe.Arrival-1e-9, 50e-12)
			if abs > worstAbs {
				worstAbs = abs
			}
			if rel > worstRel {
				worstRel = rel
			}
			checked++
			// Tolerance: the gate-level model is a fitted
			// abstraction; tens of picoseconds of absolute error
			// are expected at c17 scale.
			if abs > 120e-12 && rel > 0.45 {
				t.Errorf("trial %d: %s arrival flat %.4gns vs gate %.4gns",
					trial, net, fe.Arrival*1e9, ge.Arrival*1e9)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no events compared")
	}
	t.Logf("compared %d events; worst abs err %.1f ps, worst rel err %.0f%%",
		checked, worstAbs*1e12, worstRel*100)
}

// TestSTAWindowsContainFlatSim checks the STA windows against transistor-
// level reality (not just against the gate-level model).
func TestSTAWindowsContainFlatSim(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	lib := prechar.MustLibrary()
	c := benchgen.C17()
	staRes, err := sta.Analyze(c, sta.Options{
		Lib:  lib,
		Mode: sta.ModeProposed,
		PI:   sta.PITiming{ArrivalEarly: 1e-9, ArrivalLate: 1e-9, TransShort: 0.2e-9, TransLong: 0.2e-9},
	})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(8))
	const margin = 60e-12 // modelling tolerance between fit and silicon
	for trial := 0; trial < 8; trial++ {
		v1 := logicsim.RandomVector(c, rng.Intn)
		v2 := logicsim.RandomVector(c, rng.Intn)
		flat, err := Simulate(c, v1, v2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for net, ev := range flat.Events {
			w, ok := staRes.Window(net, ev.Rising)
			if !ok {
				t.Fatalf("no STA window for %s", net)
			}
			if ev.Arrival < w.AS-margin || ev.Arrival > w.AL+margin {
				t.Errorf("trial %d: %s transistor-level arrival %.4f ns outside STA window [%.4f, %.4f] ns",
					trial, net, ev.Arrival*1e9, w.AS*1e9, w.AL*1e9)
			}
		}
	}
}

func TestFlatRejectsOversizedCircuit(t *testing.T) {
	c, err := benchgen.Load("c432")
	if err != nil {
		t.Fatal(err)
	}
	v := logicsim.RandomVector(c, func(int) int { return 1 })
	_, err = Simulate(c, v, v, Options{})
	if err == nil {
		t.Fatal("expected dense-solver size error for c432")
	}
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("error does not wrap ErrTooLarge: %v", err)
	}
}

// TestFlatTooLargeJustOverLimit pins the MaxNodes overflow path on the
// smallest circuit that exceeds it: an inverter chain flattens to one node
// per stage plus the input, vdd and ground, so MaxNodes-2 stages lands
// exactly one node over the limit. The error must be descriptive (wrap
// ErrTooLarge, name the circuit and report the counts) — never a panic.
func TestFlatTooLargeJustOverLimit(t *testing.T) {
	c := netlist.New("chainover")
	c.AddPI("a")
	prev := "a"
	for i := 0; i < MaxNodes-2; i++ {
		out := fmt.Sprintf("n%d", i)
		c.AddGate(netlist.Inv, out, prev)
		prev = out
	}
	c.AddPO(prev)
	if err := c.Build(); err != nil {
		t.Fatal(err)
	}

	v0 := logicsim.RandomVector(c, func(int) int { return 0 })
	v1 := logicsim.RandomVector(c, func(int) int { return 1 })
	_, err := Simulate(c, v0, v1, Options{})
	if err == nil {
		t.Fatal("expected node-limit error")
	}
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("error does not wrap ErrTooLarge: %v", err)
	}
	for _, want := range []string{"chainover", fmt.Sprint(MaxNodes + 1), fmt.Sprint(MaxNodes)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestFlatVectorValidation(t *testing.T) {
	c := benchgen.C17()
	full := logicsim.RandomVector(c, func(int) int { return 1 })
	partial := logicsim.Vector{"1": 1}
	if _, err := Simulate(c, partial, full, Options{}); err == nil {
		t.Error("expected error for incomplete vector")
	}
	bad := logicsim.RandomVector(c, func(int) int { return 1 })
	bad["1"] = 5
	if _, err := Simulate(c, bad, full, Options{}); err == nil {
		t.Error("expected error for non-binary vector")
	}
}
