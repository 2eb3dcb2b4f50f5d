package logicsim

import (
	"math"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/netlist"
	"sstiming/internal/prechar"
)

// chainCircuit builds inverter-free NAND chain: a NAND2 whose output runs
// through a sensitised NAND2 chain to the PO, so an injected slowdown must
// propagate end to end.
func chainCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.New("chain")
	c.AddPI("a")
	c.AddPI("b")
	c.AddPI("en1")
	c.AddPI("en2")
	c.AddGate(netlist.Nand, "v", "a", "b")   // victim site
	c.AddGate(netlist.Nand, "m", "v", "en1") // sensitised by en1 = 1
	c.AddGate(netlist.Nand, "z", "m", "en2") // sensitised by en2 = 1
	c.AddPO("z")
	if err := c.Build(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFaultInjectionShiftsDownstream(t *testing.T) {
	lib := prechar.MustLibrary()
	c := chainCircuit(t)
	// a falls -> v rises; b is the aggressor path... use PI "b" as the
	// aggressor (it also transitions) and "v" as victim.
	v1 := Vector{"a": 1, "b": 1, "en1": 1, "en2": 1}
	v2 := Vector{"a": 0, "b": 0, "en1": 1, "en2": 1}

	const extra = 200e-12
	clean, faulty, excited, err := SimulateFaulty(c, v1, v2, FaultInjection{
		Aggressor:  "a",
		Victim:     "v",
		AggRising:  false,
		VicRising:  true,
		Window:     1e-9,
		ExtraDelay: extra,
	}, Options{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	if !excited {
		t.Fatal("fault should be excited (both transitions, huge window)")
	}

	// The victim's event must be shifted by exactly the injected delay.
	fv, _ := faulty.Event("v")
	cv, _ := clean.Event("v")
	shift := fv.Arrival - cv.Arrival
	if math.Abs(shift-extra) > 1e-15 {
		t.Errorf("victim shift = %g, want %g", shift, extra)
	}
	// The shift propagates to the PO through the sensitised chain.
	fz, _ := faulty.Event("z")
	cz, _ := clean.Event("z")
	poShift := fz.Arrival - cz.Arrival
	if poShift < 0.9*extra {
		t.Errorf("PO shift = %g, want ~%g (sensitised chain)", poShift, extra)
	}
	// Logic values unchanged by a delay fault.
	for _, net := range c.Nets() {
		_, c2 := clean.Values(net)
		_, f2 := faulty.Values(net)
		if c2 != f2 {
			t.Errorf("delay fault changed logic at %s", net)
		}
	}
}

func TestFaultNotExcitedCases(t *testing.T) {
	lib := prechar.MustLibrary()
	c := chainCircuit(t)
	base := Options{Lib: lib}

	// Victim does not switch: en1 steady, v still switches... use a
	// vector where the victim is steady: a=b=1 both frames.
	v1 := Vector{"a": 1, "b": 1, "en1": 1, "en2": 1}
	_, _, excited, err := SimulateFaulty(c, v1, v1, FaultInjection{
		Aggressor: "a", Victim: "v", Window: 1e-9,
	}, base)
	if err != nil {
		t.Fatal(err)
	}
	if excited {
		t.Error("fault excited with no transitions")
	}

	// Wrong direction: victim rises but fault expects falling.
	v2 := Vector{"a": 0, "b": 0, "en1": 1, "en2": 1}
	_, _, excited, err = SimulateFaulty(c, v1, v2, FaultInjection{
		Aggressor: "a", Victim: "v",
		AggRising: false, VicRising: false, // victim actually rises
		Window: 1e-9,
	}, base)
	if err != nil {
		t.Fatal(err)
	}
	if excited {
		t.Error("fault excited with wrong victim direction")
	}

	// Misaligned: tiny window.
	_, _, excited, err = SimulateFaulty(c, v1, v2, FaultInjection{
		Aggressor: "a", Victim: "v",
		AggRising: false, VicRising: true,
		Window: 1e-15, // victim lags the PI by a full gate delay
	}, base)
	if err != nil {
		t.Fatal(err)
	}
	if excited {
		t.Error("fault excited outside the alignment window")
	}
}

func TestFaultSelfCouplingRejected(t *testing.T) {
	lib := prechar.MustLibrary()
	c := benchgen.C17()
	v := RandomVector(c, func(int) int { return 1 })
	if _, _, _, err := SimulateFaulty(c, v, v, FaultInjection{Aggressor: "10", Victim: "10"}, Options{Lib: lib}); err == nil {
		t.Error("expected error for self-coupled fault")
	}
}

func TestFaultAbsorbedByEarlierPath(t *testing.T) {
	// When the victim's slowed transition is not on the winning arm of a
	// downstream min-combine, the shift is absorbed — the effect the
	// ATPG's path sensitisation exists to avoid.
	lib := prechar.MustLibrary()
	c := netlist.New("absorb")
	c.AddPI("a")
	c.AddPI("b")
	c.AddGate(netlist.Inv, "v", "a")       // victim: slow path
	c.AddGate(netlist.Nand, "z", "v", "b") // b falls too: earliest wins
	c.AddPO("z")
	if err := c.Build(); err != nil {
		t.Fatal(err)
	}
	// Frame change: a rises (v falls), b falls directly. b's fall reaches
	// the NAND immediately and dominates the to-controlling min.
	v1 := Vector{"a": 0, "b": 1}
	v2 := Vector{"a": 1, "b": 0}
	clean, faulty, excited, err := SimulateFaulty(c, v1, v2, FaultInjection{
		Aggressor: "a", Victim: "v",
		AggRising: true, VicRising: false,
		Window: 1e-9, ExtraDelay: 300e-12,
	}, Options{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	if !excited {
		t.Fatal("fault should be excited")
	}
	fz, _ := faulty.Event("z")
	cz, _ := clean.Event("z")
	shift := fz.Arrival - cz.Arrival
	if shift > 50e-12 {
		t.Errorf("PO shift %g should be (mostly) absorbed by the faster b path", shift)
	}
}
