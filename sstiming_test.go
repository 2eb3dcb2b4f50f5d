package sstiming_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sstiming"
	"sstiming/internal/benchgen"
	"sstiming/internal/logicsim"
	"sstiming/internal/twindow"
)

const apiTestBench = `INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z)
n1 = NAND(a, b)
z = NOR(n1, c)
`

func TestPublicAPIEndToEnd(t *testing.T) {
	lib, err := sstiming.DefaultLibrary()
	if err != nil {
		t.Fatal(err)
	}

	// Delay-model surface.
	nand2 := lib.MustCell("NAND2")
	d0 := nand2.DelayCtrl2(0, 1, 0.5e-9, 0.5e-9, 0, 0)
	d1 := nand2.CtrlPins[0].DelayAt(0.5e-9, 0)
	if d0 >= d1 {
		t.Errorf("simultaneous delay %g not below single-input %g", d0, d1)
	}

	// Netlist parsing + STA.
	c, err := sstiming.ParseBench("api", strings.NewReader(apiTestBench))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sstiming.AnalyzeSTA(c, sstiming.STAOptions{Lib: lib, Mode: sstiming.ModeProposed})
	if err != nil {
		t.Fatal(err)
	}
	w, ok := res.Window("z", true)
	if !ok || w.AS <= 0 {
		t.Errorf("PO window missing or degenerate: %+v", w)
	}

	// Timing simulation through the facade.
	v1 := sstiming.Vector{"a": 1, "b": 1, "c": 0}
	v2 := sstiming.Vector{"a": 0, "b": 1, "c": 0}
	sim, err := sstiming.SimulateTiming(c, v1, v2, sstiming.SimOptions{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	// a falls -> n1 rises -> z falls.
	if ev, ok := sim.Event("z"); !ok || ev.Rising {
		t.Errorf("expected falling event at z, got %+v (ok=%v)", ev, ok)
	}

	// ITR through the facade (empty cube = STA).
	ir, err := sstiming.RefineITR(c, sstiming.Cube{}, sstiming.ITROptions{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	iw, ok := ir.Window("z", true)
	if !ok || iw != w {
		t.Errorf("ITR with empty cube should equal STA: %+v vs %+v", iw, w)
	}

	// ATPG through the facade.
	f := sstiming.Fault{Aggressor: "n1", Victim: "z", AggRising: true, VicRising: false, MaxSkew: 1e-9}
	r, err := sstiming.GenerateTest(c, f, sstiming.ATPGOptions{Lib: lib, UseITR: true, MaxBacktracks: 64})
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome.String() == "" {
		t.Error("outcome should stringify")
	}

	// Library round trip.
	var buf bytes.Buffer
	if err := lib.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lib2, err := sstiming.LoadLibrary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(lib2.Cells) != len(lib.Cells) {
		t.Errorf("round trip lost cells: %d vs %d", len(lib2.Cells), len(lib.Cells))
	}
}

func TestPublicAPITechAndCharacterize(t *testing.T) {
	if testing.Short() {
		t.Skip("runs transistor-level characterisation")
	}
	tech := sstiming.Default05um()
	if tech.Vdd != 3.3 {
		t.Errorf("Vdd = %g, want 3.3", tech.Vdd)
	}
	lib, err := sstiming.Characterize(sstiming.CharOptions{
		Tech:      tech,
		Grid:      []float64{0.2e-9, 0.6e-9, 1.2e-9},
		SkipPairs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := lib.Cell("NAND2"); !ok {
		t.Error("characterised library missing NAND2")
	}
}

func TestPublicAPIInterchangeAndApplications(t *testing.T) {
	lib, err := sstiming.DefaultLibrary()
	if err != nil {
		t.Fatal(err)
	}
	c, err := sstiming.ParseBench("api", strings.NewReader(apiTestBench))
	if err != nil {
		t.Fatal(err)
	}

	// SDF export + re-import.
	sf, err := sstiming.ExportSDF(c, lib)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sf.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := sstiming.ParseSDF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != len(sf.Cells) {
		t.Errorf("SDF round trip lost cells")
	}

	// Verilog parsing.
	const vsrc = `module m (a, b, z);
  input a, b;
  output z;
  nand (z, a, b);
endmodule`
	vc, err := sstiming.ParseVerilog("m", strings.NewReader(vsrc))
	if err != nil {
		t.Fatal(err)
	}
	if vc.NumGates() != 1 {
		t.Errorf("verilog parse: %d gates", vc.NumGates())
	}

	// Fault injection through the facade.
	v1 := sstiming.Vector{"a": 1, "b": 1, "c": 0}
	v2 := sstiming.Vector{"a": 0, "b": 1, "c": 0}
	clean, faulty, excited, err := sstiming.SimulateFaulty(c, v1, v2, sstiming.FaultInjection{
		Aggressor: "a", Victim: "n1",
		AggRising: false, VicRising: true,
		Window: 1e-9, ExtraDelay: 100e-12,
	}, sstiming.SimOptions{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	if !excited {
		t.Fatal("fault should be excited")
	}
	fe, _ := faulty.Event("n1")
	ce, _ := clean.Event("n1")
	if fe.Arrival <= ce.Arrival {
		t.Error("victim not slowed")
	}

	// Hold fixing through the facade.
	r, err := sstiming.FixHold(c, lib, sstiming.ModeProposed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.BuffersInserted != 0 {
		t.Errorf("trivial hold requirement inserted %d buffers", r.BuffersInserted)
	}

	// NC extension through the aliased options.
	res, err := sstiming.AnalyzeSTA(c, sstiming.STAOptions{Lib: lib, NCExtension: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxPOArrival() <= 0 {
		t.Error("extended analysis degenerate")
	}
}

// TestSimulateTimingPinToPin runs the facade's simulation under the
// facade's own ModePinToPin and requires exactly what a direct pin-to-pin
// logicsim.Simulate produces, on a c432 vector pair where the two delay
// models disagree.
func TestSimulateTimingPinToPin(t *testing.T) {
	lib, err := sstiming.DefaultLibrary()
	if err != nil {
		t.Fatal(err)
	}
	c, err := benchgen.Load("c432")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	v1 := logicsim.RandomVector(c, rng.Intn)
	v2 := logicsim.RandomVector(c, rng.Intn)

	got, err := sstiming.SimulateTiming(c, v1, v2, sstiming.SimOptions{Lib: lib, Mode: sstiming.ModePinToPin})
	if err != nil {
		t.Fatal(err)
	}
	want, err := logicsim.Simulate(c, v1, v2, logicsim.Options{Lib: lib, Mode: twindow.ModePinToPin})
	if err != nil {
		t.Fatal(err)
	}
	proposed, err := logicsim.Simulate(c, v1, v2, logicsim.Options{Lib: lib, Mode: twindow.ModeProposed})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(want.Events, proposed.Events) {
		t.Fatal("the vector pair does not tell the delay models apart")
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("facade pin-to-pin simulation differs from logicsim's")
	}
}
