package charlib

import (
	"testing"

	"sstiming/internal/cells"
	"sstiming/internal/core"
	"sstiming/internal/device"
	"sstiming/internal/engine"
)

func TestDefaultCellsSet(t *testing.T) {
	tech := device.Default05um()
	set := DefaultCells(tech)
	want := map[string]bool{"INV": true, "NAND2": true, "NAND3": true, "NAND4": true, "NOR2": true, "NOR3": true}
	if len(set) != len(want) {
		t.Fatalf("%d default cells, want %d", len(set), len(want))
	}
	for _, cfg := range set {
		if !want[cfg.Name()] {
			t.Errorf("unexpected default cell %s", cfg.Name())
		}
		if !cfg.LoadInverter {
			t.Errorf("%s should carry the standard inverter load", cfg.Name())
		}
	}
}

func TestDefaultOptionsFill(t *testing.T) {
	var o Options
	o.fill()
	if o.Tech == nil || len(o.Grid) != 5 || len(o.Cells) != 6 || o.TStep <= 0 || o.SkewTol <= 0 {
		t.Errorf("fill() incomplete: %+v", o)
	}
	// Progress must be callable.
	o.Progress("test %d", 1)
}

func TestSkipPairsProducesPinOnlyModel(t *testing.T) {
	tech := device.Default05um()
	lib, err := Characterize(Options{
		Tech:      tech,
		Grid:      []float64{0.2e-9, 0.6e-9, 1.2e-9},
		Cells:     []cells.Config{{Kind: cells.NAND, N: 2, Tech: tech, LoadInverter: true}},
		SkipPairs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := lib.MustCell("NAND2")
	if len(m.Pairs) != 0 {
		t.Errorf("SkipPairs left %d pair entries", len(m.Pairs))
	}
	if len(m.CtrlPins) != 2 || len(m.NonCtrlPins) != 2 {
		t.Error("pin models missing")
	}
	// The model degrades to pin-to-pin: no zero-skew speed-up.
	const T = 0.5e-9
	if d := m.DelayCtrl2(0, 1, T, T, 0, 0); d != m.CtrlPins[0].DelayAt(T, 0) {
		t.Errorf("pin-only model should fall back to pin-to-pin, got %g", d)
	}
}

// TestEachTestbenchSimulatedOnce counts the transients of a pin-only NAND2
// on the golden grid: per pin and response, three grid points plus the
// loaded mid-grid point, 16 in all. The unloaded mid-grid point that the
// load slope is taken against is the memoised grid sample, not a rerun.
// With the pairs characterised, whose ordered pairs (x, y) and (y, x) run
// concurrently and share testbenches, Jobs 4 must simulate exactly the
// transients Jobs 1 does: a testbench missed by both at once runs once.
func TestEachTestbenchSimulatedOnce(t *testing.T) {
	transients := func(jobs int, skipPairs bool) int64 {
		opts := nand2Options()
		opts.Jobs, opts.SkipPairs = jobs, skipPairs
		opts.Metrics = engine.NewMetrics()
		if _, err := Characterize(opts); err != nil {
			t.Fatal(err)
		}
		return opts.Metrics.Get(engine.CharJobs)
	}
	for _, jobs := range []int{1, 4} {
		if got := transients(jobs, true); got != 16 {
			t.Errorf("Jobs %d: charlib/jobs = %d, want 16 (2 pins x 2 responses x (3 grid points + 1 loaded))", jobs, got)
		}
	}
	if serial, parallel := transients(1, false), transients(4, false); parallel != serial {
		t.Errorf("with pairs: charlib/jobs = %d at Jobs 4, %d at Jobs 1", parallel, serial)
	}
}

func TestPaperExactD0Option(t *testing.T) {
	tech := device.Default05um()
	lib, err := Characterize(Options{
		Tech:         tech,
		Grid:         []float64{0.2e-9, 0.6e-9, 1.2e-9},
		Cells:        []cells.Config{{Kind: cells.NAND, N: 2, Tech: tech, LoadInverter: true}},
		PaperExactD0: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := lib.MustCell("NAND2").Pair(0, 1)
	if p == nil {
		t.Fatal("missing pair")
	}
	if p.D0.Kxx != 0 || p.D0.Kyy != 0 || p.D0.Kxxy != 0 || p.D0.Kxyy != 0 {
		t.Errorf("paper-exact fit has correction terms: %+v", p.D0)
	}
	// The paper form still captures the headline speed-up.
	const T = 0.5e-9
	m := lib.MustCell("NAND2")
	if d0 := m.DelayCtrl2(0, 1, T, T, 0, 0); d0 >= m.CtrlPins[0].DelayAt(T, 0) {
		t.Errorf("paper-exact D0 lost the speed-up: %g", d0)
	}
}

func TestMultiFactorsForNAND3(t *testing.T) {
	tech := device.Default05um()
	lib, err := Characterize(Options{
		Tech:  tech,
		Grid:  []float64{0.2e-9, 0.6e-9, 1.2e-9},
		Cells: []cells.Config{{Kind: cells.NAND, N: 3, Tech: tech, LoadInverter: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := lib.MustCell("NAND3")
	if len(m.MultiFactor) != 1 {
		t.Fatalf("NAND3 multi factors = %v, want one entry", m.MultiFactor)
	}
	if f := m.MultiFactor[0]; f <= 0 || f > 1 {
		t.Errorf("factor %g outside (0,1]", f)
	}
	// Three simultaneous inputs beat the best pairwise prediction.
	const T = 0.5e-9
	evs := []core.InputEvent{
		{Pin: 0, Arrival: 1e-9, Trans: T},
		{Pin: 1, Arrival: 1e-9, Trans: T},
		{Pin: 2, Arrival: 1e-9, Trans: T},
	}
	r3, err := m.CtrlResponse(evs, 0)
	if err != nil {
		t.Fatal(err)
	}
	saved := m.MultiFactor
	m.MultiFactor = nil
	r2, err := m.CtrlResponse(evs, 0)
	m.MultiFactor = saved
	if err != nil {
		t.Fatal(err)
	}
	if r3.Arrival > r2.Arrival+1e-18 {
		t.Errorf("3-way factor slowed the response: %g vs %g", r3.Arrival, r2.Arrival)
	}
}
