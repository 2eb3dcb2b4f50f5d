package charlib

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"sstiming/internal/cells"
	"sstiming/internal/core"
	"sstiming/internal/device"
	"sstiming/internal/engine"
	"sstiming/internal/faultinject"
	"sstiming/internal/spice"
)

// loadGolden reads the pinned golden library for tolerance comparisons.
func loadGolden(t *testing.T) *core.Library {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "charlib_golden.json"))
	if err != nil {
		t.Fatalf("golden file missing: %v", err)
	}
	defer f.Close()
	lib, err := core.LoadLibrary(f)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func evalQuad(q core.Quad, tNs float64) float64 {
	return q.K[0] + q.K[1]*tNs + q.K[2]*tNs*tNs
}

// TestChaosInjectionRecoveredBySolver is the acceptance scenario: one-shot
// non-convergence injected at 5% of all solver time points. The solver's
// step-halving ladder absorbs every fault, characterisation completes with
// no degradation, and the library stays within tolerance of the golden.
func TestChaosInjectionRecoveredBySolver(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	plan := faultinject.NewPlan(1, 0.05, spice.FaultNoConverge, false)
	opts := goldenOptions()
	opts.Jobs = 1
	opts.NewFaultHook = plan.NextHook
	opts.Metrics = engine.NewMetrics()

	lib, err := Characterize(opts)
	if err != nil {
		t.Fatalf("characterisation under 5%% fault injection failed: %v", err)
	}
	if plan.Injected() == 0 {
		t.Fatal("plan injected no faults — vacuous test")
	}
	if got := opts.Metrics.Get(engine.SpiceRecovered); got == 0 {
		t.Error("no solver-level recoveries recorded")
	}
	if got := opts.Metrics.Get(engine.SpiceUnrecovered); got != 0 {
		t.Errorf("SpiceUnrecovered = %d, want 0 (one-shot faults always recover)", got)
	}

	golden := loadGolden(t)
	for name, want := range golden.Cells {
		got := lib.Cells[name]
		if got == nil {
			t.Fatalf("cell %s missing", name)
		}
		if got.Health != nil && len(got.Health.Degraded) > 0 {
			t.Errorf("%s: unexpected degradation %v", name, got.Health.Degraded)
		}
		// Recovered points integrate with halved sub-steps, so fitted
		// delays may drift very slightly; 2% is far tighter than the
		// paper's own accuracy target.
		for pin := range want.CtrlPins {
			for _, tNs := range []float64{0.2, 0.5, 1.0} {
				g := evalQuad(got.CtrlPins[pin].Delay, tNs)
				w := evalQuad(want.CtrlPins[pin].Delay, tNs)
				if w != 0 && abs(g-w)/abs(w) > 0.02 {
					t.Errorf("%s pin %d delay(%.1fns) = %.6f, golden %.6f", name, pin, tNs, g, w)
				}
			}
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// ordinalWindowHook fails every solver point of transients whose issue
// ordinal falls in [lo, hi) — persistently, so the solver ladder cannot
// rescue them and the failure escalates to charlib.
func ordinalWindowHook(lo, hi int64) func() spice.FaultHook {
	var next atomic.Int64
	return func() spice.FaultHook {
		o := next.Add(1) - 1
		if o < lo || o >= hi {
			return nil
		}
		return func(int, float64, int) spice.FaultKind { return spice.FaultNoConverge }
	}
}

// nand2Options characterises NAND2 alone on the golden grid — the smallest
// configuration with pair surfaces (where graceful degradation interpolates).
func nand2Options() Options {
	tech := device.Default05um()
	return Options{
		Tech:  tech,
		Grid:  []float64{0.2e-9, 0.5e-9, 1.0e-9},
		Cells: []cells.Config{{Kind: cells.NAND, N: 2, Tech: tech, LoadInverter: true}},
		TStep: 3e-12,
		Jobs:  1,
	}
}

// TestChaosDegradationInterpolatesFailedGridPoints drives persistent faults
// into a window of pair-phase simulations with charlib retries disabled:
// the affected grid cells must be interpolated from neighbours, recorded in
// the health report, and the characterisation must still succeed.
func TestChaosDegradationInterpolatesFailedGridPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opts := nand2Options()
	// Pin fits issue the first 16 transients for this configuration; the
	// window lands safely inside the pair-surface phase.
	opts.NewFaultHook = ordinalWindowHook(30, 34)
	opts.Retries = -1 // disable charlib retries so the faults surface as degradation

	lib, err := Characterize(opts)
	if err != nil {
		t.Fatalf("characterisation did not degrade gracefully: %v", err)
	}
	m := lib.Cells["NAND2"]
	if m.Health == nil || len(m.Health.Degraded) == 0 {
		t.Fatal("no degradation recorded — the fault window missed; adjust the ordinals")
	}
	if m.Health.Points == 0 {
		t.Error("health record has zero attempted points")
	}
	for _, d := range m.Health.Degraded {
		if !strings.HasPrefix(d.Surface, "pair") {
			t.Errorf("degraded surface %q, want pair phase only", d.Surface)
		}
		if d.Reason == "" || d.Tx == 0 {
			t.Errorf("degraded point lacks diagnostics: %+v", d)
		}
	}
	if frac := m.Health.DegradedFrac(); frac > 0.25 {
		t.Errorf("degraded fraction %.2f exceeded the default budget yet succeeded", frac)
	}
	if lib.DegradedPoints() != len(m.Health.Degraded) {
		t.Errorf("Library.DegradedPoints() = %d, want %d", lib.DegradedPoints(), len(m.Health.Degraded))
	}
}

// TestChaosDegradationBudgetEnforced re-runs the degradation scenario with a
// near-zero budget: the same faults must now fail the characterisation with
// an error naming the budget.
func TestChaosDegradationBudgetEnforced(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opts := nand2Options()
	opts.NewFaultHook = ordinalWindowHook(30, 34)
	opts.Retries = -1
	opts.MaxDegradedFrac = 0.001

	_, err := Characterize(opts)
	if err == nil {
		t.Fatal("characterisation succeeded despite an exceeded degradation budget")
	}
	if !strings.Contains(err.Error(), "degraded") || !strings.Contains(err.Error(), "budget") {
		t.Errorf("error does not name the budget: %v", err)
	}
	if !strings.Contains(err.Error(), "NAND2") {
		t.Errorf("error does not name the failing cell: %v", err)
	}
}

// TestChaosRetryRescuesPersistentFault checks the charlib-level retry: a
// persistent fault defeats the solver ladder on the first attempt, but the
// retry re-runs the simulation as a fresh transient (new injection ordinal)
// and succeeds — recorded as Retried in the health report.
func TestChaosRetryRescuesPersistentFault(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opts := nand2Options()
	opts.SkipPairs = true // pin fits only: fast, and a retried sample must not degrade
	opts.NewFaultHook = ordinalWindowHook(2, 3)
	opts.Metrics = engine.NewMetrics()

	lib, err := Characterize(opts)
	if err != nil {
		t.Fatalf("retry did not rescue the persistent fault: %v", err)
	}
	m := lib.Cells["NAND2"]
	if m.Health == nil || m.Health.Retried == 0 {
		t.Fatal("no retry recorded in the health report")
	}
	if len(m.Health.Degraded) != 0 {
		t.Errorf("unexpected degradation: %v", m.Health.Degraded)
	}
	if got := opts.Metrics.Get(engine.CharRetries); got == 0 {
		t.Error("CharRetries metric not incremented")
	}
}

// TestChaosPanicInParallelCharacterizationNamesCell injects a panic into the
// first simulation issued by the parallel cell fan-out: the engine pool must
// contain the crash, cancel the siblings, and the error must name the cell
// that blew up (satellite: pool-level recovery alone only knows the
// goroutine).
func TestChaosPanicInParallelCharacterizationNamesCell(t *testing.T) {
	opts := FastOptions()
	opts.Jobs = 3
	var next atomic.Int64
	opts.NewFaultHook = func() spice.FaultHook {
		if next.Add(1)-1 == 0 {
			return func(int, float64, int) spice.FaultKind { return spice.FaultPanic }
		}
		return nil
	}

	_, err := Characterize(opts)
	if err == nil {
		t.Fatal("injected panic did not fail the characterisation")
	}
	if !strings.Contains(err.Error(), "engine: worker panic") {
		t.Errorf("panic was not converted by the pool: %v", err)
	}
	if !strings.Contains(err.Error(), "faultinject: forced panic") {
		t.Errorf("panic payload lost: %v", err)
	}
	if !regexp.MustCompile(`(INV|NAND2|NOR2): engine: worker panic`).MatchString(err.Error()) {
		t.Errorf("error does not name the crashing cell: %v", err)
	}
}
