package spice

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"sstiming/internal/engine"
)

// chaosRC builds the RC step-response bench (R = 1k, C = 1pF, tau = 1ns)
// driven at chaosSteps points — small enough that every chaos scenario runs
// in microseconds, nonlinear enough (via the solver path) to be realistic.
func chaosRC() *Circuit {
	c := NewCircuit()
	vin := c.Node("vin")
	out := c.Node("out")
	c.AddVSource(vin, 0, func(t float64) float64 {
		if t <= 0 {
			return 0
		}
		return 1.0
	})
	c.AddRes(vin, out, 1000)
	c.AddCap(out, 0, 1e-12)
	return c
}

const chaosSteps = 100

func chaosOpts() TransientOpts {
	return TransientOpts{TStop: 5e-9, TStep: 5e-11, Record: []string{"out"}}
}

// at returns a hook faulting one (step, attempt) coordinate of the first
// solve attempt only — the recovery ladder sees a clean retry.
func at(step int, kind FaultKind) FaultHook {
	return func(s int, _ float64, attempt int) FaultKind {
		if s == step && attempt == 0 {
			return kind
		}
		return FaultNone
	}
}

// persistentAt returns a hook faulting one step on every attempt, defeating
// the recovery ladder.
func persistentAt(step int, kind FaultKind) FaultHook {
	return func(s int, _ float64, _ int) FaultKind {
		if s == step {
			return kind
		}
		return FaultNone
	}
}

func TestChaosStepHalvingRecoversInjectedNonConvergence(t *testing.T) {
	clean, err := chaosRC().Transient(chaosOpts())
	if err != nil {
		t.Fatal(err)
	}

	met := engine.NewMetrics()
	opts := chaosOpts()
	opts.FaultHook = at(25, FaultNoConverge)
	opts.Metrics = met
	res, err := chaosRC().Transient(opts)
	if err != nil {
		t.Fatalf("injected non-convergence was not recovered: %v", err)
	}
	// The recovered point was integrated with halved sub-steps, so it picks
	// up a (smaller) discretisation error of its own; the waveforms must
	// stay within millivolts.
	if got, want := res.Wave("out").Final(), clean.Wave("out").Final(); math.Abs(got-want) > 1e-3 {
		t.Errorf("recovered final = %g, clean = %g", got, want)
	}
	if diff := math.Abs(res.Wave("out").At(1.25e-9) - clean.Wave("out").At(1.25e-9)); diff > 1e-3 {
		t.Errorf("recovered point deviates from clean run by %g V", diff)
	}
	if got := met.Get(engine.FaultsInjected); got != 1 {
		t.Errorf("FaultsInjected = %d, want 1", got)
	}
	if got := met.Get(engine.SpiceStepRetries); got != 1 {
		t.Errorf("SpiceStepRetries = %d, want 1", got)
	}
	if got := met.Get(engine.SpiceRecovered); got != 1 {
		t.Errorf("SpiceRecovered = %d, want 1", got)
	}
	if got := met.Get(engine.SpiceStepHalvings); got < 1 {
		t.Errorf("SpiceStepHalvings = %d, want >= 1", got)
	}
	if got := met.Get(engine.SpiceUnrecovered); got != 0 {
		t.Errorf("SpiceUnrecovered = %d, want 0", got)
	}
}

func TestChaosPersistentFaultExhaustsLadder(t *testing.T) {
	met := engine.NewMetrics()
	opts := chaosOpts()
	opts.FaultHook = persistentAt(25, FaultNoConverge)
	opts.Metrics = met
	_, err := chaosRC().Transient(opts)
	if err == nil {
		t.Fatal("persistent fault unexpectedly recovered")
	}
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("errors.Is(err, ErrNoConvergence) = false for %v", err)
	}
	var se *SolveError
	if !errors.As(err, &se) {
		t.Fatalf("no *SolveError in %v", err)
	}
	if se.Step != 25 || !se.Injected {
		t.Errorf("SolveError step=%d injected=%v, want 25/true", se.Step, se.Injected)
	}
	if !strings.Contains(err.Error(), "step-halving") {
		t.Errorf("error does not mention the exhausted ladder: %v", err)
	}
	if got := met.Get(engine.SpiceUnrecovered); got != 1 {
		t.Errorf("SpiceUnrecovered = %d, want 1", got)
	}
}

func TestChaosNaNGuardNamesNode(t *testing.T) {
	opts := chaosOpts()
	opts.FaultHook = persistentAt(25, FaultNaN)
	_, err := chaosRC().Transient(opts)
	if err == nil {
		t.Fatal("NaN poisoning unexpectedly survived")
	}
	if !errors.Is(err, ErrNumerical) {
		t.Errorf("errors.Is(err, ErrNumerical) = false for %v", err)
	}
	var se *SolveError
	if !errors.As(err, &se) {
		t.Fatalf("no *SolveError in %v", err)
	}
	if se.Node == "" {
		t.Errorf("SolveError does not name the poisoned unknown: %v", err)
	}
	if !se.Injected {
		t.Errorf("SolveError not marked injected: %v", err)
	}
}

func TestChaosRecoverableNaNIsRescued(t *testing.T) {
	opts := chaosOpts()
	opts.FaultHook = at(25, FaultNaN)
	opts.Metrics = engine.NewMetrics()
	if _, err := chaosRC().Transient(opts); err != nil {
		t.Fatalf("one-shot NaN fault was not recovered: %v", err)
	}
	if got := opts.Metrics.Get(engine.SpiceRecovered); got != 1 {
		t.Errorf("SpiceRecovered = %d, want 1", got)
	}
}

func TestChaosGminSteppingRecoversDC(t *testing.T) {
	clean, err := chaosRC().Transient(chaosOpts())
	if err != nil {
		t.Fatal(err)
	}
	met := engine.NewMetrics()
	opts := chaosOpts()
	opts.FaultHook = at(0, FaultNoConverge)
	opts.Metrics = met
	res, err := chaosRC().Transient(opts)
	if err != nil {
		t.Fatalf("DC fault was not rescued by gmin stepping: %v", err)
	}
	if got, want := res.Wave("out").Final(), clean.Wave("out").Final(); math.Abs(got-want) > 1e-6 {
		t.Errorf("final = %g, clean = %g", got, want)
	}
	if got := met.Get(engine.SpiceGminSteps); got < 2 {
		t.Errorf("SpiceGminSteps = %d, want >= 2 (a whole continuation ladder)", got)
	}
	if got := met.Get(engine.SpiceRecovered); got != 1 {
		t.Errorf("SpiceRecovered = %d, want 1", got)
	}
}

func TestChaosPersistentDCFaultFailsWithTaxonomy(t *testing.T) {
	opts := chaosOpts()
	opts.FaultHook = persistentAt(0, FaultNoConverge)
	_, err := chaosRC().Transient(opts)
	if err == nil {
		t.Fatal("persistent DC fault unexpectedly recovered")
	}
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("errors.Is(err, ErrNoConvergence) = false for %v", err)
	}
	if !strings.Contains(err.Error(), "gmin") {
		t.Errorf("error does not mention the failed gmin ladder: %v", err)
	}
}

func TestChaosCancellationInsideNewtonLoop(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := chaosOpts()
	opts.Ctx = ctx
	_, err := chaosRC().Transient(opts)
	if err == nil {
		t.Fatal("cancelled analysis returned no error")
	}
	if !errors.Is(err, engine.ErrCancelled) {
		t.Errorf("errors.Is(err, engine.ErrCancelled) = false for %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	if IsRecoverable(err) {
		t.Errorf("cancellation must not be recoverable: %v", err)
	}
}

func TestChaosPanicInjectionPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("injected panic did not propagate")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "faultinject: forced panic") {
			t.Errorf("unexpected panic payload %v", r)
		}
	}()
	opts := chaosOpts()
	opts.FaultHook = at(25, FaultPanic)
	_, _ = chaosRC().Transient(opts)
}

func TestChaosRecoverySettingNeutralOnCleanRun(t *testing.T) {
	a, err := chaosRC().Transient(chaosOpts())
	if err != nil {
		t.Fatal(err)
	}
	opts := chaosOpts()
	opts.MaxStepHalvings = 8
	b, err := chaosRC().Transient(opts)
	if err != nil {
		t.Fatal(err)
	}
	wa, wb := a.Wave("out"), b.Wave("out")
	if wa.Len() != wb.Len() {
		t.Fatalf("sample counts differ: %d vs %d", wa.Len(), wb.Len())
	}
	for i := range wa.V {
		if wa.V[i] != wb.V[i] || wa.T[i] != wb.T[i] {
			t.Fatalf("sample %d differs on a clean run: (%g,%g) vs (%g,%g)",
				i, wa.T[i], wa.V[i], wb.T[i], wb.V[i])
		}
	}
}
