package faultinject

import (
	"errors"
	"testing"

	"sstiming/internal/spice"
)

func TestAtFiresOnceAndSparesRecovery(t *testing.T) {
	hook := At(7, spice.FaultNaN)
	if got := hook(7, 0, 0); got != spice.FaultNaN {
		t.Errorf("hook(7, attempt 0) = %v, want FaultNaN", got)
	}
	if got := hook(7, 0, 1); got != spice.FaultNone {
		t.Errorf("hook(7, attempt 1) = %v, want FaultNone (recovery spared)", got)
	}
	if got := hook(8, 0, 0); got != spice.FaultNone {
		t.Errorf("hook(8) = %v, want FaultNone", got)
	}
}

func TestPersistentAtDefeatsRecovery(t *testing.T) {
	hook := PersistentAt(7, spice.FaultNoConverge)
	for attempt := 0; attempt < 5; attempt++ {
		if got := hook(7, 0, attempt); got != spice.FaultNoConverge {
			t.Errorf("hook(7, attempt %d) = %v, want FaultNoConverge", attempt, got)
		}
	}
}

func TestAlways(t *testing.T) {
	hook := Always(spice.FaultPanic)
	if got := hook(3, 1e-9, 2); got != spice.FaultPanic {
		t.Errorf("hook = %v, want FaultPanic", got)
	}
}

// TestLevelHookMapsKinds: each fault kind becomes the matching injected
// solver error at its level, a panic kind panics, and no hook yields no
// level hook.
func TestLevelHookMapsKinds(t *testing.T) {
	if LevelHook(nil) != nil {
		t.Error("LevelHook(nil) is not nil")
	}
	for _, tc := range []struct {
		kind spice.FaultKind
		want error
	}{{spice.FaultNone, nil}, {spice.FaultNaN, spice.ErrNumerical}, {spice.FaultNoConverge, spice.ErrNoConvergence}} {
		err := LevelHook(PersistentAt(3, tc.kind))(3)
		if tc.want == nil {
			if err != nil {
				t.Errorf("kind %v: level hook returned %v, want nil", tc.kind, err)
			}
			continue
		}
		var se *spice.SolveError
		if !errors.Is(err, tc.want) || !errors.As(err, &se) || !se.Injected || se.Step != 3 {
			t.Errorf("kind %v: level hook returned %v, want an injected %v at step 3", tc.kind, err, tc.want)
		}
	}
	if err := LevelHook(PersistentAt(3, spice.FaultNaN))(4); err != nil {
		t.Errorf("level 4 faulted under a level-3 hook: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("FaultPanic did not panic")
		}
	}()
	_ = LevelHook(Always(spice.FaultPanic))(0)
}

func TestPlanDeterministicAcrossRuns(t *testing.T) {
	decisions := func() []spice.FaultKind {
		p := NewPlan(42, 0.1, spice.FaultNoConverge, false)
		var out []spice.FaultKind
		for tr := 0; tr < 20; tr++ {
			hook := p.NextHook()
			for step := 0; step < 50; step++ {
				out = append(out, hook(step, 0, 0))
			}
		}
		return out
	}
	a, b := decisions(), decisions()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identically seeded plans", i)
		}
	}
}

func TestPlanRateApproximatelyHonored(t *testing.T) {
	const rate = 0.05
	p := NewPlan(7, rate, spice.FaultNaN, false)
	total, faulted := 0, 0
	for tr := 0; tr < 100; tr++ {
		hook := p.NextHook()
		for step := 0; step < 100; step++ {
			total++
			if hook(step, 0, 0) != spice.FaultNone {
				faulted++
			}
		}
	}
	got := float64(faulted) / float64(total)
	if got < rate/2 || got > rate*2 {
		t.Errorf("faulted fraction %.4f, want ~%.2f", got, rate)
	}
	if p.Injected() != int64(faulted) {
		t.Errorf("Injected() = %d, want %d", p.Injected(), faulted)
	}
	if p.Transients() != 100 {
		t.Errorf("Transients() = %d, want 100", p.Transients())
	}
}

func TestPlanOneShotSparesRecoveryAttempts(t *testing.T) {
	p := NewPlan(3, 1.0, spice.FaultNoConverge, false)
	hook := p.NextHook()
	if got := hook(5, 0, 0); got != spice.FaultNoConverge {
		t.Fatalf("attempt 0 = %v, want fault (rate 1.0)", got)
	}
	if got := hook(5, 0, 1); got != spice.FaultNone {
		t.Errorf("attempt 1 = %v, want FaultNone for a one-shot plan", got)
	}

	pp := NewPlan(3, 1.0, spice.FaultNoConverge, true)
	phook := pp.NextHook()
	if got := phook(5, 0, 1); got != spice.FaultNoConverge {
		t.Errorf("persistent plan attempt 1 = %v, want fault", got)
	}
	// Recovery re-fires are not double-counted.
	if pp.Injected() != 0 {
		t.Errorf("Injected() = %d after attempt-1 fire, want 0", pp.Injected())
	}
}

func TestPlanSeedChangesDecisions(t *testing.T) {
	sample := func(seed int64) []bool {
		p := NewPlan(seed, 0.2, spice.FaultNaN, false)
		hook := p.NextHook()
		out := make([]bool, 200)
		for step := range out {
			out[step] = hook(step, 0, 0) != spice.FaultNone
		}
		return out
	}
	a, b := sample(1), sample(2)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical fault patterns")
	}
}

func TestNilPlanHook(t *testing.T) {
	var p *Plan
	if hook := p.NextHook(); hook != nil {
		t.Error("nil plan must hand out nil hooks")
	}
}

func TestParseFaultKindRoundTrip(t *testing.T) {
	for _, kind := range []spice.FaultKind{spice.FaultNoConverge, spice.FaultNaN, spice.FaultPanic} {
		got, err := spice.ParseFaultKind(kind.String())
		if err != nil || got != kind {
			t.Errorf("ParseFaultKind(%q) = %v, %v", kind.String(), got, err)
		}
	}
	if _, err := spice.ParseFaultKind("bogus"); err == nil {
		t.Error("ParseFaultKind accepted a bogus kind")
	}
}
