// Package faultinject builds deterministic fault-injection hooks for the
// spice solver, so the resilience machinery — the solver's recovery ladder,
// charlib's retry/degradation path, the engine pool's panic containment and
// the conformance campaign's graceful skipping — can be driven by seeded
// chaos tests instead of waiting for a real corner-case circuit to misbehave.
//
// Two granularities are provided:
//
//   - coordinate hooks (At, PersistentAt, Always) force a fault at an exact
//     (step, attempt) position of one transient — unit-test precision;
//   - seeded plans (NewPlan) roll a deterministic hash per (transient, step)
//     coordinate, faulting a configurable fraction of all time points across
//     a whole run — campaign-scale chaos. The decision depends only on
//     (seed, transient ordinal, step), never on scheduling, so a run is
//     reproducible for a fixed seed and transient issue order.
package faultinject

import (
	"fmt"
	"sync/atomic"

	"sstiming/internal/spice"
)

// At returns a hook that faults exactly once: at the given step of the first
// solve attempt. Recovery retries (attempt > 0) are left alone, so the
// injected failure is recoverable by design.
func At(step int, kind spice.FaultKind) spice.FaultHook {
	return func(s int, _ float64, attempt int) spice.FaultKind {
		if s == step && attempt == 0 {
			return kind
		}
		return spice.FaultNone
	}
}

// PersistentAt returns a hook that faults the given step on every attempt,
// defeating the solver's recovery ladder — the failure escalates to the
// caller (and, under charlib, to its retry/degradation machinery).
func PersistentAt(step int, kind spice.FaultKind) spice.FaultHook {
	return func(s int, _ float64, _ int) spice.FaultKind {
		if s == step {
			return kind
		}
		return spice.FaultNone
	}
}

// Always returns a hook that faults every point of every attempt: nothing
// survives, exercising the hard-failure paths.
func Always(kind spice.FaultKind) spice.FaultHook {
	return func(int, float64, int) spice.FaultKind { return kind }
}

// LevelHook adapts a solver hook into a timing graph's per-level hook
// (tgraph.Options.LevelHook): the hook is consulted once per convergence
// level with step = level, and any kind other than FaultNone becomes an
// injected solver error carrying the usual taxonomy sentinel — FaultNaN
// maps to spice.ErrNumerical, everything else to spice.ErrNoConvergence,
// and FaultPanic panics so the caller's containment is exercised. A nil
// hook yields a nil level hook.
func LevelHook(hook spice.FaultHook) func(level int) error {
	if hook == nil {
		return nil
	}
	return func(level int) error {
		switch kind := hook(level, 0, 0); kind {
		case spice.FaultNone:
			return nil
		case spice.FaultPanic:
			panic(fmt.Sprintf("faultinject: injected panic at level %d", level))
		case spice.FaultNaN:
			return &spice.SolveError{Kind: spice.ErrNumerical, Step: level, Injected: true}
		default:
			return &spice.SolveError{Kind: spice.ErrNoConvergence, Step: level, Injected: true}
		}
	}
}

// Plan assigns faults pseudo-randomly across all transients of a run. Hooks
// are handed out one per transient (NextHook); the fault decision for a
// (transient, step) coordinate is a pure hash of (seed, ordinal, step).
type Plan struct {
	seed int64
	// rate is the faulted fraction of time points, in [0, 1].
	rate float64
	kind spice.FaultKind
	// persistent faults survive recovery attempts (attempt > 0) too.
	persistent bool

	next     atomic.Int64
	injected atomic.Int64
}

// NewPlan builds a seeded plan faulting approximately the given fraction of
// all solved time points with the given kind. Persistent plans defeat the
// solver-level recovery ladder (the fault re-fires on every retry attempt),
// escalating the failure to the caller.
func NewPlan(seed int64, rate float64, kind spice.FaultKind, persistent bool) *Plan {
	return &Plan{seed: seed, rate: rate, kind: kind, persistent: persistent}
}

// NextHook returns the hook for the next transient. Call once per transient
// analysis; safe for concurrent use.
func (p *Plan) NextHook() spice.FaultHook {
	if p == nil {
		return nil
	}
	ordinal := p.next.Add(1) - 1
	return func(step int, _ float64, attempt int) spice.FaultKind {
		if attempt > 0 && !p.persistent {
			return spice.FaultNone
		}
		if !p.roll(ordinal, step) {
			return spice.FaultNone
		}
		if attempt == 0 {
			p.injected.Add(1)
		}
		return p.kind
	}
}

// Transients returns the number of hooks handed out so far.
func (p *Plan) Transients() int64 { return p.next.Load() }

// Injected returns the number of distinct (transient, step) points faulted
// so far (recovery re-fires of a persistent fault are not re-counted).
func (p *Plan) Injected() int64 { return p.injected.Load() }

// roll is the deterministic per-coordinate fault decision.
func (p *Plan) roll(ordinal int64, step int) bool {
	h := splitmix64(uint64(p.seed)*0x9e3779b97f4a7c15 ^ uint64(ordinal)*0xbf58476d1ce4e5b9 ^ uint64(step)*0x94d049bb133111eb)
	return float64(h>>11)/(1<<53) < p.rate
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
