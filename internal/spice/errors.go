package spice

import (
	"errors"
	"fmt"
)

// The solver error taxonomy. Every failure Transient can return wraps one of
// these sentinels, so callers triage with errors.Is and never by string
// matching:
//
//   - ErrNoConvergence: the Newton iteration at some time point did not reach
//     the voltage tolerance within the iteration budget, and the recovery
//     ladder (step-halving retries, gmin stepping for the operating point)
//     could not rescue it either;
//   - ErrNumerical: the linear solve produced NaN/Inf (or a singular MNA
//     matrix) — a numerical blow-up rather than a slow-to-converge point.
//
// A cancelled context is not a solver failure: Transient reports it with
// engine.Cancelled, so the error answers errors.Is(err, engine.ErrCancelled)
// and errors.Is(err, context.Canceled).
//
// ErrNoConvergence and ErrNumerical failures additionally carry a *SolveError
// with point-level diagnostics, retrievable with errors.As.
var (
	ErrNoConvergence = errors.New("newton iteration did not converge")
	ErrNumerical     = errors.New("numerical error in linear solve")
)

// IsRecoverable reports whether err is a solver failure the resilience
// machinery may retry (non-convergence or a numerical blow-up). Cancellation
// and structural errors (bad options, unknown nodes) are not recoverable.
func IsRecoverable(err error) bool {
	return errors.Is(err, ErrNoConvergence) || errors.Is(err, ErrNumerical)
}

// SolveError is the diagnostic payload of a failed time-point solve. It
// wraps one of the taxonomy sentinels (Kind), so errors.Is sees through it.
type SolveError struct {
	// Kind is ErrNoConvergence or ErrNumerical.
	Kind error
	// Time is the simulated time of the failed point (seconds); zero for
	// the DC operating point.
	Time float64
	// Step is the transient step index (0 = DC operating point).
	Step int
	// Attempt is the recovery attempt at which the failure occurred
	// (0 = first try, k = k-th step-halving or gmin continuation).
	Attempt int
	// Iters is the number of Newton iterations spent before giving up.
	Iters int
	// Node names the worst-converging (or NaN/Inf-poisoned) unknown.
	Node string
	// Residual is the last Newton update magnitude max|ΔV| in volts
	// (meaningful for ErrNoConvergence).
	Residual float64
	// Injected marks failures forced by a FaultHook (chaos testing).
	Injected bool
	// Cause carries an underlying error (e.g. the singular-matrix detail),
	// when one exists.
	Cause error
}

// Error formats the diagnostics on one line.
func (e *SolveError) Error() string {
	msg := fmt.Sprintf("%v at step %d (t=%.4gs)", e.Kind, e.Step, e.Time)
	if e.Iters > 0 {
		msg += fmt.Sprintf(" after %d iterations", e.Iters)
	}
	if e.Node != "" {
		msg += fmt.Sprintf(", worst node %q", e.Node)
	}
	if e.Residual != 0 {
		msg += fmt.Sprintf(" (residual %.3g V)", e.Residual)
	}
	if e.Attempt > 0 {
		msg += fmt.Sprintf(", recovery attempt %d", e.Attempt)
	}
	if e.Injected {
		msg += " [injected]"
	}
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

// Unwrap exposes the taxonomy sentinel (and the cause, when present) to
// errors.Is/As.
func (e *SolveError) Unwrap() []error {
	if e.Cause != nil {
		return []error{e.Kind, e.Cause}
	}
	return []error{e.Kind}
}
