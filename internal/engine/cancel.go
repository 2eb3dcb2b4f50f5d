package engine

import "errors"

// ErrCancelled reports that the caller's context was cancelled or its
// deadline passed. Errors carrying it also wrap the context's own error,
// so errors.Is(err, context.Canceled) or errors.Is(err,
// context.DeadlineExceeded) keeps working.
var ErrCancelled = errors.New("analysis cancelled")

// cancelError wraps a context error so that both errors.Is(err, ErrCancelled)
// and errors.Is(err, cause) hold.
type cancelError struct{ cause error }

func (e *cancelError) Error() string   { return ErrCancelled.Error() + ": " + e.cause.Error() }
func (e *cancelError) Unwrap() []error { return []error{ErrCancelled, e.cause} }

// Cancelled wraps a non-nil context error (context.Canceled or
// context.DeadlineExceeded) so that both errors.Is(err, ErrCancelled) and
// errors.Is(err, cause) hold. Every layer that honours a context — the
// solver, the timing graph, the service daemon — reports cancellation
// through it. If cause already carries ErrCancelled it is returned
// unchanged.
func Cancelled(cause error) error {
	if errors.Is(cause, ErrCancelled) {
		return cause
	}
	return &cancelError{cause: cause}
}
