package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// TestCancelledWrapsBothIdentities: a wrapped context error answers both
// errors.Is(err, ErrCancelled) and errors.Is(err, cause), keeps the
// "analysis cancelled" text, and wrapping again changes nothing.
func TestCancelledWrapsBothIdentities(t *testing.T) {
	for _, cause := range []error{context.Canceled, context.DeadlineExceeded} {
		err := Cancelled(cause)
		if !errors.Is(err, ErrCancelled) {
			t.Errorf("Cancelled(%v): errors.Is(err, ErrCancelled) = false", cause)
		}
		if !errors.Is(err, cause) {
			t.Errorf("Cancelled(%v): errors.Is(err, cause) = false", cause)
		}
		if want := "analysis cancelled: " + cause.Error(); err.Error() != want {
			t.Errorf("Cancelled(%v).Error() = %q, want %q", cause, err.Error(), want)
		}
		if again := Cancelled(err); again != err {
			t.Errorf("Cancelled of an already-cancelled error rewrapped it: %v", again)
		}
		wrapped := fmt.Errorf("layer: %w", err)
		if again := Cancelled(wrapped); again != wrapped {
			t.Errorf("Cancelled of a wrapped cancellation rewrapped it: %v", again)
		}
	}
}
