package itr

import (
	"context"
	"errors"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/engine"
	"sstiming/internal/nineval"
	"sstiming/internal/prechar"
)

// TestRefineCancelled: a cancelled context must abort the refinement with a
// engine.ErrCancelled-wrapped error and no partial result — the request-level
// counterpart of the solver's own cancellation path.
func TestRefineCancelled(t *testing.T) {
	lib := prechar.MustLibrary()
	c := benchgen.C17()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	res, err := Refine(c, nineval.Cube{}, Options{Lib: lib, Ctx: ctx})
	if res != nil {
		t.Fatal("cancelled refinement returned a partial result")
	}
	if !errors.Is(err, engine.ErrCancelled) {
		t.Fatalf("error does not wrap engine.ErrCancelled: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}

	// Without a context the same refinement succeeds — cancellation is a
	// property of the request, not the circuit.
	if _, err := Refine(c, nineval.Cube{}, Options{Lib: lib}); err != nil {
		t.Fatalf("clean refinement failed: %v", err)
	}
}
