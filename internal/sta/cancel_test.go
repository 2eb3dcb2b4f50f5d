package sta

import (
	"context"
	"errors"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/engine"
	"sstiming/internal/prechar"
)

// TestAnalyzeCancelled: a cancelled context must abort the analysis with an
// error wrapping engine.ErrCancelled, never a partial window map.
func TestAnalyzeCancelled(t *testing.T) {
	lib := prechar.MustLibrary()
	c, err := benchgen.Load("c880")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	res, err := Analyze(c, Options{Lib: lib, Ctx: ctx})
	if res != nil {
		t.Fatal("cancelled analysis returned a partial result")
	}
	if !errors.Is(err, engine.ErrCancelled) {
		t.Fatalf("error does not wrap engine.ErrCancelled: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}

	// The same analysis without a context succeeds.
	if _, err := Analyze(c, Options{Lib: lib}); err != nil {
		t.Fatalf("clean analysis failed: %v", err)
	}
}
