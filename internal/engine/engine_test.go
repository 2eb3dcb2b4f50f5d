package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunDeterministicOrdering: job i writes slot i, so the assembled
// result is identical no matter how many workers raced.
func TestRunDeterministicOrdering(t *testing.T) {
	const n = 200
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 2, 4, 8, 33} {
		got := make([]int, n)
		err := Run(context.Background(), workers, n, func(_ context.Context, i int) error {
			got[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestRunCancellationMidFanout: cancelling the context mid-run stops the
// fan-out early and surfaces the cancellation.
func TestRunCancellationMidFanout(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	const n = 1000
	err := Run(ctx, 2, n, func(ctx context.Context, i int) error {
		if started.Add(1) == 5 {
			cancel()
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Microsecond):
			return nil
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s := started.Load(); s == n {
		t.Fatalf("all %d jobs started despite cancellation", n)
	}
}

// TestRunFailFast: the first failing job cancels the rest, and the
// reported error is the failing job's error, not cancellation noise.
func TestRunFailFast(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	err := Run(context.Background(), 4, 500, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 7 {
			return fmt.Errorf("job %d: %w", i, boom)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Microsecond):
			return nil
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if r := ran.Load(); r == 500 {
		t.Fatal("fail-fast did not stop the fan-out")
	}
}

// TestRunPanicRecovery: a panicking worker becomes an error carrying the
// panic value instead of crashing the process.
func TestRunPanicRecovery(t *testing.T) {
	err := Run(context.Background(), 4, 16, func(_ context.Context, i int) error {
		if i == 3 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want panic error mentioning kaboom", err)
	}
	// The serial path must recover too.
	err = Run(context.Background(), 1, 4, func(_ context.Context, i int) error {
		panic(i)
	})
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("serial err = %v, want panic error", err)
	}
}

// TestRunRealErrorPreferred: with several failing jobs the reported error
// is always one of the real job errors, never the cancellation noise of
// jobs stopped by someone else's failure.
func TestRunRealErrorPreferred(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		err := Run(context.Background(), 8, 64, func(_ context.Context, i int) error {
			if i%2 == 1 {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if err == nil {
			t.Fatal("expected an error")
		}
		if got := err.Error(); !strings.HasPrefix(got, "job ") || !strings.HasSuffix(got, " failed") {
			t.Fatalf("trial %d: err = %q, want a real job error", trial, got)
		}
	}
}

// TestWorkers covers the GOMAXPROCS defaulting.
func TestWorkers(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("Workers must default to at least 1")
	}
	if Workers(7) != 7 {
		t.Fatal("Workers must pass positive values through")
	}
}

// TestRunNilContext: a nil context behaves like context.Background().
func TestRunNilContext(t *testing.T) {
	var sum atomic.Int64
	if err := Run(nil, 4, 10, func(_ context.Context, i int) error { //nolint:staticcheck
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 45 {
		t.Fatalf("sum = %d, want 45", sum.Load())
	}
}

// TestPanicErrorTyped: a recovered worker panic must surface as a
// *PanicError carrying the panic value, retrievable with errors.As.
func TestPanicErrorTyped(t *testing.T) {
	err := Safely(func() error { panic("kaboom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err %T does not unwrap to *PanicError", err)
	}
	if pe.Value != "kaboom" {
		t.Fatalf("Value = %v, want kaboom", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError carries no stack")
	}
}
