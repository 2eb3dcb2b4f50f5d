package engine

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunAllocsIndependentOfN: a parallel Run allocates per call, not per
// job, so a fan-out over thousands of cheap jobs (characterisation grid
// rows, conformance seeds) pays its setup once.
func TestRunAllocsIndependentOfN(t *testing.T) {
	noop := func(context.Context, int) error { return nil }
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(50, func() {
			if err := Run(context.Background(), 2, n, noop); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(16), allocs(1000)
	if large > small {
		t.Errorf("Run(2, 1000) made %.0f allocations, Run(2, 16) made %.0f: cost grows with n", large, small)
	}
	if large > 16 {
		t.Errorf("Run(2, 1000) made %.0f allocations, want a small per-call constant", large)
	}
}

// TestRunGoroutineBound: the calling goroutine is one of the workers, so a
// Run of width w starts at most w-1 goroutines, and a serial Run none.
func TestRunGoroutineBound(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		base := runtime.NumGoroutine()
		var peak atomic.Int64
		err := Run(context.Background(), workers, 64, func(context.Context, int) error {
			g := int64(runtime.NumGoroutine())
			for {
				p := peak.Load()
				if g <= p || peak.CompareAndSwap(p, g) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if extra := int(peak.Load()) - base; extra > workers-1 {
			t.Errorf("workers=%d: %d goroutines beyond the caller's, want at most %d", workers, extra, workers-1)
		}
	}
}

// TestRunEveryIndexOnce: chunked claiming covers [0, n) exactly once for
// widths that do and do not divide n.
func TestRunEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{2, 3, 7, 64} {
		for _, n := range []int{2, 5, 63, 1000, 4097} {
			hits := make([]atomic.Int32, n)
			if err := Run(context.Background(), workers, n, func(_ context.Context, i int) error {
				hits[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, h)
				}
			}
		}
	}
}

// TestRunCancelledBeforeStart: a context that is already done runs no job
// and reports its own error.
func TestRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := Run(ctx, 4, 100, func(context.Context, int) error {
		ran.Add(1)
		return nil
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d jobs ran under a cancelled context", ran.Load())
	}
}
