package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"sstiming/internal/benchgen"
	"sstiming/internal/engine"
	"sstiming/internal/sta"
)

// bigCircuitSrc generates a netlist large enough that STA cannot possibly
// finish inside a 1 ms deadline.
func bigCircuitSrc(t *testing.T) (*benchgen.Profile, string) {
	t.Helper()
	p := benchgen.Profile{Name: "deadline-big", PIs: 64, POs: 32, Gates: 12000, Depth: 48, Seed: 20010625}
	c, err := benchgen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return &p, benchText(t, c)
}

// TestDeadlinePropagation is the PR's acceptance scenario: a request with a
// 1 ms deadline against a large netlist must come back as a 504-style
// timeout with engine.ErrCancelled in its error chain, must leave the daemon
// serving, and the identical request without a deadline must then succeed.
func TestDeadlinePropagation(t *testing.T) {
	p, src := bigCircuitSrc(t)
	s, hs := newTestServer(t, Options{})

	// 1 ms deadline: a 504 whose kind comes from errors.Is(err,
	// engine.ErrCancelled) in respondJobError.
	resp, raw := postJSON(t, hs.URL+"/analyze", map[string]any{
		"netlist": src, "timeout_ms": 1,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("1ms-deadline request = %d, want 504: %.300s", resp.StatusCode, raw)
	}
	var ej ErrorJSON
	if err := json.Unmarshal(raw, &ej); err != nil {
		t.Fatal(err)
	}
	if ej.Kind != "cancelled" {
		t.Errorf("timeout kind %q, want \"cancelled\" (error: %s)", ej.Kind, ej.Error)
	}
	if ej.RequestID == "" {
		t.Error("timeout response carries no request ID")
	}

	// The same deadline through the submission path itself: the error chain
	// must carry both the solver taxonomy and the context cause.
	c, err := benchgen.Generate(*p)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	err = s.submit(ctx, func(ctx context.Context) error {
		res, err := sta.Analyze(c, sta.Options{Lib: s.library(), Ctx: ctx})
		if err == nil && res != nil {
			t.Error("sta.Analyze returned a result despite the expired deadline")
		}
		return err
	})
	if !errors.Is(err, engine.ErrCancelled) {
		t.Errorf("errors.Is(err, engine.ErrCancelled) = false for %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("errors.Is(err, context.DeadlineExceeded) = false for %v", err)
	}
	if got := s.Metrics().Get(engine.SvcTimeouts); got == 0 {
		t.Error("SvcTimeouts counter not incremented by the 504")
	}

	// Wait for the abandoned background jobs to wind down, then prove the
	// daemon still serves: the identical request without a deadline.
	waitFor(t, "cancelled jobs to finish", func() bool { return s.queue.Inflight() == 0 })
	resp, raw = postJSON(t, hs.URL+"/analyze", map[string]any{"netlist": src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up request without deadline = %d, want 200: %.300s", resp.StatusCode, raw)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(raw, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Circuit.Gates == 0 || ar.MaxPOArrival <= 0 {
		t.Errorf("follow-up analysis not sane: %+v", ar.Circuit)
	}
}

// TestPreCancelledRequestNeverRuns: a context already dead at submission
// answers immediately with the cancellation taxonomy and the job body never
// executes.
func TestPreCancelledRequestNeverRuns(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Bool
	err := s.submit(ctx, func(context.Context) error {
		ran.Store(true)
		return nil
	})
	if !errors.Is(err, engine.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled submit error = %v, want ErrCancelled + context.Canceled", err)
	}
	waitFor(t, "bookkeeping to settle", func() bool { return s.queue.Inflight() == 0 })
	if ran.Load() {
		t.Error("job body ran despite a dead context")
	}
}
