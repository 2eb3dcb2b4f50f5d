package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sstiming/internal/benchgen"
)

// TestDrainFailsReadinessFirstThenWaitsInflight is the graceful-shutdown
// contract: the moment Drain starts, readiness fails and new jobs are
// refused — while the in-flight job keeps running to completion — and only
// then does Drain return.
func TestDrainFailsReadinessFirstThenWaitsInflight(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 1, QueueDepth: -1})
	gate := make(chan struct{})
	jobErr := make(chan error, 1)
	go func() {
		jobErr <- s.submit(context.Background(), func(context.Context) error {
			<-gate
			return nil
		})
	}()
	waitFor(t, "in-flight job", func() bool { return s.queue.Inflight() == 1 })

	drainErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { drainErr <- s.Drain(ctx) }()
	waitFor(t, "drain to start", func() bool { return s.Draining() })

	// Readiness fails while the job is STILL in flight: load balancers stop
	// routing before any work is lost.
	if got := s.queue.Inflight(); got != 1 {
		t.Fatalf("in-flight count during drain = %d, want 1", got)
	}
	resp, raw := getURL(t, hs.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /readyz during drain = %d, want 503: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "draining") {
		t.Errorf("/readyz does not name the drain as the reason: %s", raw)
	}

	// New work is refused as "draining", not "overloaded".
	resp, raw = postJSON(t, hs.URL+"/analyze", map[string]any{
		"netlist": benchText(t, benchgen.C17()),
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST during drain = %d, want 503: %s", resp.StatusCode, raw)
	}
	var ej ErrorJSON
	if err := json.Unmarshal(raw, &ej); err != nil {
		t.Fatal(err)
	}
	if ej.Kind != "draining" {
		t.Errorf("kind %q, want \"draining\"", ej.Kind)
	}

	// The in-flight job finishes; Drain then returns cleanly.
	select {
	case err := <-drainErr:
		t.Fatalf("Drain returned %v before the in-flight job finished", err)
	default:
	}
	close(gate)
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain = %v, want nil", err)
	}
	if err := <-jobErr; err != nil {
		t.Fatalf("in-flight job was not allowed to finish: %v", err)
	}
	if got := s.queue.Inflight(); got != 0 {
		t.Errorf("in-flight count after drain = %d, want 0", got)
	}

	// Still refused after the drain completes — queue-level submissions too.
	resp, _ = postJSON(t, hs.URL+"/analyze", map[string]any{
		"netlist": benchText(t, benchgen.C17()),
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST after drain = %d, want 503", resp.StatusCode)
	}
	if err := s.queue.Submit(context.Background(), func(context.Context) error { return nil }); !errors.Is(err, ErrDraining) {
		t.Errorf("queue.Submit after drain = %v, want ErrDraining", err)
	}
}

// TestDrainRunsQueuedJobs: a job admitted into the bounded queue — counted
// in flight, its client awaiting the answer — but still WAITING for a
// worker when Drain begins must run to completion, not be refused with
// "draining": admission is the promise, and these clients were admitted
// before shutdown started.
func TestDrainRunsQueuedJobs(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	gate := make(chan struct{})
	blockerErr := make(chan error, 1)
	go func() {
		blockerErr <- s.submit(context.Background(), func(context.Context) error {
			<-gate
			return nil
		})
	}()
	waitFor(t, "blocker to occupy the worker", func() bool { return s.queue.Inflight() == 1 })

	var ran atomic.Bool
	queuedErr := make(chan error, 1)
	go func() {
		queuedErr <- s.submit(context.Background(), func(context.Context) error {
			ran.Store(true)
			return nil
		})
	}()
	waitFor(t, "second job to be admitted", func() bool { return s.queue.Inflight() == 2 })

	drainErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { drainErr <- s.Drain(ctx) }()
	waitFor(t, "drain to start", func() bool { return s.Draining() })

	close(gate)
	if err := <-blockerErr; err != nil {
		t.Fatalf("running job failed during drain: %v", err)
	}
	if err := <-queuedErr; err != nil {
		t.Fatalf("queued-but-admitted job refused during drain: %v", err)
	}
	if !ran.Load() {
		t.Fatal("queued job never ran")
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain = %v, want nil", err)
	}
}

// TestDrainDeadlineExceeded: a job that refuses to finish makes Drain give
// up at its deadline with an error naming the stragglers.
func TestDrainDeadlineExceeded(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1, QueueDepth: -1})
	gate := make(chan struct{})
	jobErr := make(chan error, 1)
	go func() {
		jobErr <- s.submit(context.Background(), func(context.Context) error {
			<-gate
			return nil
		})
	}()
	waitFor(t, "in-flight job", func() bool { return s.queue.Inflight() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := s.Drain(ctx)
	if err == nil {
		t.Fatal("Drain returned nil with a job still in flight")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Drain error = %v, want context.DeadlineExceeded in the chain", err)
	}
	if !strings.Contains(err.Error(), "in flight") {
		t.Errorf("Drain error does not name the stragglers: %v", err)
	}

	// Release the job so the cleanup drain succeeds.
	close(gate)
	if err := <-jobErr; err != nil {
		t.Fatalf("straggler job failed: %v", err)
	}
}
