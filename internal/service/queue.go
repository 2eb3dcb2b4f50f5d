package service

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"sstiming/internal/engine"
)

// ErrShedLoad is returned when the bounded job queue is full: the request
// is rejected immediately (429 + Retry-After) instead of building an
// unbounded backlog. Distinct from ErrDraining, which signals shutdown
// (503).
var ErrShedLoad = errors.New("service: job queue full")

// ErrDraining is returned for work refused because the daemon is draining
// (503, kind "draining"). Its text is part of the wire contract: it is the
// 503 body's error field, which clients may match.
var ErrDraining = errors.New("engine: pool closed: draining")

// jobQueue is the daemon's admission-controlled execution path, two
// semaphore channels wide:
//
//   - pending admits at most workers+depth unfinished jobs; a submission
//     that finds it full is shed with ErrShedLoad before consuming any
//     solver resources;
//   - run grants one of `workers` execution slots, so at most `workers`
//     jobs run concurrently;
//   - a request whose deadline fires while queued never starts and gets
//     its engine.ErrCancelled answer; one whose deadline fires while running
//     gets the answer immediately, and the job observes the same context
//     and aborts at its next cancellation point;
//   - job panics are contained per job (engine.Safely) and surface as
//     *engine.PanicError;
//   - after Drain, submissions fail with ErrDraining so the handler layer
//     can answer "shutting down" rather than "overloaded" — but admission
//     is a promise: a job that entered the queue before the drain began
//     runs to completion even if it was still waiting for a slot.
//
// A queued job waits on its submitter's goroutine; a running one gets one
// goroutine of its own, so a deadline can answer while it winds down.
type jobQueue struct {
	pending chan struct{}
	run     chan struct{}
	// closed refuses new admissions once Drain began. It is checked before
	// the pending slot only, so already-admitted jobs keep running.
	closed atomic.Bool
	met    *engine.Metrics
}

func newJobQueue(workers, depth int, met *engine.Metrics) *jobQueue {
	w := engine.Workers(workers)
	return &jobQueue{
		pending: make(chan struct{}, w+max(depth, 0)),
		run:     make(chan struct{}, w),
		met:     met,
	}
}

// Submit runs fn under ctx and waits for it (or for ctx). The returned
// error is fn's own error, ErrShedLoad, ErrDraining, an engine.ErrCancelled
// wrap, or an *engine.PanicError wrap.
func (q *jobQueue) Submit(ctx context.Context, fn func(ctx context.Context) error) error {
	if q.closed.Load() {
		return ErrDraining
	}
	select {
	case q.pending <- struct{}{}:
	default:
		q.met.Add(engine.SvcShed, 1)
		return ErrShedLoad
	}
	select {
	case q.run <- struct{}{}:
	case <-ctx.Done():
		// Deadline fired while queued: never start the work.
		<-q.pending
		return engine.Cancelled(ctx.Err())
	}
	if err := ctx.Err(); err != nil {
		// Both were ready and select took the slot: still never start.
		<-q.run
		<-q.pending
		return engine.Cancelled(err)
	}
	done := make(chan error, 1)
	go func() {
		err := engine.Safely(func() error { return fn(ctx) })
		<-q.run
		<-q.pending
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		// The running job sees the same context and winds down on its
		// own; its slots are released by the goroutine above.
		return engine.Cancelled(ctx.Err())
	}
}

// Inflight returns the number of admitted, unfinished jobs.
func (q *jobQueue) Inflight() int { return len(q.pending) }

// Drain stops admission and waits until every in-flight job finished —
// queued-but-not-yet-running jobs included, since admission is the promise
// — or until ctx fires (returning an error naming the stragglers).
func (q *jobQueue) Drain(ctx context.Context) error {
	q.closed.Store(true)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if q.Inflight() == 0 {
			return nil
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return fmt.Errorf("service: drain deadline exceeded with %d jobs in flight: %w",
				q.Inflight(), ctx.Err())
		}
	}
}
