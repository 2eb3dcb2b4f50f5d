// Package engine is the shared execution substrate of the reproduction.
//
// Every layer of the pipeline is embarrassingly parallel — thousands of
// independent SPICE transients during characterisation, per-gate corner
// evaluation inside one STA level, per-fault ATPG runs — and before this
// package each layer grew its own ad-hoc goroutine fan-out (or none at
// all). The engine centralises that machinery:
//
//   - Pool: a bounded worker pool with context cancellation, panic
//     recovery and fail-fast error aggregation (errgroup-style, stdlib
//     only);
//   - Run: indexed fan-out over N independent jobs with deterministic
//     result placement — job i writes slot i, so a parallel run produces
//     byte-identical artefacts to a serial one;
//   - Metrics: a process-wide instrumentation sink of atomic counters
//     and wall-clock timers that every layer can feed (SPICE Newton
//     iterations, transient steps, characterisation jobs, STA arcs, ITR
//     implications, ATPG backtracks, ...).
//
// Consumers accept an optional *Metrics and a context.Context in their
// Options; both are nil-safe, so instrumentation and cancellation cost
// nothing when unused.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ErrPoolClosed is returned by Pool.Go when the pool no longer accepts
// jobs: after Close or Wait, or once the pool context is cancelled. A
// typed sentinel lets long-lived submitters (the service daemon's job
// queue) distinguish "we are shutting down" from load shedding or a job
// failure.
var ErrPoolClosed = errors.New("engine: pool closed")

// PanicError is the error a recovered worker panic is converted into. It
// carries the recovered value and the goroutine stack at the point of the
// panic, so supervisors (the service daemon's request path) can map crashes
// to 500-style responses without string matching.
type PanicError struct {
	// Value is the value passed to panic().
	Value any
	// Stack is the formatted goroutine stack captured at recovery.
	Stack []byte
}

// Error keeps the historical "engine: worker panic" message shape.
func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: worker panic: %v\n%s", e.Value, e.Stack)
}

// Workers normalises a job-count setting: n <= 0 selects GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Pool runs submitted jobs on at most a fixed number of goroutines.
//
// The first job error (or panic, converted to an error) cancels the pool
// context; jobs submitted afterwards are rejected with ErrPoolClosed. Wait
// returns the first error observed. A Pool must not be reused after Wait
// (Go reports ErrPoolClosed once Wait or Close has run).
type Pool struct {
	ctx    context.Context
	cancel context.CancelFunc
	sem    chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	mu  sync.Mutex
	err error
}

// NewPool creates a pool of the given width running under ctx. A nil ctx
// selects context.Background(); workers <= 0 selects GOMAXPROCS.
func NewPool(ctx context.Context, workers int) *Pool {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	return &Pool{
		ctx:    ctx,
		cancel: cancel,
		sem:    make(chan struct{}, Workers(workers)),
	}
}

// Context returns the pool's context; jobs should pass it to blocking
// sub-operations so cancellation propagates.
func (p *Pool) Context() context.Context { return p.ctx }

// Go submits one job. The call blocks until a worker slot is free (or the
// pool is cancelled), bounding both concurrency and the goroutine count.
//
// Go reports ErrPoolClosed — without running the job — when the pool is
// already closed (Close or Wait) or its context cancelled at the entry
// check; in the cancelled case the returned error additionally wraps the
// context's error, and the cancellation is still recorded for Wait. A call
// that passes the entry check is ADMITTED: it runs even if Close lands
// while it is still waiting for a worker slot — the graceful-drain
// contract is that admitted jobs finish, not just already-running ones.
// (Cancelling the pool context still aborts waiters.) A nil return means
// the job was accepted and will run.
func (p *Pool) Go(job func(ctx context.Context) error) error {
	if p.closed.Load() {
		return ErrPoolClosed
	}
	if err := p.ctx.Err(); err != nil {
		p.fail(err)
		return fmt.Errorf("%w: %w", ErrPoolClosed, err)
	}
	select {
	case p.sem <- struct{}{}:
	case <-p.ctx.Done():
		p.fail(p.ctx.Err())
		return fmt.Errorf("%w: %w", ErrPoolClosed, p.ctx.Err())
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer func() { <-p.sem }()
		if p.ctx.Err() != nil {
			p.fail(p.ctx.Err())
			return
		}
		if err := protect(p.ctx, job); err != nil {
			p.fail(err)
		}
	}()
	return nil
}

// Close marks the pool as no longer accepting jobs: subsequent Go calls
// return ErrPoolClosed without running. Jobs already accepted keep running
// — including submissions that passed Go's entry check and are still
// waiting for a worker slot; Close does not cancel the pool context (use
// the parent context for that). Close is idempotent and safe to call
// concurrently with Go.
func (p *Pool) Close() { p.closed.Store(true) }

// fail records the first error and cancels the pool.
func (p *Pool) fail(err error) {
	if err == nil {
		return
	}
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
	p.cancel()
}

// Wait blocks until every accepted job finished and returns the first
// error observed (nil when all jobs succeeded). Wait closes the pool, so
// later submissions fail with ErrPoolClosed rather than racing a finished
// fan-out.
func (p *Pool) Wait() error {
	p.closed.Store(true)
	p.wg.Wait()
	p.cancel()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// protect runs the job and converts a panic into an error carrying the
// recovered value and stack, so one crashing worker fails the fan-out
// instead of killing the process.
func protect(ctx context.Context, job func(ctx context.Context) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return job(ctx)
}

// Safely runs fn and converts a panic into an error (same containment as the
// pool's per-job recovery). Fan-out callers wrap job bodies with it when they
// want to attach their own context (which cell, which pair) to a crash before
// the pool sees it — a bare pool-level recovery only knows the goroutine, not
// the work item.
func Safely(fn func() error) error {
	return protect(context.Background(), func(context.Context) error { return fn() })
}

// Run executes job(ctx, i) for every i in [0, n) on at most workers
// goroutines (workers <= 0 selects GOMAXPROCS; workers == 1 runs inline
// with no goroutines at all).
//
// Ordering is deterministic by construction: each job owns index i and
// writes only into its own result slot, so the assembled output is
// independent of scheduling. On failure Run cancels outstanding jobs and
// reports the lowest-indexed real job error it observed (never the
// cancellation noise of jobs stopped by someone else's failure).
//
// Scheduling: min(workers, n) workers — the calling goroutine plus
// workers-1 started ones — claim contiguous index chunks from one atomic
// counter. A chunk is a quarter of the remaining indices' fair share,
// capped at maxChunk, so early claims are coarse and the tail hands out
// single indices for balance. Per call Run makes one derived context and
// one recovery frame per worker; per job it does only the claim arithmetic
// and a non-blocking cancellation check, which keeps a fan-out of
// microsecond jobs (one STA level) at the CPU cost of a serial loop.
func Run(ctx context.Context, workers, n int, job func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	w := min(Workers(workers), n)
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := protect(ctx, func(ctx context.Context) error { return job(ctx, i) }); err != nil {
				return err
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := runner{ctx: ctx, cancel: cancel, done: ctx.Done(), job: job, n: int64(n), w: int64(w), firstReal: -1, firstAny: -1}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for k := 1; k < w; k++ {
		go func() {
			defer wg.Done()
			r.work()
		}()
	}
	r.work()
	wg.Wait()
	return r.result()
}

// maxChunk bounds one claim, so a run of slow jobs at one end of a large
// range cannot pin a big share of the work on one worker.
const maxChunk = 64

// runner is the shared state of one parallel Run.
type runner struct {
	ctx    context.Context
	cancel context.CancelFunc
	done   <-chan struct{}
	job    func(ctx context.Context, i int) error
	n, w   int64
	next   atomic.Int64
	halted atomic.Bool // a worker saw the context done before finishing

	mu                  sync.Mutex
	firstReal, firstAny int64 // lowest failing index; -1 when none
	realErr, anyErr     error
}

// claim reserves the next chunk of indices; ok is false once all are taken.
func (r *runner) claim() (lo, hi int64, ok bool) {
	for {
		lo = r.next.Load()
		if lo >= r.n {
			return 0, 0, false
		}
		size := min(max((r.n-lo)/(4*r.w), 1), maxChunk)
		if r.next.CompareAndSwap(lo, lo+size) {
			return lo, lo + size, true
		}
	}
}

// work runs claimed chunks until the indices run out, the context is done,
// or a job fails. A panic ends this worker after recording it against the
// index that raised it.
func (r *runner) work() {
	i := int64(-1)
	defer func() {
		if v := recover(); v != nil {
			r.fail(i, &PanicError{Value: v, Stack: debug.Stack()})
		}
	}()
	for {
		lo, hi, ok := r.claim()
		if !ok {
			return
		}
		for i = lo; i < hi; i++ {
			select {
			case <-r.done:
				r.halted.Store(true)
				return
			default:
			}
			if err := r.job(r.ctx, int(i)); err != nil {
				r.fail(i, err)
				return
			}
		}
	}
}

// fail records a job error and cancels the fan-out.
func (r *runner) fail(i int64, err error) {
	r.mu.Lock()
	if r.firstAny < 0 || i < r.firstAny {
		r.firstAny, r.anyErr = i, err
	}
	if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) &&
		(r.firstReal < 0 || i < r.firstReal) {
		r.firstReal, r.realErr = i, err
	}
	r.mu.Unlock()
	r.cancel()
}

// result selects the error to report: the lowest-indexed real job failure
// beats cancellation noise; a fan-out stopped by the caller's context
// reports that context's error.
func (r *runner) result() error {
	switch {
	case r.realErr != nil:
		return r.realErr
	case r.anyErr != nil:
		return r.anyErr
	case r.halted.Load():
		return r.ctx.Err()
	}
	return nil
}
