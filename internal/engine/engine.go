// Package engine is the shared execution substrate of the reproduction.
//
// The coarse layers of the pipeline are embarrassingly parallel —
// thousands of independent SPICE transients during characterisation,
// per-fault ATPG runs, conformance seeds — and before this package each
// layer grew its own ad-hoc goroutine fan-out (or none at all). The engine
// centralises that machinery:
//
//   - Run: indexed fan-out over N independent jobs with deterministic
//     result placement — job i writes slot i, so a parallel run produces
//     byte-identical artefacts to a serial one — with context
//     cancellation, panic recovery and fail-fast error aggregation;
//   - Safely: the same panic containment for a single job body, for
//     callers that schedule their own goroutines (the service daemon's
//     job queue);
//   - ErrCancelled and Cancelled: the one cancellation error every layer
//     reports when its caller's context fires (the solver, the timing
//     graph, the daemon), answering errors.Is for both ErrCancelled and
//     the context's own error;
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

// Safely runs fn and converts a panic into a *PanicError carrying the
// recovered value and stack, so one crashing job fails its own request or
// fan-out instead of killing the process. Fan-out callers also wrap job
// bodies with it when they want to attach their own context (which cell,
// which pair) to a crash — Run's own recovery only knows the index, not
// the work item.
func Safely(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
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
// and a non-blocking cancellation check.
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
			if err := Safely(func() error { return job(ctx, i) }); err != nil {
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
