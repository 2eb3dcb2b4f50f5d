// Package service is the timing-analysis daemon: a long-running HTTP/JSON
// front end that loads a characterised cell library once and serves STA and
// ITR jobs over POSTed netlists.
//
// The request path is built for robustness (DESIGN.md §10):
//
//   - every request runs under a context carrying its deadline; the
//     deadline reaches sta.Analyze, sta.Refine and the timing graph's
//     converge loop, so a cancelled request answers 504 with
//     engine.ErrCancelled in the chain and never holds a worker;
//   - admission control is a bounded job queue (queue.go): at most
//     `workers` jobs run at once, and beyond workers+depth admitted jobs
//     the daemon sheds load with 429 + Retry-After instead of queueing
//     unboundedly;
//   - job and handler panics are contained per request and answered as
//     500s carrying a request ID — a crash never takes the daemon down;
//   - stateful timing sessions (POST /session, see session.go) keep a
//     persistent incremental timing graph alive across requests so a
//     delta pays only for its edited cone; per-session locks serialize
//     concurrent deltas, an LRU cap plus idle TTL bound resident graphs
//     (evicted IDs answer 404 naming the eviction reason), and a drain
//     refuses new sessions and deltas while in-flight ones complete;
//   - /healthz is liveness, /readyz gates on drain state and library load,
//     /metrics exposes the engine counters plus per-endpoint latency
//     histograms; Drain stops admission first (readiness fails), then waits
//     for in-flight jobs — admitted-but-still-queued jobs included.
package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"sstiming/internal/core"
	"sstiming/internal/engine"
	"sstiming/internal/httpmw"
	"sstiming/internal/reqcache"
	"sstiming/internal/store"
)

// endpointOrder lists the instrumented endpoints (histogram render order).
// The four /session routes share one "session" histogram: their latency
// profile is dominated by the same incremental-converge work.
var endpointOrder = []string{"analyze", "refine", "session", "reload", "healthz", "readyz", "metrics"}

// maxBodyBytes caps request bodies; a larger one answers 400 bad-request.
const maxBodyBytes = 8 << 20

// ErrTechMismatch refuses a hot reload whose library was characterised for a
// different process technology than the one being served: requests in flight
// assume one technology, and silently swapping it under them is the timing
// equivalent of a split-brain.
var ErrTechMismatch = errors.New("service: reload refused, library technology differs from the serving one")

// Options configures a Server.
type Options struct {
	// Lib is the characterised cell library served at boot (required).
	Lib *core.Library
	// LibLoader, when non-nil, re-loads the library for hot reload
	// (SIGHUP / POST /reload). It should return a fully verified library;
	// on error the previous library keeps serving.
	LibLoader func() (*core.Library, error)
	// Workers bounds concurrently running jobs; <= 0 selects GOMAXPROCS.
	Workers int
	// QueueDepth is how many admitted jobs may wait for a worker beyond
	// the running ones; above workers+depth the daemon sheds load.
	// Negative means no waiting room; zero selects 2×workers.
	QueueDepth int
	// DefaultTimeout is the per-request deadline when the client sets
	// none; zero means no server-imposed deadline.
	DefaultTimeout time.Duration
	// MaxGates rejects posted netlists above this size (admission
	// control); zero selects 100000, negative disables the cap.
	MaxGates int
	// MaxSessions caps concurrently live timing sessions; creating one
	// more evicts the least-recently-used session. Zero selects 64,
	// negative disables the cap.
	MaxSessions int
	// SessionIdleTTL evicts sessions untouched for this long (checked
	// lazily on session traffic). Zero selects 15 minutes, negative
	// disables idle eviction.
	SessionIdleTTL time.Duration
	// CacheEntries enables the content-addressed analysis cache
	// (internal/reqcache) on /analyze and /refine, capped at this many
	// resident responses. Zero or negative disables caching (the zero
	// value preserves the uncached request path exactly).
	CacheEntries int
	// CacheBytes caps the resident cached-response bytes (their JSON
	// encoding size); <= 0 means no byte bound. Only meaningful with
	// CacheEntries > 0.
	CacheBytes int64
	// CacheMaxEntryBytes is the per-response admission cap: a response
	// larger than this (JSON encoding size) is served but never cached, so
	// one pathological windows dump cannot evict the whole working set.
	// <= 0 means no per-entry bound. Only meaningful with CacheEntries > 0.
	CacheMaxEntryBytes int64
	// SessionDir enables crash-recoverable sessions: every timing session
	// journals its creation and deltas to a write-ahead log under this
	// directory (internal/sessionlog), deltas are acknowledged only after
	// their frame is durable, and RecoverSessions rebuilds resident
	// sessions from the logs at startup. Empty keeps sessions in-memory
	// only (the pre-durability behaviour, byte for byte).
	SessionDir string
	// SessionSnapshotEvery compacts a session's journal after this many
	// durable deltas: the converged graph is checkpointed and the log
	// truncated, bounding replay cost. Zero selects 64; negative disables
	// the delta-count trigger.
	SessionSnapshotEvery int
	// SessionSnapshotBytes compacts when the journal file exceeds this
	// size. Zero selects 1 MiB; negative disables the byte trigger.
	SessionSnapshotBytes int64
	// SessionLogFaultHook injects deterministic faults into session
	// journal operations (chaos testing; see sessionlog.Options).
	SessionLogFaultHook func(op string) error
	// Metrics is the instrumentation sink; nil creates a private one.
	Metrics *engine.Metrics
	// LevelHook, when non-nil, is the tgraph.Options.LevelHook of every
	// session POST /session creates: it runs before each level of each
	// convergence pass, and an error it returns fails that pass (chaos
	// testing; see faultinject.LevelHook).
	LevelHook func(level int) error
}

func (o *Options) fill() error {
	if o.Lib == nil {
		return fmt.Errorf("service: Options.Lib is required")
	}
	o.Workers = engine.Workers(o.Workers)
	if o.QueueDepth == 0 {
		o.QueueDepth = 2 * o.Workers
	}
	if o.QueueDepth < 0 {
		o.QueueDepth = 0
	}
	if o.MaxGates == 0 {
		o.MaxGates = 100000
	}
	if o.MaxSessions == 0 {
		o.MaxSessions = 64
	}
	if o.SessionIdleTTL == 0 {
		o.SessionIdleTTL = 15 * time.Minute
	}
	if o.SessionSnapshotEvery == 0 {
		o.SessionSnapshotEvery = 64
	}
	if o.SessionSnapshotBytes == 0 {
		o.SessionSnapshotBytes = 1 << 20
	}
	if o.Metrics == nil {
		o.Metrics = engine.NewMetrics()
	}
	return nil
}

// libState pairs the serving library with its content fingerprint. The two
// travel as one atomically-swapped value so a request never observes a fresh
// library under a stale fingerprint (or vice versa) across a hot reload —
// the torn pair would let a stale cache entry serve against the new library.
type libState struct {
	lib *core.Library
	fp  string
}

// Server is the daemon's request-path state. Construct with New, mount
// Handler on an http.Server, and call Drain on shutdown.
type Server struct {
	opts Options
	// libst is the serving (library, fingerprint) pair; hot reload swaps
	// the pointer atomically, so a request sees one consistent library end
	// to end.
	libst    atomic.Pointer[libState]
	met      *engine.Metrics
	queue    *jobQueue
	sessions *sessionStore
	cache    *reqcache.Cache // nil when CacheEntries <= 0
	mux      *http.ServeMux
	inst     *httpmw.Instrumenter

	started  time.Time
	draining atomic.Bool
}

// New builds a Server: validates the options, loads nothing lazily — the
// library is already resident — and wires the routes.
func New(opts Options) (*Server, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	s := &Server{
		opts:     opts,
		met:      opts.Metrics,
		queue:    newJobQueue(opts.Workers, opts.QueueDepth, opts.Metrics),
		sessions: newSessionStore(opts.MaxSessions, opts.SessionIdleTTL, opts.Metrics),
		mux:      http.NewServeMux(),
		inst:     httpmw.NewInstrumenter(opts.Metrics, endpointOrder),
		started:  time.Now(),
	}
	fp, err := store.LibraryFingerprint(opts.Lib)
	if err != nil {
		return nil, fmt.Errorf("service: fingerprinting the boot library: %w", err)
	}
	s.libst.Store(&libState{lib: opts.Lib, fp: fp})
	if opts.CacheEntries > 0 {
		s.cache = reqcache.New(opts.CacheEntries, opts.CacheBytes, opts.Metrics)
		s.cache.SetMaxEntryBytes(opts.CacheMaxEntryBytes)
	}
	s.mux.Handle("POST /analyze", s.inst.Wrap("analyze", s.handleAnalyze))
	s.mux.Handle("POST /refine", s.inst.Wrap("refine", s.handleRefine))
	s.mux.Handle("POST /session", s.inst.Wrap("session", s.handleSessionCreate))
	s.mux.Handle("POST /session/{id}/delta", s.inst.Wrap("session", s.handleSessionDelta))
	s.mux.Handle("GET /session/{id}/windows", s.inst.Wrap("session", s.handleSessionWindows))
	s.mux.Handle("DELETE /session/{id}", s.inst.Wrap("session", s.handleSessionDelete))
	s.mux.Handle("POST /reload", s.inst.Wrap("reload", s.handleReload))
	s.mux.Handle("GET /healthz", s.inst.Wrap("healthz", s.handleHealthz))
	s.mux.Handle("GET /readyz", s.inst.Wrap("readyz", s.handleReadyz))
	s.mux.Handle("GET /metrics", s.inst.Wrap("metrics", s.handleMetrics))
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// library returns the currently served library.
func (s *Server) library() *core.Library { return s.libstate().lib }

// libstate returns the consistent (library, fingerprint) snapshot.
func (s *Server) libstate() *libState { return s.libst.Load() }

// Reload re-runs the configured LibLoader and atomically swaps the serving
// library in. On failure the reload is refused (typed error,
// service/reload_failures incremented) and the previous library keeps
// serving untouched. A library characterised for a different technology tag
// than the serving one is refused with ErrTechMismatch.
func (s *Server) Reload() (*core.Library, error) {
	if s.opts.LibLoader == nil {
		s.met.Add(engine.SvcReloadFails, 1)
		return nil, fmt.Errorf("service: no library loader configured for reload")
	}
	fresh, err := s.opts.LibLoader()
	if err != nil {
		s.met.Add(engine.SvcReloadFails, 1)
		return nil, fmt.Errorf("service: reload failed, keeping the serving library: %w", err)
	}
	if fresh == nil || len(fresh.Cells) == 0 {
		s.met.Add(engine.SvcReloadFails, 1)
		return nil, fmt.Errorf("service: reload produced an empty library, keeping the serving one")
	}
	if cur := s.library(); cur != nil && cur.TechName != fresh.TechName {
		s.met.Add(engine.SvcReloadFails, 1)
		return nil, fmt.Errorf("%w: serving %q, reload offers %q", ErrTechMismatch, cur.TechName, fresh.TechName)
	}
	fp, err := store.LibraryFingerprint(fresh)
	if err != nil {
		s.met.Add(engine.SvcReloadFails, 1)
		return nil, fmt.Errorf("service: reload failed fingerprinting, keeping the serving library: %w", err)
	}
	s.libst.Store(&libState{lib: fresh, fp: fp})
	s.met.Add(engine.SvcReloads, 1)
	// Every cached answer derived from a different fingerprint is stale
	// now. Keys embed the fingerprint, so stale entries were already
	// unreachable the instant the pointer swapped; dropping them returns
	// their memory and counts the invalidation. A byte-identical reload
	// keeps the fingerprint and therefore the warm cache.
	if s.cache != nil {
		s.cache.Invalidate(fp)
	}
	return fresh, nil
}

// Metrics returns the instrumentation sink (for operator dumps).
func (s *Server) Metrics() *engine.Metrics { return s.met }

// submit routes one job through admission control. While draining, jobs are
// refused with ErrDraining (503) before touching the queue.
func (s *Server) submit(ctx context.Context, fn func(ctx context.Context) error) error {
	if s.draining.Load() {
		return ErrDraining
	}
	return s.queue.Submit(ctx, fn)
}

// Draining reports whether Drain has been initiated.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain performs the graceful-shutdown sequence: first readiness fails and
// new jobs are refused, then the call blocks until every in-flight job
// finished or ctx fires. Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	err := s.queue.Drain(ctx)
	// With every in-flight delta finished, close the session journals so
	// their last frames are flushed file handles, not dangling ones — the
	// logs stay on disk and the next boot's RecoverSessions resurrects the
	// sessions.
	s.sessions.closeLogs()
	return err
}
