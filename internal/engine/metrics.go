package engine

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter identifies one engine-wide atomic counter. Counters are a fixed
// enum (not free-form strings) so the hot paths pay one atomic add and no
// map lookups.
type Counter int

const (
	// SpiceTransients counts completed transient analyses.
	SpiceTransients Counter = iota
	// SpiceTransSteps counts accepted integration time steps.
	SpiceTransSteps
	// SpiceNewtonIters counts Newton-Raphson iterations across all time
	// points (the innermost unit of simulation work).
	SpiceNewtonIters
	// SpiceStepRetries counts time points that failed to converge and
	// entered the step-halving recovery ladder.
	SpiceStepRetries
	// SpiceStepHalvings counts halving levels attempted across all
	// recoveries (a point rescued at h/4 contributes 2).
	SpiceStepHalvings
	// SpiceGminSteps counts gmin continuation solves spent rescuing DC
	// operating points.
	SpiceGminSteps
	// SpiceRecovered counts time points rescued by the recovery ladder.
	SpiceRecovered
	// SpiceUnrecovered counts time points the recovery ladder gave up on
	// (the transient then fails with a typed error).
	SpiceUnrecovered
	// FaultsInjected counts faults forced by a FaultHook (chaos testing).
	FaultsInjected
	// CharJobs counts characterisation simulations issued by charlib
	// (memoisation hits do not count).
	CharJobs
	// CharRetries counts characterisation simulations that only succeeded
	// after a retry with tightened solver settings.
	CharRetries
	// CharDegraded counts characterisation points that never converged and
	// were interpolated from neighbouring grid points.
	CharDegraded
	// CharCells counts characterised cells.
	CharCells
	// STAGates counts gates propagated by sta.Analyze.
	STAGates
	// STAArcs counts timing arcs evaluated during window propagation
	// (input pin x direction).
	STAArcs
	// ITRRefines counts refinements: sta.Refine calls and ATPG decision steps.
	ITRRefines
	// ITRImplications counts per-line window refinements under implied
	// transition states.
	ITRImplications
	// SimGateEvals counts gate evaluations in two-pattern timing
	// simulation.
	SimGateEvals
	// ATPGFaults counts fault targets attempted.
	ATPGFaults
	// ATPGDecisions counts PI value assignments explored by the PODEM
	// search.
	ATPGDecisions
	// ATPGBacktracks counts search backtracks.
	ATPGBacktracks
	// ConfSeeds counts conformance campaign seeds executed.
	ConfSeeds
	// ConfChecks counts individual conformance check evaluations
	// (one check run against one seed's artefacts).
	ConfChecks
	// ConfViolations counts conformance invariant violations found.
	ConfViolations
	// ConfSkipped counts conformance checks skipped (e.g. a generated
	// circuit too large for the flattened transistor-level oracle).
	ConfSkipped
	// SvcRequests counts HTTP requests accepted by the timing service
	// (all endpoints, after routing).
	SvcRequests
	// SvcShed counts requests rejected by admission control because the
	// job queue was full (429 responses).
	SvcShed
	// SvcTimeouts counts requests that exceeded their deadline (504
	// responses with ErrCancelled in the chain).
	SvcTimeouts
	// SvcPanics counts handler or job panics converted into 500 responses
	// instead of killing the daemon.
	SvcPanics
	// SvcReloads counts successful hot reloads of the served timing
	// library.
	SvcReloads
	// SvcReloadFails counts refused or failed hot-reload attempts (the
	// previous library keeps serving).
	SvcReloadFails
	// StoreQuarantined counts library cells quarantined by the verifying
	// loader (hash mismatch, invalid model, manifest drift) and served from
	// the analytic fallback or dropped.
	StoreQuarantined
	// CharCellsReused counts cells replayed from a campaign journal on
	// resume instead of being re-characterised.
	CharCellsReused
	// TGraphEdits counts edits applied to persistent timing graphs
	// (cube/PI/gate-swap deltas; the initial build does not count).
	TGraphEdits
	// SvcSessions counts timing sessions created by the service.
	SvcSessions
	// SvcSessionEvicts counts sessions evicted by the service's LRU cap or
	// idle TTL (client DELETEs do not count).
	SvcSessionEvicts
	// CacheHits counts analysis requests answered from the
	// content-addressed result cache.
	CacheHits
	// CacheMisses counts cache lookups that went to the engine (the
	// singleflight leader of a concurrent burst counts once).
	CacheMisses
	// CacheCoalesced counts requests that shared another request's
	// in-flight engine run through singleflight instead of running their
	// own.
	CacheCoalesced
	// CacheEvictions counts cache entries evicted by the LRU entry cap or
	// the byte budget.
	CacheEvictions
	// CacheInvalidations counts cache entries dropped because the serving
	// library's fingerprint changed under a hot reload.
	CacheInvalidations
	// CacheOversized counts analysis responses served but refused cache
	// admission because they alone exceeded the per-entry byte cap.
	CacheOversized
	// ShardLeases counts shard leases granted by a campaign coordinator
	// (first attempts and retries alike).
	ShardLeases
	// ShardExpired counts leases the coordinator expired because the
	// worker stopped heartbeating (crash, hang, partition).
	ShardExpired
	// ShardRetries counts shard lease grants beyond each shard's first
	// attempt.
	ShardRetries
	// ShardQuarantined counts shards that exhausted their retry budget and
	// were quarantined (their cells degrade to the analytic fallback).
	ShardQuarantined
	// ShardDuplicates counts verified shard completions discarded because
	// the shard was already complete (a resurrected worker re-submitting).
	ShardDuplicates
	// ShardCorrupt counts shard completions rejected because the staged
	// artefact failed manifest verification.
	ShardCorrupt
	// NetRequests counts HTTP requests issued by the shardnet resilient
	// client (every attempt counts, including retries).
	NetRequests
	// NetRetries counts shardnet client attempts beyond each call's first
	// (network errors, 5xx/429 responses, undecodable replies).
	NetRetries
	// NetBytesUploaded counts artefact bytes a campaign coordinator
	// received in completion claims, once per claim idempotency key (a
	// replayed claim does not count again).
	NetBytesUploaded
	// SvcSessionRecovered counts sessions rebuilt from their write-ahead
	// logs at daemon startup (snapshot restore + delta replay).
	SvcSessionRecovered
	// SvcSessionQuarantined counts session journals whose startup replay
	// failed (corrupt journal, library-fingerprint mismatch, replay error)
	// and were quarantined with a reasoned tombstone instead of wedging
	// boot.
	SvcSessionQuarantined
	// SvcSessionSnapshots counts snapshot-compaction checkpoints written
	// for durable sessions.
	SvcSessionSnapshots

	numCounters
)

// counterNames are the stable text labels used by Snapshot/WriteText.
var counterNames = [numCounters]string{
	SpiceTransients:       "spice/transients",
	SpiceTransSteps:       "spice/transient_steps",
	SpiceNewtonIters:      "spice/newton_iters",
	SpiceStepRetries:      "spice/step_retries",
	SpiceStepHalvings:     "spice/step_halvings",
	SpiceGminSteps:        "spice/gmin_steps",
	SpiceRecovered:        "spice/recovered_points",
	SpiceUnrecovered:      "spice/unrecovered_points",
	FaultsInjected:        "faultinject/injected",
	CharJobs:              "charlib/jobs",
	CharRetries:           "charlib/retries",
	CharDegraded:          "charlib/degraded_points",
	CharCells:             "charlib/cells",
	STAGates:              "sta/gates",
	STAArcs:               "sta/arcs",
	ITRRefines:            "itr/refines",
	ITRImplications:       "itr/implications",
	SimGateEvals:          "logicsim/gate_evals",
	ATPGFaults:            "atpg/faults",
	ATPGDecisions:         "atpg/decisions",
	ATPGBacktracks:        "atpg/backtracks",
	ConfSeeds:             "conformance/seeds",
	ConfChecks:            "conformance/checks",
	ConfViolations:        "conformance/violations",
	ConfSkipped:           "conformance/skipped",
	SvcRequests:           "service/requests",
	SvcShed:               "service/shed",
	SvcTimeouts:           "service/timeouts",
	SvcPanics:             "service/panics",
	SvcReloads:            "service/reloads",
	SvcReloadFails:        "service/reload_failures",
	StoreQuarantined:      "store/quarantined_cells",
	CharCellsReused:       "charlib/cells_reused",
	TGraphEdits:           "tgraph/edits",
	SvcSessions:           "service/sessions_created",
	SvcSessionEvicts:      "service/sessions_evicted",
	CacheHits:             "service/cache_hits",
	CacheMisses:           "service/cache_misses",
	CacheCoalesced:        "service/cache_coalesced",
	CacheEvictions:        "service/cache_evictions",
	CacheInvalidations:    "service/cache_invalidations",
	CacheOversized:        "service/cache_oversized",
	ShardLeases:           "shard/leases_granted",
	ShardExpired:          "shard/leases_expired",
	ShardRetries:          "shard/retries",
	ShardQuarantined:      "shard/quarantined_shards",
	ShardDuplicates:       "shard/duplicates_discarded",
	ShardCorrupt:          "shard/corrupt_artifacts",
	NetRequests:           "shardnet/client_requests",
	NetRetries:            "shardnet/client_retries",
	NetBytesUploaded:      "shardnet/bytes_uploaded",
	SvcSessionRecovered:   "service/session_recovered",
	SvcSessionQuarantined: "service/session_replay_quarantined",
	SvcSessionSnapshots:   "service/session_snapshots",
}

// String returns the counter's label.
func (c Counter) String() string {
	if c < 0 || c >= numCounters {
		return fmt.Sprintf("counter(%d)", int(c))
	}
	return counterNames[c]
}

// Metrics is a concurrency-safe instrumentation sink shared across every
// layer of one run: counters are lock-free atomics, timers accumulate
// wall-clock durations under a mutex (start/stop is coarse-grained).
//
// The zero value is ready to use, and all methods are nil-safe no-ops, so
// layers thread an optional *Metrics without guarding every call site.
type Metrics struct {
	counters [numCounters]atomic.Int64

	mu     sync.Mutex
	timers map[string]*timerState
}

type timerState struct {
	nanos int64
	count int64
}

// NewMetrics returns an empty sink.
func NewMetrics() *Metrics { return &Metrics{} }

// Add increments a counter by n. Safe on a nil receiver.
func (m *Metrics) Add(c Counter, n int64) {
	if m == nil || c < 0 || c >= numCounters {
		return
	}
	m.counters[c].Add(n)
}

// Get returns a counter's current value. Safe on a nil receiver.
func (m *Metrics) Get(c Counter) int64 {
	if m == nil || c < 0 || c >= numCounters {
		return 0
	}
	return m.counters[c].Load()
}

// StartTimer starts a named wall-clock timer and returns its stop
// function. Concurrent timers under the same name accumulate. Safe on a
// nil receiver (the returned stop is a no-op).
func (m *Metrics) StartTimer(name string) (stop func()) {
	if m == nil {
		return func() {}
	}
	start := time.Now()
	var once sync.Once
	return func() {
		once.Do(func() {
			d := time.Since(start)
			m.mu.Lock()
			if m.timers == nil {
				m.timers = make(map[string]*timerState)
			}
			ts := m.timers[name]
			if ts == nil {
				ts = &timerState{}
				m.timers[name] = ts
			}
			ts.nanos += int64(d)
			ts.count++
			m.mu.Unlock()
		})
	}
}

// TimerStat is the accumulated state of one named timer.
type TimerStat struct {
	// Total is the summed wall-clock duration across stops.
	Total time.Duration
	// Count is the number of start/stop cycles.
	Count int64
}

// Snapshot is a point-in-time copy of a Metrics sink.
type Snapshot struct {
	// Counters maps counter label -> value; zero counters are omitted.
	Counters map[string]int64
	// Timers maps timer name -> accumulated stat.
	Timers map[string]TimerStat
}

// Snapshot copies the current counter and timer values. Safe on a nil
// receiver (returns an empty snapshot).
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{Counters: make(map[string]int64), Timers: make(map[string]TimerStat)}
	if m == nil {
		return s
	}
	for c := Counter(0); c < numCounters; c++ {
		if v := m.counters[c].Load(); v != 0 {
			s.Counters[c.String()] = v
		}
	}
	m.mu.Lock()
	for name, ts := range m.timers {
		s.Timers[name] = TimerStat{Total: time.Duration(ts.nanos), Count: ts.count}
	}
	m.mu.Unlock()
	return s
}

// WriteText renders the snapshot as an aligned two-column report with
// counters and timers sorted by label, so output is reproducible.
func (s Snapshot) WriteText(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	width := 0
	for name := range s.Counters {
		names = append(names, name)
		if len(name) > width {
			width = len(name)
		}
	}
	sort.Strings(names)
	tnames := make([]string, 0, len(s.Timers))
	for name := range s.Timers {
		tnames = append(tnames, name)
		if len(name)+len("timer/") > width {
			width = len(name) + len("timer/")
		}
	}
	sort.Strings(tnames)

	for _, name := range names {
		if _, err := fmt.Fprintf(w, "%-*s %12d\n", width, name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range tnames {
		ts := s.Timers[name]
		if _, err := fmt.Fprintf(w, "%-*s %12.3fs (%d run%s)\n",
			width, "timer/"+name, ts.Total.Seconds(), ts.Count, plural(ts.Count)); err != nil {
			return err
		}
	}
	return nil
}

func plural(n int64) string {
	if n == 1 {
		return ""
	}
	return "s"
}

// WriteText snapshots the sink and renders it; see Snapshot.WriteText.
// Safe on a nil receiver.
func (m *Metrics) WriteText(w io.Writer) error { return m.Snapshot().WriteText(w) }
