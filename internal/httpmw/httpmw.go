// Package httpmw is the HTTP middleware the codebase's embedded front ends
// share (the timing daemon in internal/service, the shard coordinator in
// internal/shardnet): request-ID minting, per-endpoint latency histograms,
// panic containment, deadline derivation and a load-shedding admission
// gate, so operational behaviour is uniform across services. It depends on
// nothing but the engine's counters, so neither server pulls in the
// other's layers.
package httpmw

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"sstiming/internal/engine"
)

// ErrorJSON is the uniform error payload.
type ErrorJSON struct {
	RequestID string `json:"request_id,omitempty"`
	Error     string `json:"error"`
	// Kind classifies the failure: "bad-request", "not-found", "cancelled",
	// "shed", "draining", "panic" or "internal".
	Kind string `json:"kind"`
}

// WriteJSON writes v as the indented JSON body of a status response.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// numLatencyBuckets is len(latencyBuckets); Go needs a constant for the
// atomic counts array.
const numLatencyBuckets = 13

// latencyBuckets are the histogram upper bounds. Fixed at compile time so
// observation is one atomic add.
var latencyBuckets = [numLatencyBuckets]time.Duration{
	1 * time.Millisecond,
	2 * time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
	10 * time.Second,
}

// histogram is a fixed-bucket latency histogram (cumulative counts, like a
// Prometheus classic histogram). All fields are atomics; observe is
// lock-free.
type histogram struct {
	counts [numLatencyBuckets + 1]atomic.Int64 // last = +Inf
	sum    atomic.Int64                        // nanoseconds
	total  atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	i := sort.Search(numLatencyBuckets, func(i int) bool { return d <= latencyBuckets[i] })
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.total.Add(1)
}

// writeText renders the histogram as cumulative bucket lines.
func (h *histogram) writeText(w io.Writer, endpoint string) {
	total := h.total.Load()
	if total == 0 {
		return
	}
	cum := int64(0)
	for i, ub := range latencyBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "service/latency{endpoint=%q,le=%q} %d\n", endpoint, ub.String(), cum)
	}
	cum += h.counts[numLatencyBuckets].Load()
	fmt.Fprintf(w, "service/latency{endpoint=%q,le=\"+Inf\"} %d\n", endpoint, cum)
	fmt.Fprintf(w, "service/latency_sum{endpoint=%q} %.6f\n", endpoint, time.Duration(h.sum.Load()).Seconds())
	fmt.Fprintf(w, "service/latency_count{endpoint=%q} %d\n", endpoint, total)
}

// requestIDKey carries the request ID through the handler's context.
type requestIDKey struct{}

// RequestID extracts the request ID installed by the instrumentation
// middleware ("" outside a request).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// Instrumenter is the per-service request instrumentation state: the
// request-ID sequence and the per-endpoint latency histograms. One
// Instrumenter serves one HTTP front end.
type Instrumenter struct {
	met  *engine.Metrics
	boot uint32
	seq  atomic.Int64
	hist map[string]*histogram
	// order is the histogram render order (the endpoint list given at
	// construction).
	order []string
}

// NewInstrumenter builds the instrumentation state for one service's
// endpoint set. met may be nil (counters become no-ops via the Metrics
// nil-safety contract is NOT relied on here — a private sink is made).
func NewInstrumenter(met *engine.Metrics, endpoints []string) *Instrumenter {
	if met == nil {
		met = engine.NewMetrics()
	}
	in := &Instrumenter{
		met:   met,
		boot:  uint32(time.Now().UnixNano()),
		hist:  make(map[string]*histogram, len(endpoints)),
		order: append([]string(nil), endpoints...),
	}
	for _, ep := range endpoints {
		in.hist[ep] = &histogram{}
	}
	return in
}

// Boot returns the per-process boot component of minted IDs, so sibling ID
// spaces (timing sessions) can stay distinguishable across restarts too.
func (in *Instrumenter) Boot() uint32 { return in.boot }

// NextRequestID mints a process-unique request ID. The boot component keeps
// IDs distinguishable across daemon restarts in logs.
func (in *Instrumenter) NextRequestID() string {
	return fmt.Sprintf("r%08x-%06d", in.boot, in.seq.Add(1))
}

// Wrap wraps an endpoint with the request-scoped machinery: request-ID
// minting (echoed in the X-Request-Id header and available via RequestID),
// the request counter, the per-endpoint latency histogram, and last-resort
// panic recovery that converts a crashing handler into a 500 carrying the
// request ID — the daemon itself must never die to a request.
func (in *Instrumenter) Wrap(endpoint string, h http.HandlerFunc) http.Handler {
	hist := in.hist[endpoint]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := in.NextRequestID()
		w.Header().Set("X-Request-Id", id)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id))
		in.met.Add(engine.SvcRequests, 1)
		start := time.Now()
		defer func() {
			if hist != nil {
				hist.observe(time.Since(start))
			}
			if rec := recover(); rec != nil {
				in.met.Add(engine.SvcPanics, 1)
				// Headers may already be out; this is best-effort. The panic
				// value stays server-side; clients correlate via the ID.
				WriteJSON(w, http.StatusInternalServerError, ErrorJSON{
					RequestID: id,
					Error:     fmt.Sprintf("internal error (request %s)", id),
					Kind:      "panic",
				})
			}
		}()
		h(w, r)
	})
}

// WriteLatencies renders every endpoint's latency histogram in construction
// order.
func (in *Instrumenter) WriteLatencies(w io.Writer) {
	for _, ep := range in.order {
		in.hist[ep].writeText(w, ep)
	}
}

// RequestDeadline derives a request's working context: an explicit
// per-request timeout (the X-Timeout-Ms header, overridden by a positive
// timeoutMs a handler parsed from its JSON body) wins over the service
// default def; a resulting zero/negative deadline means "no deadline beyond
// the client connection".
func RequestDeadline(r *http.Request, def time.Duration, timeoutMs int) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	d := def
	if hv := r.Header.Get("X-Timeout-Ms"); hv != "" {
		if ms, err := strconv.Atoi(hv); err == nil && ms > 0 {
			d = time.Duration(ms) * time.Millisecond
		}
	}
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// Gate is a lightweight admission gate for services whose requests do not
// run on the engine job queue: at most limit requests are in flight; beyond
// that the service sheds load (the caller answers 429 + Retry-After).
// Shedding is counted under engine.SvcShed, same as the daemon's queue.
type Gate struct {
	met      *engine.Metrics
	limit    int64
	inflight atomic.Int64
}

// NewGate builds a gate admitting at most limit concurrent requests;
// limit <= 0 means unlimited.
func NewGate(limit int, met *engine.Metrics) *Gate {
	return &Gate{met: met, limit: int64(limit)}
}

// TryAcquire claims an admission slot. On success the returned release
// must be called exactly once when the request finishes. On failure the
// request must be shed.
func (g *Gate) TryAcquire() (release func(), ok bool) {
	if g.limit <= 0 {
		return func() {}, true
	}
	if g.inflight.Add(1) > g.limit {
		g.inflight.Add(-1)
		g.met.Add(engine.SvcShed, 1)
		return nil, false
	}
	var done atomic.Bool
	return func() {
		if done.CompareAndSwap(false, true) {
			g.inflight.Add(-1)
		}
	}, true
}
