package shardnet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sstiming/internal/core"
	"sstiming/internal/engine"
	"sstiming/internal/httpmw"
	"sstiming/internal/shard"
)

// maxRequestBytes bounds one request body. A completion claim carries a
// whole shard artefact, base64-encoded: a one-cell shard's is 2–52 KB over
// the default library's cells, so the bound leaves two orders of magnitude
// of headroom for larger shards while still refusing an unbounded body.
const maxRequestBytes = 16 << 20

// serverEndpoints is the instrumented endpoint set (histogram render
// order), shared with the timingd middleware.
var serverEndpoints = []string{"campaign", "lease", "heartbeat", "complete", "fail", "status"}

// ServerOptions configures a campaign coordinator server.
type ServerOptions struct {
	// Shard is the campaign configuration (exactly the in-process Run
	// options; Workers is unused — workers are remote).
	// Set Shard.Resume to resume a coordinator over an existing campaign
	// directory after a restart.
	Shard shard.Options
	// MaxInflight bounds concurrently-served requests before the
	// coordinator sheds with 429 + Retry-After; 0 selects 64, negative
	// disables shedding.
	MaxInflight int
	// Metrics is the instrumentation sink; nil selects Shard.Metrics.
	Metrics *engine.Metrics
}

// grantEntry remembers a lease grant under its idempotency key so a
// retried or duplicated lease request re-receives it.
type grantEntry struct {
	grant LeaseGrant
}

// claimEntry remembers a completion claim's resolution under its
// idempotency key. once runs the claim through the tracker exactly once:
// a duplicated delivery racing the first waits for, and re-receives, its
// resolution.
type claimEntry struct {
	once  sync.Once
	reply CompleteReply
}

// Server is the networked campaign coordinator: the shard.Tracker lease
// state machine behind the wire protocol, with admission shedding and the
// shared HTTP middleware (internal/httpmw). Construct with NewServer, attach a
// listener with Start, then WaitResolved + MergeAndPublish.
type Server struct {
	tr   *shard.Tracker
	met  *engine.Metrics
	inst *httpmw.Instrumenter
	gate *httpmw.Gate
	mux  *http.ServeMux
	info []byte // pre-encoded CampaignInfo

	mu      sync.Mutex
	grants  map[string]grantEntry  // lease idempotency key -> grant
	claims  map[string]*claimEntry // completion idempotency key -> resolution
	workers map[string]bool        // worker name -> last lease reply was Done

	stopSweeper func()
	httpSrv     *http.Server
	serveErr    chan error
}

// NewServer prepares a coordinator over a campaign directory. With
// Shard.Resume set, an existing campaign is resumed: verified promoted
// artefacts are kept, and attempt generations advance past everything on
// disk so grants from this coordinator never collide with attempts a
// previous incarnation handed out (remote workers may still be
// characterising under them).
func NewServer(opts ServerOptions) (*Server, error) {
	if opts.Metrics == nil {
		opts.Metrics = opts.Shard.Metrics
	}
	if opts.Metrics == nil {
		opts.Metrics = engine.NewMetrics()
	}
	opts.Shard.Metrics = opts.Metrics
	if opts.MaxInflight == 0 {
		opts.MaxInflight = 64
	}
	tr, err := shard.NewTracker(opts.Shard)
	if err != nil {
		return nil, err
	}
	if opts.Shard.Resume {
		tr.SeedAttemptsFromDisk()
	}
	s := &Server{
		tr:       tr,
		met:      opts.Metrics,
		inst:     httpmw.NewInstrumenter(opts.Metrics, serverEndpoints),
		gate:     httpmw.NewGate(opts.MaxInflight, opts.Metrics),
		mux:      http.NewServeMux(),
		grants:   make(map[string]grantEntry),
		claims:   make(map[string]*claimEntry),
		workers:  make(map[string]bool),
		serveErr: make(chan error, 1),
	}
	s.info, err = EncodeMessage(&CampaignInfo{
		SchemaVersion: WireVersion,
		Fingerprint:   tr.FingerprintHash(),
		Shards:        tr.Specs(),
	})
	if err != nil {
		return nil, err
	}
	s.mux.Handle("GET "+PathPrefix+"/campaign", s.inst.Wrap("campaign", s.handleCampaign))
	s.mux.Handle("POST "+PathPrefix+"/lease", s.inst.Wrap("lease", s.gated(s.handleLease)))
	s.mux.Handle("POST "+PathPrefix+"/heartbeat", s.inst.Wrap("heartbeat", s.gated(s.handleHeartbeat)))
	s.mux.Handle("POST "+PathPrefix+"/complete", s.inst.Wrap("complete", s.gated(s.handleComplete)))
	s.mux.Handle("POST "+PathPrefix+"/fail", s.inst.Wrap("fail", s.gated(s.handleFail)))
	s.mux.Handle("GET "+PathPrefix+"/status", s.inst.Wrap("status", s.handleStatus))
	return s, nil
}

// Tracker exposes the underlying lease state machine (tests, embedding).
func (s *Server) Tracker() *shard.Tracker { return s.tr }

// Handler returns the coordinator's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Start serves the coordinator on l and starts the lease sweeper. It
// returns immediately; Shutdown stops both.
func (s *Server) Start(l net.Listener) {
	s.httpSrv = &http.Server{Handler: s.mux}
	s.stopSweeper = s.tr.StartSweeper()
	go func() {
		if err := s.httpSrv.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
			select {
			case s.serveErr <- err:
			default:
			}
		}
	}()
}

// Shutdown stops the HTTP server and the sweeper. The campaign directory
// is left untouched: a successor coordinator resumes from it.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	if s.stopSweeper != nil {
		s.stopSweeper()
	}
	select {
	case serr := <-s.serveErr:
		if err == nil {
			err = serr
		}
	default:
	}
	return err
}

// WaitResolved blocks until every shard completed or quarantined (or ctx
// fires). The sweeper started by Start keeps vanished workers expiring.
func (s *Server) WaitResolved(ctx context.Context) error { return s.tr.WaitResolved(ctx) }

// DrainWorkers blocks until every worker that ever requested a lease has
// had its latest lease request answered Done — i.e. it knows the campaign
// is over and exits 0 — or ctx fires. A resolved coordinator that closes
// its listener immediately races the final completer's next lease poll
// into connection-refused (exit 1 after a finished campaign), so callers
// drain between publish and Shutdown. Bound ctx by the lease TTL: an idle
// worker's no-grant sleep never outlives the expiry wait it was handed,
// and a worker that vanished for good must not wedge the exit.
func (s *Server) DrainWorkers(ctx context.Context) error {
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		s.mu.Lock()
		drained := true
		for _, done := range s.workers {
			if !done {
				drained = false
				break
			}
		}
		s.mu.Unlock()
		if drained {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// MergeAndPublish publishes the resolved campaign (see
// shard.Tracker.MergeAndPublish) and removes the campaign scaffolding
// (unless KeepDir).
func (s *Server) MergeAndPublish() (*core.Library, error) {
	lib, err := s.tr.MergeAndPublish()
	if err != nil {
		return nil, err
	}
	if err := s.tr.RemoveDir(); err != nil {
		return nil, err
	}
	return lib, nil
}

// Report snapshots the campaign report.
func (s *Server) Report() *shard.Report { return s.tr.Snapshot() }

// gated wraps a handler with the admission gate: beyond MaxInflight
// concurrent requests the coordinator sheds with 429 + Retry-After instead
// of queueing unboundedly.
func (s *Server) gated(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, ok := s.gate.TryAcquire()
		if !ok {
			s.writeErr(w, http.StatusTooManyRequests, "shed",
				fmt.Errorf("coordinator at capacity"), 50)
			return
		}
		defer release()
		h(w, r)
	}
}

// writeErr answers an ErrorReply (with Retry-After when retryAfterMs > 0).
func (s *Server) writeErr(w http.ResponseWriter, status int, kind string, err error, retryAfterMs int64) {
	if retryAfterMs > 0 {
		// Retry-After is whole seconds; round up so "soon" is never "now".
		w.Header().Set("Retry-After", strconv.FormatInt((retryAfterMs+999)/1000, 10))
	}
	writeReply(w, status, &ErrorReply{Error: err.Error(), Kind: kind, RetryAfterMs: retryAfterMs})
}

// writeReply serialises any wire message with its status code.
func writeReply(w http.ResponseWriter, status int, msg wireMessage) {
	b, err := EncodeMessage(msg)
	if err != nil {
		// Unreachable for our own types; fail closed as a plain 500.
		http.Error(w, "encoding reply", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b)
}

// readMessage strictly decodes a bounded request body into msg.
func (s *Server) readMessage(w http.ResponseWriter, r *http.Request, msg wireMessage) bool {
	b, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes+1))
	if err == nil && len(b) > maxRequestBytes {
		err = fmt.Errorf("%w: request body exceeds %d bytes", ErrBadMessage, maxRequestBytes)
	}
	if err == nil {
		err = DecodeMessage(b, msg)
	}
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, "bad-message", err, 0)
		return false
	}
	return true
}

// handleCampaign serves the campaign advertisement (pre-encoded: it is
// immutable for the coordinator's lifetime).
func (s *Server) handleCampaign(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(s.info)
}

// handleLease grants the next available shard. A replayed idempotency key
// whose grant's lease is still held re-receives the original grant — a
// retried or network-duplicated lease request never burns a second lease.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !s.readMessage(w, r, &req) {
		return
	}
	s.mu.Lock()
	s.workers[req.Worker] = false
	if e, ok := s.grants[req.IdempotencyKey]; ok {
		if s.tr.LeaseHeld(e.grant.Index, e.grant.Attempt) {
			s.mu.Unlock()
			writeReply(w, http.StatusOK, &LeaseReply{Grant: &e.grant})
			return
		}
		// The remembered lease is gone (expired or resolved); this key's
		// answer can only be a fresh decision now.
		delete(s.grants, req.IdempotencyKey)
	}
	s.mu.Unlock()

	g, wait, done, err := s.tr.TryAcquire()
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, "internal", err, 0)
		return
	}
	if done {
		s.mu.Lock()
		s.workers[req.Worker] = true
		s.mu.Unlock()
		writeReply(w, http.StatusOK, &LeaseReply{Done: true})
		return
	}
	if g == nil {
		ms := wait.Milliseconds()
		if ms < 1 {
			ms = 1
		}
		writeReply(w, http.StatusOK, &LeaseReply{RetryAfterMs: ms})
		return
	}
	grant := LeaseGrant{
		ShardID:    g.Spec.ID,
		Index:      g.Spec.Index,
		Attempt:    g.Attempt,
		LeaseTTLMs: g.TTL.Milliseconds(),
	}
	s.mu.Lock()
	s.grants[req.IdempotencyKey] = grantEntry{grant: grant}
	s.mu.Unlock()
	writeReply(w, http.StatusOK, &LeaseReply{Grant: &grant})
}

// handleHeartbeat renews a lease; Held=false tells the worker its lease is
// gone (the lease-lost signal).
func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !s.readMessage(w, r, &req) {
		return
	}
	g, ok := s.grantFor(w, req.ShardID, req.Attempt)
	if !ok {
		return
	}
	held, _ := s.tr.Heartbeat(r.Context(), g) // the tracker never fails a heartbeat
	writeReply(w, http.StatusOK, &HeartbeatReply{Held: held})
}

// grantFor resolves a wire (shard, attempt) pair to the tracker grant it
// names, answering 404 for a shard the campaign does not list.
func (s *Server) grantFor(w http.ResponseWriter, shardID string, attempt int) (shard.Grant, bool) {
	idx, ok := s.tr.IndexOf(shardID)
	if !ok {
		s.writeErr(w, http.StatusNotFound, "unknown-shard",
			fmt.Errorf("%w: %q", shard.ErrUnknownShard, shardID), 0)
		return shard.Grant{}, false
	}
	return shard.Grant{Spec: s.tr.Specs()[idx], Attempt: attempt}, true
}

// handleComplete resolves a completion claim in one exchange. The claimed
// bytes must match the claimed SHA-256; a mismatch means the channel
// damaged them, so the claim answers 409 without reaching the tracker
// (the shard stays open) and without being remembered, and the worker's
// re-send is judged afresh. Matching bytes go straight to the tracker's
// verify-before-accept path, which promotes them atomically. A replayed
// idempotency key re-receives the original resolution; a claim for an
// already-resolved shard resolves "duplicate" — both absorb retries after
// lost acknowledgements.
func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !s.readMessage(w, r, &req) {
		return
	}
	g, ok := s.grantFor(w, req.ShardID, req.Attempt)
	if !ok {
		return
	}
	if sum := sha256.Sum256(req.Artifact); hex.EncodeToString(sum[:]) != req.SHA256 {
		s.writeErr(w, http.StatusConflict, "digest-mismatch",
			fmt.Errorf("artifact for %s attempt %d does not match the claimed sha256", req.ShardID, req.Attempt), 0)
		return
	}
	s.mu.Lock()
	c, ok := s.claims[req.IdempotencyKey]
	if !ok {
		c = &claimEntry{}
		s.claims[req.IdempotencyKey] = c
	}
	s.mu.Unlock()
	c.once.Do(func() {
		s.met.Add(engine.NetBytesUploaded, int64(len(req.Artifact)))
		status, err := s.tr.Complete(r.Context(), g, req.Artifact)
		c.reply = CompleteReply{Status: status.String()}
		if err != nil && status == shard.CompleteRejected {
			c.reply.Reason = err.Error()
		}
	})
	writeReply(w, http.StatusOK, &c.reply)
}

// handleFail records a worker-reported attempt failure; stale reports are
// absorbed by the tracker.
func (s *Server) handleFail(w http.ResponseWriter, r *http.Request) {
	var req FailRequest
	if !s.readMessage(w, r, &req) {
		return
	}
	g, ok := s.grantFor(w, req.ShardID, req.Attempt)
	if !ok {
		return
	}
	reason := req.Reason
	if reason == "" {
		reason = "worker reported failure"
	}
	_ = s.tr.Fail(r.Context(), g, errors.New(reason)) // the tracker never fails a report
	writeReply(w, http.StatusOK, &OKReply{OK: true})
}

// handleStatus reports campaign progress.
func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeReply(w, http.StatusOK, &StatusReply{Resolved: s.tr.Resolved(), Report: s.tr.Snapshot()})
}

// WriteMetrics renders the coordinator's counters and latency histograms
// (operator dumps; the coordinator has no /metrics endpoint of its own).
func (s *Server) WriteMetrics(w io.Writer) {
	_ = s.met.WriteText(w)
	s.inst.WriteLatencies(w)
}
