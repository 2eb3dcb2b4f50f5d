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
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"sstiming/internal/core"
	"sstiming/internal/engine"
	"sstiming/internal/service"
	"sstiming/internal/shard"
	"sstiming/internal/store"
)

// uploadPartialName is the in-progress artefact upload file inside an
// attempt directory; a verified completion turns it into the staged
// shard.json.
const uploadPartialName = "upload.partial"

// serverEndpoints is the instrumented endpoint set (histogram render
// order), shared with the timingd middleware.
var serverEndpoints = []string{"campaign", "lease", "heartbeat", "artifact", "complete", "fail", "status"}

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
	// MaxChunkBytes caps one artefact chunk upload; 0 selects 1 MiB.
	MaxChunkBytes int64
	// Metrics is the instrumentation sink; nil selects Shard.Metrics.
	Metrics *engine.Metrics
}

// grantEntry remembers a lease grant under its idempotency key so a
// retried or duplicated lease request re-receives it.
type grantEntry struct {
	grant LeaseGrant
}

// upload tracks one attempt's resumable artefact upload. size mirrors the
// partial file's length; it is rebuilt from disk lazily, so uploads survive
// a coordinator restart.
type upload struct {
	mu   sync.Mutex
	size int64
}

// Server is the networked campaign coordinator: the shard.Tracker lease
// state machine behind the wire protocol, with admission shedding and the
// shared service instrumentation. Construct with NewServer, attach a
// listener with Start, then WaitResolved + MergeAndPublish.
type Server struct {
	tr   *shard.Tracker
	met  *engine.Metrics
	inst *service.Instrumenter
	gate *service.Gate
	mux  *http.ServeMux
	opts ServerOptions
	info []byte // pre-encoded CampaignInfo

	mu        sync.Mutex
	grants    map[string]grantEntry    // lease idempotency key -> grant
	completes map[string]CompleteReply // completion idempotency key -> reply
	uploads   map[string]*upload       // shardID/attempt -> upload state
	workers   map[string]bool          // worker name -> last lease reply was Done

	stopSweeper func()
	httpSrv     *http.Server
	serveErr    chan error
}

// NewServer prepares a coordinator over a campaign directory. With
// Shard.Resume set, an existing campaign is resumed: verified promoted
// artefacts are kept, and attempt generations advance past everything on
// disk so grants from this coordinator never collide with attempts a
// previous incarnation handed out (remote workers may still be uploading
// under them).
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
	if opts.MaxChunkBytes <= 0 {
		opts.MaxChunkBytes = 1 << 20
	}
	tr, err := shard.NewTracker(opts.Shard)
	if err != nil {
		return nil, err
	}
	if opts.Shard.Resume {
		tr.SeedAttemptsFromDisk()
	}
	s := &Server{
		tr:        tr,
		met:       opts.Metrics,
		inst:      service.NewInstrumenter(opts.Metrics, serverEndpoints),
		gate:      service.NewGate(opts.MaxInflight, opts.Metrics),
		mux:       http.NewServeMux(),
		opts:      opts,
		grants:    make(map[string]grantEntry),
		completes: make(map[string]CompleteReply),
		uploads:   make(map[string]*upload),
		workers:   make(map[string]bool),
		serveErr:  make(chan error, 1),
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
	s.mux.Handle("PUT "+PathPrefix+"/artifact", s.inst.Wrap("artifact", s.gated(s.handleArtifact)))
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
	b, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
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

	g, wait, done := s.tr.TryAcquire()
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

// uploadFor returns the upload state for one attempt, rebuilding its size
// from the partial file if this coordinator has never seen it (resumed
// campaigns inherit in-flight uploads from their predecessor).
func (s *Server) uploadFor(shardID string, attempt int) *upload {
	key := fmt.Sprintf("%s/%d", shardID, attempt)
	s.mu.Lock()
	u, ok := s.uploads[key]
	if !ok {
		u = &upload{size: -1}
		s.uploads[key] = u
	}
	s.mu.Unlock()
	u.mu.Lock()
	if u.size < 0 {
		u.size = 0
		if fi, err := os.Stat(s.partialPath(shardID, attempt)); err == nil {
			u.size = fi.Size()
		}
	}
	u.mu.Unlock()
	return u
}

// partialPath is the attempt's in-progress upload file.
func (s *Server) partialPath(shardID string, attempt int) string {
	return filepath.Join(s.tr.AttemptDir(shardID, attempt), uploadPartialName)
}

// handleArtifact accepts one artefact chunk:
// PUT /shard/v1/artifact?shard=<id>&attempt=<n>&offset=<bytes>. A chunk at
// the current size appends; a chunk entirely inside the received prefix is
// an absorbed replay; anything else answers 409 with the authoritative
// received size so the client resynchronises. Chunks are accepted even for
// expired leases — correctness lives in the completion verification, and a
// late uploader's bytes can still win the shard if it is still open.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	shardID := q.Get("shard")
	attempt, err := strconv.Atoi(q.Get("attempt"))
	if err != nil || attempt < 1 || shardID == "" {
		s.writeErr(w, http.StatusBadRequest, "bad-message",
			fmt.Errorf("%w: artifact upload needs shard and attempt", ErrBadMessage), 0)
		return
	}
	offset, err := strconv.ParseInt(q.Get("offset"), 10, 64)
	if err != nil || offset < 0 {
		s.writeErr(w, http.StatusBadRequest, "bad-message",
			fmt.Errorf("%w: artifact upload needs a non-negative offset", ErrBadMessage), 0)
		return
	}
	if _, ok := s.grantFor(w, shardID, attempt); !ok {
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.opts.MaxChunkBytes+1))
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, "bad-message",
			fmt.Errorf("%w: reading chunk: %v", ErrBadMessage, err), 0)
		return
	}
	if int64(len(body)) > s.opts.MaxChunkBytes {
		s.writeErr(w, http.StatusRequestEntityTooLarge, "bad-message",
			fmt.Errorf("%w: chunk exceeds %d bytes", ErrBadMessage, s.opts.MaxChunkBytes), 0)
		return
	}

	u := s.uploadFor(shardID, attempt)
	u.mu.Lock()
	defer u.mu.Unlock()
	switch {
	case offset == u.size:
		path := s.partialPath(shardID, attempt)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			s.writeErr(w, http.StatusInternalServerError, "internal", err, 0)
			return
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			s.writeErr(w, http.StatusInternalServerError, "internal", err, 0)
			return
		}
		_, werr := f.Write(body)
		cerr := f.Close()
		if werr == nil {
			werr = cerr
		}
		if werr != nil {
			// The file may hold a torn tail now; resync size from disk so
			// the client's retry lands at the truth.
			if fi, serr := os.Stat(path); serr == nil {
				u.size = fi.Size()
			}
			s.writeErr(w, http.StatusInternalServerError, "internal", werr, 0)
			return
		}
		u.size += int64(len(body))
		s.met.Add(engine.NetBytesUploaded, int64(len(body)))
		writeReply(w, http.StatusOK, &ChunkReply{Received: u.size})
	case offset+int64(len(body)) <= u.size:
		// A replayed chunk (duplicated request, or a retry whose first
		// acknowledgement was lost): already durable, absorb it.
		writeReply(w, http.StatusOK, &ChunkReply{Received: u.size})
	default:
		writeReply(w, http.StatusConflict, &ChunkReply{Received: u.size})
	}
}

// handleComplete resolves a completion claim: the uploaded bytes must match
// the claimed size and SHA-256, then they are staged and pushed through the
// tracker's verify-before-accept path. A replayed idempotency key
// re-receives the original resolution; a claim for an already-resolved
// shard resolves "duplicate" — both absorb retries after lost
// acknowledgements.
func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !s.readMessage(w, r, &req) {
		return
	}
	s.mu.Lock()
	if reply, ok := s.completes[req.IdempotencyKey]; ok {
		s.mu.Unlock()
		writeReply(w, http.StatusOK, &reply)
		return
	}
	s.mu.Unlock()
	g, ok := s.grantFor(w, req.ShardID, req.Attempt)
	if !ok {
		return
	}

	// The upload must be byte-complete before the claim means anything. A
	// retried claim whose first processing already staged the artefact finds
	// the staged bytes instead.
	u := s.uploadFor(req.ShardID, req.Attempt)
	u.mu.Lock()
	b, err := os.ReadFile(s.partialPath(req.ShardID, req.Attempt))
	u.mu.Unlock()
	if err != nil {
		b, err = os.ReadFile(s.tr.StagedPath(req.ShardID, req.Attempt))
	}
	if err != nil {
		s.writeErr(w, http.StatusConflict, "upload-incomplete",
			fmt.Errorf("no uploaded artefact for %s attempt %d", req.ShardID, req.Attempt), 0)
		return
	}
	if int64(len(b)) != req.Size {
		s.writeErr(w, http.StatusConflict, "upload-incomplete",
			fmt.Errorf("uploaded %d bytes, claim says %d", len(b), req.Size), 0)
		return
	}
	sum := sha256.Sum256(b)
	if hex.EncodeToString(sum[:]) != req.SHA256 {
		// The artefact arrived whole but wrong (corrupt upload). Stage it
		// anyway? No: reject here, the claimed digest is the worker's own
		// word for what it sent, and a mismatch means the channel damaged
		// it. The worker re-uploads.
		s.writeErr(w, http.StatusConflict, "upload-incomplete",
			fmt.Errorf("uploaded artefact sha256 differs from claim"), 0)
		return
	}
	if err := store.AtomicWrite(s.tr.StagedPath(req.ShardID, req.Attempt), b); err != nil {
		s.writeErr(w, http.StatusInternalServerError, "internal", err, 0)
		return
	}

	status, cerr := s.tr.Complete(r.Context(), g, b)
	reply := CompleteReply{Status: status.String()}
	if cerr != nil && status == shard.CompleteRejected {
		reply.Reason = cerr.Error()
	}
	s.mu.Lock()
	s.completes[req.IdempotencyKey] = reply
	s.mu.Unlock()
	writeReply(w, http.StatusOK, &reply)
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
