package shardnet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sstiming/internal/engine"
	"sstiming/internal/shard"
)

// testServer builds a coordinator over a fresh campaign and serves its
// handler through httptest (no Start: unit tests drive the tracker
// directly, no sweeper needed).
func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewServer(ServerOptions{Shard: coordinatorOptions(t, filepath.Join(t.TempDir(), "lib.json"))})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

func testClient(t *testing.T, base string, met *engine.Metrics) *Client {
	t.Helper()
	c, err := NewClient(ClientOptions{
		Base:        base,
		MaxAttempts: 4,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		Seed:        7,
		Metrics:     met,
		Progress:    t.Logf,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	return c
}

// TestServerLeaseIdempotency: a replayed lease idempotency key re-receives
// the original grant instead of burning a second lease; a fresh key gets
// the next shard.
func TestServerLeaseIdempotency(t *testing.T) {
	_, hs := testServer(t)
	c := testClient(t, hs.URL, nil)
	ctx := context.Background()

	r1, err := c.Lease(ctx, "w0", "key-1")
	if err != nil || r1.Grant == nil {
		t.Fatalf("first lease: %+v, %v", r1, err)
	}
	r2, err := c.Lease(ctx, "w0", "key-1")
	if err != nil || r2.Grant == nil {
		t.Fatalf("replayed lease: %+v, %v", r2, err)
	}
	if *r2.Grant != *r1.Grant {
		t.Fatalf("replayed key got a different grant: %+v vs %+v", r2.Grant, r1.Grant)
	}
	r3, err := c.Lease(ctx, "w0", "key-2")
	if err != nil || r3.Grant == nil {
		t.Fatalf("fresh lease: %+v, %v", r3, err)
	}
	if r3.Grant.ShardID == r1.Grant.ShardID {
		t.Fatalf("fresh key re-leased shard %s", r3.Grant.ShardID)
	}

	held, err := c.Heartbeat(ctx, r1.Grant.ShardID, r1.Grant.Attempt)
	if err != nil || !held {
		t.Fatalf("heartbeat on live lease: held=%v err=%v", held, err)
	}
	held, err = c.Heartbeat(ctx, r1.Grant.ShardID, r1.Grant.Attempt+1)
	if err != nil || held {
		t.Fatalf("heartbeat on wrong attempt: held=%v err=%v", held, err)
	}
}

// TestServerDrainWorkers: a resolved coordinator must not close its
// listener before every polling worker has been answered Done — otherwise
// the final completer's next lease poll dies on connection-refused and a
// finished campaign exits 1. DrainWorkers is that grace: it returns
// immediately with no workers seen, blocks while any worker's latest
// lease answer was a grant, and returns once every seen worker has heard
// Done.
func TestServerDrainWorkers(t *testing.T) {
	srv, hs := testServer(t)
	c := testClient(t, hs.URL, nil)
	ctx := context.Background()

	// No worker ever asked for a lease: nothing to drain.
	if err := srv.DrainWorkers(ctx); err != nil {
		t.Fatalf("drain with no workers: %v", err)
	}

	// A worker holding a grant has not heard Done: drain must block.
	r, err := c.Lease(ctx, "w0", "key-1")
	if err != nil || r.Grant == nil {
		t.Fatalf("lease: %+v, %v", r, err)
	}
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := srv.DrainWorkers(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with an undrained worker = %v, want deadline exceeded", err)
	}

	// The worker finishes the campaign; its final poll is answered Done.
	grant := r.Grant
	for seq := 2; ; seq++ {
		b := workerArtifact(t, srv, grant)
		sum := sha256.Sum256(b)
		reply, err := c.Complete(ctx, &CompleteRequest{
			ShardID:        grant.ShardID,
			Attempt:        grant.Attempt,
			Artifact:       b,
			SHA256:         hex.EncodeToString(sum[:]),
			IdempotencyKey: fmt.Sprintf("drain-c%d", seq),
		})
		if err != nil || reply.Status != "accepted" {
			t.Fatalf("complete %s: %+v, %v", grant.ShardID, reply, err)
		}
		r, err := c.Lease(ctx, "w0", fmt.Sprintf("key-%d", seq))
		if err != nil {
			t.Fatalf("lease %d: %v", seq, err)
		}
		if r.Done {
			break
		}
		if r.Grant == nil {
			t.Fatalf("lease %d: neither grant nor done: %+v", seq, r)
		}
		grant = r.Grant
	}
	if err := srv.DrainWorkers(ctx); err != nil {
		t.Fatalf("drain after Done: %v", err)
	}
}

// workerArtifact characterises one granted shard of srv's campaign in a
// private work dir and returns its verified artefact bytes (what an honest
// worker would upload).
func workerArtifact(t *testing.T, srv *Server, grant *LeaseGrant) []byte {
	t.Helper()
	wopts := workerOptions(t, "http://unused", "art", 1, nil).Shard
	b, err := shard.RunAttempt(wopts, srv.Tracker().Specs()[grant.Index], grant.Attempt)
	if err != nil {
		t.Fatalf("RunAttempt: %v", err)
	}
	return b
}

// TestServerClaimProtocol: a claim whose bytes do not match its digest
// never reaches the tracker and leaves the shard open (the client re-sends
// it until its budget runs out); a replayed key re-receives its resolution
// without counting the bytes twice, also when the duplicates race; a late
// claim on a resolved shard resolves "duplicate".
func TestServerClaimProtocol(t *testing.T) {
	srv, hs := testServer(t)
	c := testClient(t, hs.URL, nil)
	ctx := context.Background()

	r, err := c.Lease(ctx, "w0", "claim-key")
	if err != nil || r.Grant == nil {
		t.Fatalf("lease: %+v, %v", r, err)
	}
	g := r.Grant
	art := workerArtifact(t, srv, g)
	sum := sha256.Sum256(art)
	claim := &CompleteRequest{
		ShardID: g.ShardID, Attempt: g.Attempt, Artifact: art,
		SHA256: hex.EncodeToString(sum[:]), IdempotencyKey: "claim-good",
	}

	// Bytes damaged in transit: 409 digest-mismatch on every re-send, and
	// the tracker never hears of it.
	damaged := *claim
	damaged.Artifact = append([]byte(nil), art...)
	damaged.Artifact[len(art)/2] ^= 0x5a
	_, err = c.Complete(ctx, &damaged)
	var re *replyError
	if !errors.Is(err, ErrRetryable) || !errors.As(err, &re) || re.status != http.StatusConflict || re.kind != "digest-mismatch" {
		t.Fatalf("damaged claim: %v", err)
	}
	if rep := srv.Report(); rep.CorruptArtifacts != 0 || rep.Completed != 0 || rep.DuplicatesDiscarded != 0 {
		t.Fatalf("damaged claim reached the tracker: %+v", rep)
	}
	if !srv.Tracker().LeaseHeld(g.Index, g.Attempt) {
		t.Fatal("damaged claim failed the shard's lease")
	}
	if got := srv.met.Get(engine.NetBytesUploaded); got != 0 {
		t.Fatalf("NetBytesUploaded = %d after a damaged claim, want 0", got)
	}

	// The honest claim is accepted; replaying its key re-receives the cached
	// resolution; a different claim on the resolved shard is a duplicate.
	reply, err := c.Complete(ctx, claim)
	if err != nil || reply.Status != "accepted" {
		t.Fatalf("claim: %+v, %v", reply, err)
	}
	reply, err = c.Complete(ctx, claim)
	if err != nil || reply.Status != "accepted" {
		t.Fatalf("replayed claim key: %+v, %v", reply, err)
	}
	if got := srv.met.Get(engine.NetBytesUploaded); got != int64(len(art)) {
		t.Fatalf("NetBytesUploaded = %d after a replayed claim, want %d", got, len(art))
	}
	other := *claim
	other.IdempotencyKey = "claim-late"
	reply, err = c.Complete(ctx, &other)
	if err != nil || reply.Status != "duplicate" {
		t.Fatalf("late claim: %+v, %v", reply, err)
	}

	// Duplicated deliveries of one claim racing each other: the first
	// resolves it, the rest wait for and re-receive that resolution.
	r, err = c.Lease(ctx, "w0", "race-key")
	if err != nil || r.Grant == nil {
		t.Fatalf("second lease: %+v, %v", r, err)
	}
	art2 := workerArtifact(t, srv, r.Grant)
	sum2 := sha256.Sum256(art2)
	racing := &CompleteRequest{
		ShardID: r.Grant.ShardID, Attempt: r.Grant.Attempt, Artifact: art2,
		SHA256: hex.EncodeToString(sum2[:]), IdempotencyKey: "claim-race",
	}
	var wg sync.WaitGroup
	replies := make([]*CompleteReply, 4)
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i], _ = c.Complete(ctx, racing)
		}(i)
	}
	wg.Wait()
	for i, rp := range replies {
		if rp == nil || rp.Status != "accepted" {
			t.Fatalf("racing delivery %d: %+v", i, rp)
		}
	}
	if rep := srv.Report(); rep.Completed != 2 || rep.DuplicatesDiscarded != 1 {
		t.Fatalf("racing deliveries reached the tracker more than once: %+v", rep)
	}
	// Bytes count once per key: the honest and the late claim, then the
	// racing one.
	if got, want := srv.met.Get(engine.NetBytesUploaded), int64(2*len(art)+len(art2)); got != want {
		t.Fatalf("NetBytesUploaded = %d, want %d", got, want)
	}
}

// TestServerCompleteRejectsInvalidArtifact: bytes that match their claimed
// digest but are not a valid artefact must be rejected by the
// tracker's verify-before-accept path, with the reason on the wire.
func TestServerCompleteRejectsInvalidArtifact(t *testing.T) {
	_, hs := testServer(t)
	c := testClient(t, hs.URL, nil)
	ctx := context.Background()

	r, err := c.Lease(ctx, "w0", "bogus-key")
	if err != nil || r.Grant == nil {
		t.Fatalf("lease: %+v, %v", r, err)
	}
	g := r.Grant
	bogus := []byte(`{"not":"an artifact"}`)
	sum := sha256.Sum256(bogus)
	reply, err := c.Complete(ctx, &CompleteRequest{
		ShardID: g.ShardID, Attempt: g.Attempt, Artifact: bogus,
		SHA256: hex.EncodeToString(sum[:]), IdempotencyKey: "bogus-claim",
	})
	if err != nil {
		t.Fatalf("claim: %v", err)
	}
	if reply.Status != "rejected" || reply.Reason == "" {
		t.Fatalf("invalid artefact resolved %q (reason %q)", reply.Status, reply.Reason)
	}
}

// TestServerShedsWhenGateFull: with the admission gate saturated the
// coordinator answers 429 + Retry-After instead of queueing, and the client
// classifies that as retryable — succeeding once capacity frees up.
func TestServerShedsWhenGateFull(t *testing.T) {
	srv, err := NewServer(ServerOptions{
		Shard:       coordinatorOptions(t, filepath.Join(t.TempDir(), "lib.json")),
		MaxInflight: 1,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	release, ok := srv.gate.TryAcquire()
	if !ok {
		t.Fatal("gate refused its first acquire")
	}

	// Saturated: a raw lease request must shed with 429 and Retry-After.
	body, _ := EncodeMessage(&LeaseRequest{Worker: "w0", IdempotencyKey: "shed-key"})
	resp, err := http.Post(hs.URL+PathPrefix+"/lease", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("lease request: %v", err)
	}
	rb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated lease: HTTP %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed reply without Retry-After")
	}
	var er ErrorReply
	if err := DecodeMessage(rb, &er); err != nil || er.Kind != "shed" || er.RetryAfterMs <= 0 {
		t.Fatalf("shed body: %+v, %v", er, err)
	}

	// A client with budget 2 exhausts on the saturated gate, retryable.
	met := engine.NewMetrics()
	c2, err := NewClient(ClientOptions{
		Base: hs.URL, MaxAttempts: 2, BaseBackoff: time.Millisecond,
		MaxBackoff: 5 * time.Millisecond, Metrics: met, Seed: 3,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if _, err := c2.Lease(context.Background(), "w0", "shed-key"); !errors.Is(err, ErrRetryable) {
		t.Fatalf("saturated lease via client: %v", err)
	}
	if got := met.Get(engine.NetRetries); got != 1 {
		t.Fatalf("NetRetries = %d, want 1", got)
	}

	// Capacity frees; the same key now leases.
	release()
	r, err := c2.Lease(context.Background(), "w0", "shed-key")
	if err != nil || r.Grant == nil {
		t.Fatalf("post-release lease: %+v, %v", r, err)
	}
}

// TestClientRetryHonoursRetryAfter: 429 replies with RetryAfterMs are
// retried (floor honoured) until the coordinator recovers; metrics count
// every request and retry.
func TestClientRetryHonoursRetryAfter(t *testing.T) {
	var calls atomic.Int32
	start := time.Now()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			writeReply(w, http.StatusTooManyRequests,
				&ErrorReply{Error: "overloaded", Kind: "shed", RetryAfterMs: 25})
			return
		}
		writeReply(w, http.StatusOK, &HeartbeatReply{Held: true})
	}))
	defer hs.Close()

	met := engine.NewMetrics()
	c := testClient(t, hs.URL, met)
	held, err := c.Heartbeat(context.Background(), "s00", 1)
	if err != nil || !held {
		t.Fatalf("heartbeat: held=%v err=%v", held, err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
	if got := met.Get(engine.NetRequests); got != 3 {
		t.Fatalf("NetRequests = %d, want 3", got)
	}
	if got := met.Get(engine.NetRetries); got != 2 {
		t.Fatalf("NetRetries = %d, want 2", got)
	}
	// Two Retry-After floors of 25ms each must have actually been waited.
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("retries too fast to have honoured Retry-After: %s", elapsed)
	}
}

// TestClientFatalStopsImmediately: a protocol-level 4xx is not retried.
func TestClientFatalStopsImmediately(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeReply(w, http.StatusNotFound,
			&ErrorReply{Error: "no such shard", Kind: "unknown-shard"})
	}))
	defer hs.Close()

	c := testClient(t, hs.URL, nil)
	_, err := c.Heartbeat(context.Background(), "zz", 1)
	if !errors.Is(err, ErrFatal) {
		t.Fatalf("404 heartbeat: %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("fatal reply was retried: %d calls", got)
	}
}

// TestClientRetryableExhaustsBudget: a persistently failing coordinator
// exhausts the bounded budget and surfaces ErrRetryable — no infinite
// spinning, no misclassification as fatal.
func TestClientRetryableExhaustsBudget(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer hs.Close()

	c := testClient(t, hs.URL, nil) // MaxAttempts 4
	_, err := c.Heartbeat(context.Background(), "s00", 1)
	if !errors.Is(err, ErrRetryable) {
		t.Fatalf("persistent 500: %v", err)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("server saw %d calls, want the full budget of 4", got)
	}
}
