package shardnet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sstiming/internal/engine"
)

// Client error taxonomy. Every call either succeeds, exhausts its retry
// budget on retryable failures (ErrRetryable in the chain — the network or
// the coordinator was unreachable/overloaded the whole budget), or stops
// immediately on a fatal condition (ErrFatal — retrying cannot help).
// ErrLeaseLost is the third class a worker sees: the coordinator reassigned
// its lease, which is not a transport failure at all.
var (
	// ErrRetryable marks transient call failures: network errors, 5xx/429
	// responses, a 409 for a claim whose artefact arrived damaged,
	// undecodable reply bytes. The client retries these under its backoff
	// budget; seeing one in a returned error chain means the budget is
	// exhausted.
	ErrRetryable = errors.New("shardnet: retryable call failure")
	// ErrFatal marks failures retrying cannot fix: protocol-level 4xx
	// rejections, plan/fingerprint mismatches.
	ErrFatal = errors.New("shardnet: fatal call failure")
	// ErrLeaseLost marks a worker whose lease was reassigned (heartbeat
	// answered Held=false, or completion landed as a duplicate after its
	// lease expired).
	ErrLeaseLost = errors.New("shardnet: lease lost")
)

// perTryTimeout bounds each attempt of a call.
const perTryTimeout = 10 * time.Second

// ClientOptions configures the resilient coordinator client.
type ClientOptions struct {
	// Base is the coordinator base URL (e.g. "http://127.0.0.1:7600").
	Base string
	// MaxAttempts bounds attempts per call (first try included); 0
	// selects 8.
	MaxAttempts int
	// BaseBackoff is the first retry's delay, doubling per attempt with
	// ±50% jitter; 0 selects 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps one retry delay; 0 selects 2s.
	MaxBackoff time.Duration
	// Seed seeds the backoff jitter (deterministic tests).
	Seed int64
	// Transport overrides the HTTP transport (fault injection); nil
	// selects http.DefaultTransport.
	Transport http.RoundTripper
	// Metrics, when non-nil, accumulates shardnet/* client counters.
	Metrics *engine.Metrics
	// Progress, when non-nil, receives one line per retry.
	Progress func(format string, args ...any)
}

// Client issues wire-protocol calls with jittered exponential backoff,
// per-attempt deadlines and the typed error taxonomy above. One Client is
// safe for concurrent use.
type Client struct {
	opts ClientOptions
	hc   *http.Client
	met  *engine.Metrics

	mu  sync.Mutex
	rng *rand.Rand
}

// NewClient builds a client for one coordinator.
func NewClient(opts ClientOptions) (*Client, error) {
	if opts.Base == "" {
		return nil, fmt.Errorf("shardnet: ClientOptions.Base is required")
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 8
	}
	if opts.BaseBackoff <= 0 {
		opts.BaseBackoff = 50 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 2 * time.Second
	}
	if opts.Progress == nil {
		opts.Progress = func(string, ...any) {}
	}
	tr := opts.Transport
	if tr == nil {
		tr = http.DefaultTransport
	}
	return &Client{
		opts: opts,
		hc:   &http.Client{Transport: tr},
		met:  opts.Metrics,
		rng:  rand.New(rand.NewSource(opts.Seed)),
	}, nil
}

// backoff computes the jittered delay before retry attempt (1-based).
func (c *Client) backoff(attempt int, retryAfterMs int64) time.Duration {
	d := c.opts.BaseBackoff << (attempt - 1)
	if d > c.opts.MaxBackoff {
		d = c.opts.MaxBackoff
	}
	c.mu.Lock()
	jitter := 0.5 + c.rng.Float64() // 0.5x .. 1.5x
	c.mu.Unlock()
	d = time.Duration(float64(d) * jitter)
	// A server-stated Retry-After is a floor, not a suggestion.
	if ra := time.Duration(retryAfterMs) * time.Millisecond; ra > d {
		d = ra
	}
	return d
}

// call issues one wire call with the full retry envelope: the request body
// is encoded once and replayed per attempt; each attempt runs under its own
// deadline; retryable failures back off and retry until the budget runs
// out.
func (c *Client) call(ctx context.Context, method, path string, body []byte, out wireMessage) error {
	var lastErr error
	for attempt := 1; attempt <= c.opts.MaxAttempts; attempt++ {
		if attempt > 1 {
			c.met.Add(engine.NetRetries, 1)
			var retryAfterMs int64
			var re *replyError
			if errors.As(lastErr, &re) {
				retryAfterMs = re.retryAfterMs
			}
			d := c.backoff(attempt-1, retryAfterMs)
			c.opts.Progress("shardnet: retrying %s %s in %s (attempt %d/%d): %v",
				method, path, d, attempt, c.opts.MaxAttempts, lastErr)
			select {
			case <-ctx.Done():
				return fmt.Errorf("%w: %v (last: %v)", ErrRetryable, ctx.Err(), lastErr)
			case <-time.After(d):
			}
		}
		err := c.attempt(ctx, method, path, body, out)
		if err == nil || errors.Is(err, ErrFatal) {
			return err
		}
		if ctx.Err() != nil {
			return fmt.Errorf("%w: %v (last: %v)", ErrRetryable, ctx.Err(), err)
		}
		lastErr = err
	}
	return fmt.Errorf("%w: %d attempts exhausted: %w", ErrRetryable, c.opts.MaxAttempts, lastErr)
}

// replyError carries a non-2xx reply through the retry loop.
type replyError struct {
	status       int
	kind         string
	msg          string
	retryAfterMs int64
}

func (e *replyError) Error() string {
	return fmt.Sprintf("HTTP %d (%s): %s", e.status, e.kind, e.msg)
}

// attempt issues one HTTP exchange.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, out wireMessage) error {
	c.met.Add(engine.NetRequests, 1)
	actx, cancel := context.WithTimeout(ctx, perTryTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, method, c.opts.Base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("%w: building request: %v", ErrFatal, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// Network-level failure (includes injected drops/partitions).
		return fmt.Errorf("%w: %v", ErrRetryable, err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	rb, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		// Truncated/reset mid-body: the exchange's outcome is unknown —
		// retry and let server idempotency absorb the replay.
		return fmt.Errorf("%w: reading reply: %v", ErrRetryable, err)
	}

	if resp.StatusCode == http.StatusOK {
		if err := DecodeMessage(rb, out); err != nil {
			// Undecodable success bytes are indistinguishable from a
			// damaged wire: retry.
			return fmt.Errorf("%w: %v", ErrRetryable, err)
		}
		return nil
	}
	re := &replyError{status: resp.StatusCode, kind: "unknown"}
	var er ErrorReply
	if derr := DecodeMessage(rb, &er); derr == nil {
		re.kind, re.msg, re.retryAfterMs = er.Kind, er.Error, er.RetryAfterMs
	} else {
		re.msg = fmt.Sprintf("undecodable error body (%d bytes)", len(rb))
	}
	if re.retryAfterMs == 0 {
		if ra, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && ra > 0 {
			re.retryAfterMs = int64(ra) * 1000
		}
	}
	// 409 answers a claim whose artefact does not match its digest: the
	// request was damaged in transit, and re-sending it can succeed.
	if resp.StatusCode == http.StatusTooManyRequests ||
		resp.StatusCode == http.StatusRequestTimeout ||
		resp.StatusCode == http.StatusConflict ||
		resp.StatusCode >= 500 {
		return fmt.Errorf("%w: %w", ErrRetryable, re)
	}
	return fmt.Errorf("%w: %w", ErrFatal, re)
}

// Campaign fetches and validates the coordinator's campaign advertisement.
func (c *Client) Campaign(ctx context.Context) (*CampaignInfo, error) {
	var info CampaignInfo
	if err := c.call(ctx, http.MethodGet, PathPrefix+"/campaign", nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Lease asks for the next shard under an idempotency key (retries and
// network duplicates of the same key re-receive the same grant).
func (c *Client) Lease(ctx context.Context, worker, idempotencyKey string) (*LeaseReply, error) {
	body, err := EncodeMessage(&LeaseRequest{Worker: worker, IdempotencyKey: idempotencyKey})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFatal, err)
	}
	var reply LeaseReply
	if err := c.call(ctx, http.MethodPost, PathPrefix+"/lease", body, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Heartbeat renews a lease; held=false means the lease is gone.
func (c *Client) Heartbeat(ctx context.Context, shardID string, attempt int) (bool, error) {
	body, err := EncodeMessage(&HeartbeatRequest{ShardID: shardID, Attempt: attempt})
	if err != nil {
		return false, fmt.Errorf("%w: %v", ErrFatal, err)
	}
	var reply HeartbeatReply
	if err := c.call(ctx, http.MethodPost, PathPrefix+"/heartbeat", body, &reply); err != nil {
		return false, err
	}
	return reply.Held, nil
}

// Complete claims completion of one attempt with its artefact bytes and
// their SHA-256, in one exchange. The reply status follows the tracker
// taxonomy; "duplicate" is success for a retrying caller. A claim whose
// bytes arrive damaged is answered 409 and re-sent within the retry budget.
func (c *Client) Complete(ctx context.Context, req *CompleteRequest) (*CompleteReply, error) {
	body, err := EncodeMessage(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFatal, err)
	}
	var reply CompleteReply
	if err := c.call(ctx, http.MethodPost, PathPrefix+"/complete", body, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Fail reports a worker-side attempt failure.
func (c *Client) Fail(ctx context.Context, shardID string, attempt int, reason string) error {
	body, err := EncodeMessage(&FailRequest{ShardID: shardID, Attempt: attempt, Reason: reason})
	if err != nil {
		return fmt.Errorf("%w: %v", ErrFatal, err)
	}
	var reply OKReply
	return c.call(ctx, http.MethodPost, PathPrefix+"/fail", body, &reply)
}

// Status fetches campaign progress.
func (c *Client) Status(ctx context.Context) (*StatusReply, error) {
	var reply StatusReply
	if err := c.call(ctx, http.MethodGet, PathPrefix+"/status", nil, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}
