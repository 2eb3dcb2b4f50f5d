package shardnet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"sstiming/internal/shard"
)

// WorkerOptions configures one remote campaign worker.
type WorkerOptions struct {
	// Client configures the resilient coordinator client (Base required).
	Client ClientOptions
	// Shard carries the worker's own campaign configuration: Charlib,
	// ShardCells and friends must match the coordinator's bit-for-bit
	// (verified against the advertised plan before any work), and Dir is
	// the worker's private local work directory (attempt journals). Out
	// is unused for publishing — the coordinator merges —
	// but still required to derive defaults.
	Shard shard.Options
	// Name identifies this worker in lease requests and logs; "" selects
	// "worker".
	Name string
	// ExitOnLeaseLost makes the worker return ErrLeaseLost once one of its
	// leases was reassigned (after claiming that lease's attempt), instead
	// of continuing with the next lease — the mode a supervisor uses to
	// restart workers intelligently (exit code 2 in cmd/characterize).
	ExitOnLeaseLost bool
	// Progress, when non-nil, receives one line per worker event.
	Progress func(format string, args ...any)
}

// WorkerReport summarises one worker's campaign participation.
type WorkerReport struct {
	// Completed counts completion claims the coordinator accepted.
	Completed int
	// Duplicates counts claims resolved as duplicates (another attempt
	// won, or a retried claim whose first acknowledgement was lost).
	Duplicates int
	// Rejected counts claims the coordinator rejected at verification.
	Rejected int
	// Failed counts attempts that failed worker-side and were reported.
	Failed int
	// LeaseLost counts leases reassigned under this worker.
	LeaseLost int
	// Leases counts lease grants this worker received.
	Leases int
}

// RunWorker participates in a networked campaign until the campaign
// resolves (returns nil), the context fires, a lease is lost under
// ExitOnLeaseLost (ErrLeaseLost), or a fatal condition stops it (plan
// mismatch, coordinator unreachable past every retry budget). The worker
// is stateless towards the coordinator: everything it claims is re-verified
// server-side, so crashing it at any point never corrupts the campaign.
func RunWorker(ctx context.Context, opts WorkerOptions) (*WorkerReport, error) {
	if opts.Name == "" {
		opts.Name = "worker"
	}
	if opts.Progress == nil {
		opts.Progress = func(string, ...any) {}
	}
	if opts.Shard.Progress == nil {
		opts.Shard.Progress = opts.Progress
	}
	client, err := NewClient(opts.Client)
	if err != nil {
		return nil, err
	}

	rep := &WorkerReport{}
	info, err := client.Campaign(ctx)
	if err != nil {
		return rep, err
	}
	if err := shard.ComparePlan(opts.Shard, info.Fingerprint, info.Shards); err != nil {
		return rep, fmt.Errorf("%w: %v", ErrFatal, err)
	}
	return rep, shard.Work(ctx, &remote{c: client, opts: opts, rep: rep, specs: info.Shards}, opts.Shard)
}

// remote is the shard.Coordinator a networked worker loop talks to: each
// call is one wire exchange, lease requests and completion claims under an
// idempotency key, with the worker's report kept alongside.
type remote struct {
	c     *Client
	opts  WorkerOptions
	rep   *WorkerReport
	specs []shard.Spec // the advertised plan, equal to the worker's own
	seq   int          // lease requests issued, for their idempotency keys
	lost  *shard.Grant // last lease reassigned under this worker
}

// Lease polls for a grant, sleeping out the coordinator's retry hints.
func (w *remote) Lease(ctx context.Context) (*shard.Grant, error) {
	if g := w.lost; g != nil && w.opts.ExitOnLeaseLost {
		return nil, fmt.Errorf("%w: shard %s attempt %d reassigned", ErrLeaseLost, g.Spec.ID, g.Attempt)
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w.seq++
		reply, err := w.c.Lease(ctx, w.opts.Name, fmt.Sprintf("%s-l%06d", w.opts.Name, w.seq))
		if err != nil {
			return nil, err
		}
		if reply.Done {
			w.opts.Progress("%s: campaign resolved, exiting", w.opts.Name)
			return nil, nil
		}
		if g := reply.Grant; g != nil {
			// ComparePlan already pinned the table; an unknown grant means
			// a confused coordinator.
			if g.Index < 0 || g.Index >= len(w.specs) || w.specs[g.Index].ID != g.ShardID {
				return nil, fmt.Errorf("%w: grant names unknown shard %q", ErrFatal, g.ShardID)
			}
			w.rep.Leases++
			w.opts.Progress("%s: leased shard %s (attempt %d)", w.opts.Name, g.ShardID, g.Attempt)
			return &shard.Grant{
				Spec:    w.specs[g.Index],
				Attempt: g.Attempt,
				TTL:     time.Duration(g.LeaseTTLMs) * time.Millisecond,
			}, nil
		}
		wait := time.Duration(reply.RetryAfterMs) * time.Millisecond
		if wait <= 0 {
			wait = 50 * time.Millisecond
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(wait):
		}
	}
}

// Heartbeat renews the lease. Held=false, or a heartbeat that cannot reach
// the coordinator past its whole retry budget, counts the lease as lost.
func (w *remote) Heartbeat(ctx context.Context, g shard.Grant) (bool, error) {
	held, err := w.c.Heartbeat(ctx, g.Spec.ID, g.Attempt)
	if ctx.Err() != nil || (err == nil && held) {
		return held, err
	}
	if err != nil {
		w.opts.Progress("%s: heartbeat for %s/%d undeliverable: %v", w.opts.Name, g.Spec.ID, g.Attempt, err)
	}
	w.opts.Progress("%s: lease on %s/%d lost", w.opts.Name, g.Spec.ID, g.Attempt)
	w.rep.LeaseLost++
	w.lost = &g
	return held, err
}

// Complete claims the attempt with its artefact in one exchange. The claim
// is submitted even when the lease was lost: the coordinator either accepts
// the verified artefact (shard still open) or absorbs it as a duplicate.
func (w *remote) Complete(ctx context.Context, g shard.Grant, artefact []byte) (shard.CompleteStatus, error) {
	sum := sha256.Sum256(artefact)
	reply, err := w.c.Complete(ctx, &CompleteRequest{
		ShardID:        g.Spec.ID,
		Attempt:        g.Attempt,
		Artifact:       artefact,
		SHA256:         hex.EncodeToString(sum[:]),
		IdempotencyKey: fmt.Sprintf("%s-c-%s-a%d", w.opts.Name, g.Spec.ID, g.Attempt),
	})
	if err != nil {
		return shard.CompleteRejected, err
	}
	switch reply.Status {
	case "accepted":
		w.rep.Completed++
		w.opts.Progress("%s: shard %s completed (attempt %d)", w.opts.Name, g.Spec.ID, g.Attempt)
		return shard.CompleteAccepted, nil
	case "duplicate":
		w.rep.Duplicates++
		w.opts.Progress("%s: shard %s claim was a duplicate (attempt %d)", w.opts.Name, g.Spec.ID, g.Attempt)
		return shard.CompleteDuplicate, nil
	default:
		w.rep.Rejected++
		w.opts.Progress("%s: shard %s claim rejected (attempt %d): %s", w.opts.Name, g.Spec.ID, g.Attempt, reply.Reason)
		return shard.CompleteRejected, fmt.Errorf("%w: %s", shard.ErrRejected, reply.Reason)
	}
}

// Fail reports a worker-side attempt failure.
func (w *remote) Fail(ctx context.Context, g shard.Grant, cause error) error {
	w.rep.Failed++
	w.opts.Progress("%s: attempt %s/%d failed: %v", w.opts.Name, g.Spec.ID, g.Attempt, cause)
	return w.c.Fail(ctx, g.Spec.ID, g.Attempt, cause.Error())
}
