package shard

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sstiming/internal/charlib"
	"sstiming/internal/core"
	"sstiming/internal/engine"
	"sstiming/internal/store"
)

// Status is a shard's position in the lease state machine.
type Status int

const (
	// StatusPending means the shard is waiting for a lease (possibly in
	// backoff after a failed attempt).
	StatusPending Status = iota
	// StatusLeased means a worker holds the shard under a live lease.
	StatusLeased
	// StatusCompleted means a verified artefact has been promoted.
	StatusCompleted
	// StatusQuarantined means the retry budget is exhausted; the shard's
	// cells publish from the analytic fallback.
	StatusQuarantined
)

// CompleteStatus reports how a completion claim was resolved.
type CompleteStatus int

const (
	// CompleteAccepted means the artefact verified and was promoted — this
	// completion won the shard.
	CompleteAccepted CompleteStatus = iota
	// CompleteDuplicate means the shard was already resolved; the (verified
	// or not) completion was discarded idempotently.
	CompleteDuplicate
	// CompleteRejected means the claimed artefact failed verification; the
	// accompanying error carries the store taxonomy reason.
	CompleteRejected
)

// String returns the completion status label used on the wire.
func (s CompleteStatus) String() string {
	switch s {
	case CompleteAccepted:
		return "accepted"
	case CompleteDuplicate:
		return "duplicate"
	default:
		return "rejected"
	}
}

// shardState is the tracker's view of one shard. All fields are guarded by
// the tracker mutex.
type shardState struct {
	spec   Spec
	status Status
	// attempts counts leases granted; it doubles as the current attempt
	// generation (attempt g works in shards/<id>/a<g>/).
	attempts int
	// deadline is the lease expiry, pushed forward by heartbeats.
	deadline time.Time
	// availableAt gates re-leasing after a failure (exponential backoff).
	availableAt time.Time
	// lastErr records the most recent failure, for the quarantine report.
	lastErr error
}

// Grant is one lease: the shard spec, the attempt generation the lease was
// granted at, and the lease TTL within which the holder must heartbeat or
// complete.
type Grant struct {
	Spec    Spec
	Attempt int
	TTL     time.Duration
}

// Tracker is the campaign lease state machine: it owns the shard table,
// grants and expires leases, verifies and promotes artefacts, and merges the
// result. It is the single source of campaign truth shared by the in-process
// coordinator (Run), whose workers call it directly as their Coordinator,
// and the networked one (internal/shardnet) — both drive the identical
// verify-before-accept path, so the robustness contract does not depend on
// the transport.
type Tracker struct {
	opts  Options
	fp    store.Fingerprint
	specs []Spec

	mu     sync.Mutex
	cond   *sync.Cond
	shards []*shardState
	report Report
}

// NewTracker prepares a campaign: options are resolved, the plan derived,
// and the campaign directory created (or, with Resume, reloaded — completed
// shards whose promoted artefacts verify are kept).
func NewTracker(opts Options) (*Tracker, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	t := &Tracker{
		opts:  opts,
		fp:    Fingerprint(opts.Charlib),
		specs: Plan(opts.Charlib, opts.ShardCells),
	}
	t.cond = sync.NewCond(&t.mu)
	t.report.Shards = len(t.specs)
	if err := t.prepareDir(); err != nil {
		return nil, err
	}
	return t, nil
}

// prepareDir creates or resumes the campaign directory and seeds the shard
// table, reusing any shard whose promoted artefact verifies.
func (t *Tracker) prepareDir() error {
	o := &t.opts
	resuming := false
	if o.Resume {
		if _, err := os.Stat(o.Dir); err == nil {
			if err := loadCampaignMeta(o.Dir, t.fp, t.specs); err != nil {
				return err
			}
			resuming = true
		}
	}
	if !resuming {
		if err := os.RemoveAll(o.Dir); err != nil {
			return fmt.Errorf("shard: clearing campaign dir: %w", err)
		}
		if err := os.MkdirAll(o.Dir, 0o755); err != nil {
			return fmt.Errorf("shard: creating campaign dir: %w", err)
		}
		if err := writeCampaignMeta(o.Dir, t.fp, t.specs); err != nil {
			return err
		}
	}

	t.shards = make([]*shardState, len(t.specs))
	for i, spec := range t.specs {
		st := &shardState{spec: spec}
		if resuming {
			// A promoted artefact is the shard's commit record. Verify it
			// from scratch — promotion happened in a previous process, and
			// the bytes may have rotted since.
			if b, err := os.ReadFile(promotedPath(o.Dir, spec.ID)); err == nil {
				if _, err := decodeArtifact(b, t.fp, spec); err == nil {
					st.status = StatusCompleted
					t.report.Completed++
					t.report.Reused++
					o.Progress("shard %s: reusing completed artifact", spec.ID)
				} else {
					o.Progress("shard %s: discarding unverifiable artifact: %v", spec.ID, err)
					t.report.CorruptArtifacts++
					o.Metrics.Add(engine.ShardCorrupt, 1)
				}
			}
		}
		t.shards[i] = st
	}
	return nil
}

// SeedAttemptsFromDisk advances each unresolved shard's attempt generation
// past any attempt directory already on disk, so the next lease grant never
// collides with a generation a previous coordinator handed out. A restarted
// networked coordinator calls this: remote workers may still hold (and be
// characterising under) leases the old process granted, and TryAcquire
// made each granted attempt's directory durable before answering the grant.
func (t *Tracker) SeedAttemptsFromDisk() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, st := range t.shards {
		if st.status == StatusCompleted || st.status == StatusQuarantined {
			continue
		}
		entries, err := os.ReadDir(shardDir(t.opts.Dir, st.spec.ID))
		if err != nil {
			continue
		}
		for _, e := range entries {
			var g int
			if n, _ := fmt.Sscanf(e.Name(), "a%d", &g); n == 1 && g > st.attempts {
				st.attempts = g
			}
		}
	}
}

// Specs returns the campaign's shard table, in campaign order.
func (t *Tracker) Specs() []Spec { return t.specs }

// FingerprintHash returns the campaign fingerprint hash that pins every
// artefact and journal of this campaign.
func (t *Tracker) FingerprintHash() string { return t.fp.Hash() }

// Dir returns the campaign directory holding all durable shard state.
func (t *Tracker) Dir() string { return t.opts.Dir }

// LeaseTTL returns the campaign lease TTL workers must heartbeat within.
func (t *Tracker) LeaseTTL() time.Duration { return t.opts.LeaseTTL }

// IndexOf resolves a shard ID to its campaign index.
func (t *Tracker) IndexOf(id string) (int, bool) {
	for i := range t.specs {
		if t.specs[i].ID == id {
			return i, true
		}
	}
	return 0, false
}

// Lease blocks until a shard is grantable, returning nil once the campaign
// is resolved (every shard completed or quarantined) and ctx's error once
// ctx fires.
func (t *Tracker) Lease(ctx context.Context) (*Grant, error) {
	defer t.wakeOnDone(ctx)()
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if g, _, done := t.tryAcquireLocked(); g != nil || done {
			return g, nil
		}
		t.cond.Wait()
	}
}

// TryAcquire is the non-blocking grant path the networked coordinator
// serves: it returns a grant, or (nil, wait, false) with a backoff hint when
// nothing is currently grantable, or (nil, 0, true) once the campaign is
// resolved. A grant's attempt directory is created and synced before the
// grant is returned, so SeedAttemptsFromDisk in a restarted coordinator
// advances past every generation ever handed out. If the directory cannot
// be made, the lease fails back to the pool and the error is returned.
func (t *Tracker) TryAcquire() (*Grant, time.Duration, bool, error) {
	t.mu.Lock()
	g, wait, done := t.tryAcquireLocked()
	t.mu.Unlock()
	if g == nil {
		return nil, wait, done, nil
	}
	if err := t.makeAttemptDir(g.Spec.ID, g.Attempt); err != nil {
		_ = t.Fail(context.Background(), *g, err)
		return nil, 0, false, err
	}
	return g, 0, false, nil
}

// makeAttemptDir creates shards/<id>/a<attempt>/ and syncs each directory
// that gained an entry, so the attempt survives a coordinator crash.
func (t *Tracker) makeAttemptDir(id string, attempt int) error {
	if err := os.MkdirAll(attemptDir(t.opts.Dir, id, attempt), 0o755); err != nil {
		return fmt.Errorf("shard: creating attempt dir: %w", err)
	}
	store.SyncDir(shardDir(t.opts.Dir, id))
	store.SyncDir(filepath.Join(t.opts.Dir, shardsDirName))
	store.SyncDir(t.opts.Dir)
	return nil
}

// tryAcquireLocked grants the first available pending shard. Caller holds
// the mutex.
func (t *Tracker) tryAcquireLocked() (*Grant, time.Duration, bool) {
	resolved := 0
	now := time.Now()
	var wait time.Duration = -1
	hint := func(d time.Duration) {
		if d < 0 {
			d = 0
		}
		if wait < 0 || d < wait {
			wait = d
		}
	}
	for _, st := range t.shards {
		switch st.status {
		case StatusCompleted, StatusQuarantined:
			resolved++
		case StatusLeased:
			// The soonest this shard can change hands is its lease expiry.
			hint(time.Until(st.deadline))
		case StatusPending:
			if now.Before(st.availableAt) {
				hint(st.availableAt.Sub(now))
				continue
			}
			st.status = StatusLeased
			st.attempts++
			st.deadline = now.Add(t.opts.LeaseTTL)
			t.report.Leases++
			t.opts.Metrics.Add(engine.ShardLeases, 1)
			if st.attempts > 1 {
				t.report.Retries++
				t.opts.Metrics.Add(engine.ShardRetries, 1)
			}
			t.opts.Progress("shard %s: lease granted (attempt %d)", st.spec.ID, st.attempts)
			return &Grant{Spec: st.spec, Attempt: st.attempts, TTL: t.opts.LeaseTTL}, 0, false
		}
	}
	if resolved == len(t.shards) {
		return nil, 0, true
	}
	if wait < 0 {
		wait = t.opts.LeaseTTL / 4
	}
	return nil, wait, false
}

// StartSweeper starts the lease sweeper: every LeaseTTL/8, clamped to
// [1ms, 1s], it expires leases whose holders stopped heartbeating and wakes
// waiters whose shards left backoff, so its period bounds how quickly both
// are noticed. The campaign owner (in-process Run or the networked
// coordinator) calls the returned stop, which returns once the sweeper has
// exited.
func (t *Tracker) StartSweeper() (stop func()) {
	every := min(max(t.opts.LeaseTTL/8, time.Millisecond), time.Second)
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				t.sweep()
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// sweep is one sweeper pass.
func (t *Tracker) sweep() {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	wake := false
	for _, st := range t.shards {
		switch st.status {
		case StatusLeased:
			if now.After(st.deadline) {
				t.report.Expired++
				t.opts.Metrics.Add(engine.ShardExpired, 1)
				t.opts.Progress("shard %s: lease expired (attempt %d)", st.spec.ID, st.attempts)
				t.failLocked(st, fmt.Errorf("lease expired after %s", t.opts.LeaseTTL))
				wake = true
			}
		case StatusPending:
			if !now.Before(st.availableAt) {
				wake = true
			}
		}
	}
	if wake {
		t.cond.Broadcast()
	}
}

// Heartbeat extends g's lease. It reports whether the lease is still held at
// that generation — false tells the worker its work can at best become a
// late, idempotently-handled completion. It never fails.
func (t *Tracker) Heartbeat(_ context.Context, g Grant) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if g.Spec.Index < 0 || g.Spec.Index >= len(t.shards) {
		return false, nil
	}
	st := t.shards[g.Spec.Index]
	if st.status != StatusLeased || st.attempts != g.Attempt {
		return false, nil
	}
	st.deadline = time.Now().Add(t.opts.LeaseTTL)
	return true, nil
}

// LeaseHeld reports whether the lease at (index, attempt) is currently
// held, without renewing it — the check a coordinator uses to answer a
// replayed lease request with its original grant.
func (t *Tracker) LeaseHeld(index, attempt int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if index < 0 || index >= len(t.shards) {
		return false
	}
	st := t.shards[index]
	return st.status == StatusLeased && st.attempts == attempt
}

// Complete handles a completion claim for one attempt: the artefact bytes
// are fully verified, and only then promoted. Correctness never
// trusts the lease — a verified artefact from an expired lease is accepted
// if the shard is still open, and any completion for an already-resolved
// shard is discarded idempotently (CompleteDuplicate), which is also what
// absorbs a retried completion whose first acknowledgement was lost on the
// network. A failed verification only penalises the shard's current lease
// when this claim IS that lease; a stale corrupt claim must not clobber a
// live reassignment. Every rejection error wraps ErrRejected.
func (t *Tracker) Complete(_ context.Context, g Grant, b []byte) (CompleteStatus, error) {
	index, attempt := g.Spec.Index, g.Attempt
	if index < 0 || index >= len(t.shards) {
		return CompleteRejected, fmt.Errorf("%w: %w: shard index %d", ErrRejected, ErrUnknownShard, index)
	}
	st := t.shards[index]
	spec := st.spec
	_, err := decodeArtifact(b, t.fp, spec)

	t.mu.Lock()
	if st.status == StatusCompleted || st.status == StatusQuarantined {
		// Resurrected worker (expired lease, reassigned shard already done),
		// a double submit, or a retry after a lost acknowledgement: drop it,
		// the promoted artefact is immutable.
		t.report.DuplicatesDiscarded++
		t.opts.Metrics.Add(engine.ShardDuplicates, 1)
		t.opts.Progress("shard %s: duplicate completion discarded (attempt %d)", spec.ID, attempt)
		t.mu.Unlock()
		return CompleteDuplicate, nil
	}
	if err != nil {
		t.report.CorruptArtifacts++
		t.opts.Metrics.Add(engine.ShardCorrupt, 1)
		t.opts.Progress("shard %s: rejecting completion (attempt %d): %v", spec.ID, attempt, err)
		if st.status == StatusLeased && st.attempts == attempt {
			t.failLocked(st, err)
		}
		t.cond.Broadcast()
		t.mu.Unlock()
		return CompleteRejected, fmt.Errorf("%w: %w", ErrRejected, err)
	}
	t.mu.Unlock()

	// Promote outside the lock (it fsyncs). At most one promotion can win:
	// every racing completion re-checks status under the lock below.
	if perr := store.AtomicWrite(promotedPath(t.opts.Dir, spec.ID), b); perr != nil {
		perr = fmt.Errorf("%w: promoting artifact: %w", ErrRejected, perr)
		t.mu.Lock()
		if st.status == StatusLeased && st.attempts == attempt {
			t.failLocked(st, perr)
		}
		t.cond.Broadcast()
		t.mu.Unlock()
		return CompleteRejected, perr
	}

	t.mu.Lock()
	if st.status == StatusCompleted || st.status == StatusQuarantined {
		t.report.DuplicatesDiscarded++
		t.opts.Metrics.Add(engine.ShardDuplicates, 1)
		t.mu.Unlock()
		return CompleteDuplicate, nil
	}
	st.status = StatusCompleted
	st.lastErr = nil
	t.report.Completed++
	t.opts.Progress("shard %s: completed (attempt %d)", spec.ID, attempt)
	t.cond.Broadcast()
	t.mu.Unlock()

	if t.opts.OnShardComplete != nil {
		t.opts.OnShardComplete(spec.ID)
	}
	return CompleteAccepted, nil
}

// Fail handles a worker-reported attempt failure (the worker is alive but
// its attempt produced no artefact). Stale reports — the lease already
// expired or the shard resolved another way — are absorbed idempotently.
// It never fails.
func (t *Tracker) Fail(_ context.Context, g Grant, cause error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if g.Spec.Index < 0 || g.Spec.Index >= len(t.shards) {
		return nil
	}
	st := t.shards[g.Spec.Index]
	if st.status != StatusLeased || st.attempts != g.Attempt {
		// The sweeper already expired this lease (or the shard resolved
		// some other way); nothing to do.
		return nil
	}
	t.opts.Progress("shard %s: attempt %d failed: %v", st.spec.ID, g.Attempt, cause)
	t.failLocked(st, cause)
	t.cond.Broadcast()
	return nil
}

// failLocked returns a shard to the pending pool with exponential backoff,
// or quarantines it once the retry budget is spent. Caller holds the mutex.
func (t *Tracker) failLocked(st *shardState, err error) {
	st.lastErr = err
	if st.attempts >= t.opts.MaxAttempts {
		st.status = StatusQuarantined
		t.report.Quarantined = append(t.report.Quarantined, st.spec.ID)
		t.opts.Metrics.Add(engine.ShardQuarantined, 1)
		t.opts.Progress("shard %s: quarantined after %d attempts: %v", st.spec.ID, st.attempts, err)
		return
	}
	st.status = StatusPending
	backoff := t.opts.Backoff << (st.attempts - 1)
	st.availableAt = time.Now().Add(backoff)
}

// resolvedLocked reports whether every shard completed or quarantined.
// Caller holds the mutex.
func (t *Tracker) resolvedLocked() bool {
	for _, st := range t.shards {
		if st.status != StatusCompleted && st.status != StatusQuarantined {
			return false
		}
	}
	return true
}

// Resolved reports whether the campaign is resolved (merge can run).
func (t *Tracker) Resolved() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.resolvedLocked()
}

// WaitResolved blocks until the campaign resolves or ctx fires. The caller
// must keep the sweeper running — expiry is what resolves vanished workers.
func (t *Tracker) WaitResolved(ctx context.Context) error {
	defer t.wakeOnDone(ctx)()
	t.mu.Lock()
	defer t.mu.Unlock()
	for !t.resolvedLocked() {
		if err := ctx.Err(); err != nil {
			return err
		}
		t.cond.Wait()
	}
	return nil
}

// wakeOnDone makes ctx firing wake every waiter on the tracker's condition,
// since waiters re-check ctx only when woken. Call the returned stop once
// done waiting.
func (t *Tracker) wakeOnDone(ctx context.Context) (stop func() bool) {
	return context.AfterFunc(ctx, func() {
		t.mu.Lock()
		t.cond.Broadcast()
		t.mu.Unlock()
	})
}

// Snapshot copies the campaign report.
func (t *Tracker) Snapshot() *Report {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.report
	r.Quarantined = append([]string(nil), t.report.Quarantined...)
	r.QuarantinedCells = append([]string(nil), t.report.QuarantinedCells...)
	return &r
}

// MergeAndPublish reads every promoted artefact, substitutes analytic
// fallbacks for quarantined shards under the campaign budget, checks every
// cell against the per-cell degradation budget, and only then publishes the
// merged library atomically at the campaign's Out path. The campaign must be
// resolved.
func (t *Tracker) MergeAndPublish() (*core.Library, error) {
	t.mu.Lock()
	states := make([]Status, len(t.shards))
	for i, st := range t.shards {
		states[i] = st.status
	}
	t.mu.Unlock()

	arts := make(map[string][]byte, len(t.specs))
	for i, spec := range t.specs {
		switch states[i] {
		case StatusCompleted:
			b, err := os.ReadFile(promotedPath(t.opts.Dir, spec.ID))
			if err != nil {
				return nil, fmt.Errorf("%w: shard %s promoted artifact unreadable: %v",
					store.ErrCorrupt, spec.ID, err)
			}
			arts[spec.ID] = b
		case StatusQuarantined:
			// Absent from arts: merge substitutes the analytic fallback.
		default:
			return nil, fmt.Errorf("shard %s unresolved at merge (status %d)", spec.ID, states[i])
		}
	}

	lib, qcells, err := merge(t.fp, t.specs, arts, t.opts.Charlib.Tech, t.opts.MaxQuarantinedFrac)
	t.mu.Lock()
	t.report.QuarantinedCells = qcells
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := charlib.CheckDegradedBudget(lib, t.opts.Charlib.MaxDegradedFrac); err != nil {
		return nil, err
	}
	if _, err := store.WriteLibrary(t.opts.Out, lib, t.opts.Charlib.Grid, t.opts.Charlib.NCPairs); err != nil {
		return nil, err
	}
	return lib, nil
}

// RemoveDir removes the campaign directory (the publish is durable; the
// scaffolding is spent).
func (t *Tracker) RemoveDir() error {
	if err := os.RemoveAll(t.opts.Dir); err != nil {
		return fmt.Errorf("shard: removing campaign dir: %w", err)
	}
	return nil
}

// contextSleep sleeps for d or until ctx is cancelled.
func contextSleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
