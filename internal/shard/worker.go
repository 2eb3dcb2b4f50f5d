package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sstiming/internal/charlib"
	"sstiming/internal/core"
	"sstiming/internal/faultinject"
	"sstiming/internal/store"
)

// journalDirName is the per-attempt write-ahead journal directory.
const journalDirName = "journal"

// Coordinator is the campaign side of the worker loop (Work): the four calls
// a worker makes against the lease state machine. The in-process Tracker
// implements it directly; shardnet implements it over HTTP. The loop joins
// its heartbeat goroutine before it calls Complete, Fail or Lease again, so
// Heartbeat is the only call that can overlap another, and only with the
// attempt it renews.
type Coordinator interface {
	// Lease blocks until a shard is granted, returning nil once the
	// campaign is resolved.
	Lease(ctx context.Context) (*Grant, error)
	// Heartbeat renews g's lease; false means the lease is gone.
	Heartbeat(ctx context.Context, g Grant) (held bool, err error)
	// Complete claims g with its artefact bytes. A claim the coordinator
	// resolved against the worker returns an error wrapping ErrRejected;
	// any other error means the claim's fate is unknown.
	Complete(ctx context.Context, g Grant, artefact []byte) (CompleteStatus, error)
	// Fail reports that g's attempt produced no artefact.
	Fail(ctx context.Context, g Grant, cause error) error
}

// Work is the campaign worker loop, shared by in-process workers (Run) and
// remote ones (shardnet.RunWorker): lease a shard, heartbeat it every TTL/4
// while characterising it, then complete or fail the lease, until the
// campaign is resolved (nil) or a coordinator call fails (its error).
//
// Injected faults (opts.Fault) reshape an attempt into the failure the chaos
// suites prove against, identically in both modes:
//
//	kill    — the worker dies after its first durable checkpoint: no
//	          completion, no failure report; only the expiring lease tells
//	          the coordinator anything.
//	hang    — heartbeats never start (the process stalled); the work still
//	          finishes, then the worker sleeps past its lease before
//	          submitting a late completion the coordinator must handle
//	          idempotently.
//	corrupt — the artefact bytes are damaged before they are claimed;
//	          verification must reject the completion and retry the shard.
//
// A lost lease stops the heartbeats but not the attempt: its completion is
// still claimed, and the coordinator accepts it if the shard is open or
// discards it as a duplicate.
func Work(ctx context.Context, c Coordinator, opts Options) error {
	if err := opts.fill(); err != nil {
		return err
	}
	fp := Fingerprint(opts.Charlib)
	for {
		g, err := c.Lease(ctx)
		if err != nil || g == nil {
			return err
		}
		if err := workLease(ctx, c, opts, fp, *g); err != nil {
			return err
		}
	}
}

// workLease runs one granted attempt end to end.
func workLease(ctx context.Context, c Coordinator, opts Options, fp store.Fingerprint, g Grant) error {
	lateAt := time.Now().Add(g.TTL + g.TTL/2)
	fault := opts.Fault.Decide(g.Spec.Index, g.Attempt)
	if fault != faultinject.ShardFaultNone {
		opts.Progress("shard %s: injecting %s (attempt %d)", g.Spec.ID, fault, g.Attempt)
	}

	hbCtx, stopHeartbeat := context.WithCancel(ctx)
	defer stopHeartbeat()
	var hbWG sync.WaitGroup
	if fault != faultinject.ShardFaultHang {
		hbWG.Add(1)
		go func() {
			defer hbWG.Done()
			heartbeat(hbCtx, c, g)
		}()
	}
	b, err := runShardWork(ctx, opts, fp, g.Spec, g.Attempt, fault)
	stopHeartbeat()
	hbWG.Wait()

	switch {
	case fault == faultinject.ShardFaultKill:
		return nil // dead workers don't report
	case err != nil && ctx.Err() != nil:
		return ctx.Err()
	case err != nil:
		return c.Fail(ctx, g, err)
	}
	if fault == faultinject.ShardFaultHang {
		// Wake up well after the lease expired (half a TTL past it, several
		// sweeper passes) so the completion is genuinely late and a
		// reassigned attempt has had time to start.
		contextSleep(ctx, time.Until(lateAt))
	}
	if _, err := c.Complete(ctx, g, b); err != nil && !errors.Is(err, ErrRejected) {
		return err
	}
	return nil
}

// heartbeat renews g every TTL/4 until ctx ends or the lease is lost.
func heartbeat(ctx context.Context, c Coordinator, g Grant) {
	tick := time.NewTicker(max(g.TTL/4, time.Millisecond))
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			if held, err := c.Heartbeat(ctx, g); err != nil || !held {
				return
			}
		}
	}
}

// runShardWork characterises one shard for one lease attempt and returns
// its artefact bytes. Every completed cell is write-ahead journaled
// (store.Journal) in the attempt's own directory, and the journals of all
// earlier attempts are replayed read-only first — a crashed or killed
// attempt costs at most the cell that was in flight, and a hung-but-alive
// previous attempt can keep appending to its own journal without
// corrupting this one.
func runShardWork(ctx context.Context, opts Options, fp store.Fingerprint, spec Spec, attempt int, fault faultinject.ShardFault) ([]byte, error) {
	cfgs, err := configsFor(opts.Charlib, spec)
	if err != nil {
		return nil, err
	}
	sfp := shardFingerprint(fp, spec)

	adir := attemptDir(opts.Dir, spec.ID, attempt)
	if err := os.MkdirAll(adir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: creating attempt dir: %w", err)
	}

	// Salvage prior attempts. Unreadable or stale journals are skipped, not
	// fatal: the worst case is recharacterising a cell.
	completed := make(map[string]*core.CellModel)
	for g := 1; g < attempt; g++ {
		models, err := store.ReplayJournal(filepath.Join(attemptDir(opts.Dir, spec.ID, g), journalDirName), sfp)
		if err != nil {
			continue
		}
		for name, m := range models {
			completed[name] = m
		}
	}

	j, err := store.CreateJournal(filepath.Join(adir, journalDirName), sfp)
	if err != nil {
		return nil, err
	}
	defer j.Close()

	attemptCtx := ctx
	cancelAttempt := func() {}
	if fault == faultinject.ShardFaultKill {
		attemptCtx, cancelAttempt = context.WithCancel(ctx)
		defer cancelAttempt()
	}
	var killOnce sync.Once

	shardOpts := opts.Charlib
	shardOpts.Cells = cfgs
	shardOpts.Ctx = attemptCtx
	shardOpts.Completed = completed
	progress := opts.Progress
	shardOpts.Progress = func(format string, args ...any) {
		progress("["+spec.ID+"] "+format, args...)
	}
	shardOpts.Checkpoint = func(m *core.CellModel) error {
		if err := j.Append(m); err != nil {
			return err
		}
		// The injected crash lands after the first durable checkpoint, so
		// the retry provably salvages journaled work.
		if fault == faultinject.ShardFaultKill {
			killOnce.Do(cancelAttempt)
		}
		return nil
	}

	lib, err := charlib.Characterize(shardOpts)
	if fault == faultinject.ShardFaultKill {
		return nil, fmt.Errorf("shard %s attempt %d: worker killed mid-shard (fault injection)", spec.ID, attempt)
	}
	if err != nil {
		return nil, fmt.Errorf("shard %s attempt %d: %w", spec.ID, attempt, err)
	}

	b, err := encodeArtifact(fp, spec, lib.Cells)
	if err != nil {
		return nil, err
	}
	// An honest worker verifies what it ships; a corrupt-fault worker then
	// damages it, so the coordinator's verify-before-accept path is the one
	// that must catch the damage.
	if _, err := decodeArtifact(b, fp, spec); err != nil {
		return nil, err
	}
	if fault == faultinject.ShardFaultCorrupt {
		// Damage a run of bytes mid-file. Whatever they land on — structure,
		// a model value, a recorded digest — verification must notice.
		for i, off := 0, len(b)/3; i < 16 && off+i < len(b); i++ {
			b[off+i] ^= 0x5a
		}
	}
	return b, nil
}

// RunAttempt characterises one shard for one lease attempt against a work
// directory laid out like a campaign directory (opts.Dir) and returns the
// artefact bytes, verified unless opts.Fault corrupted them.
func RunAttempt(opts Options, spec Spec, attempt int) ([]byte, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	return runShardWork(opts.Charlib.Ctx, opts, Fingerprint(opts.Charlib), spec, attempt,
		opts.Fault.Decide(spec.Index, attempt))
}

// ComparePlan verifies a remotely-advertised campaign — its fingerprint
// hash and shard table — against the plan this process derives from its own
// options. A mismatch is store.ErrStale: the worker and coordinator were
// built or configured differently, and no work must happen.
func ComparePlan(opts Options, fpHash string, remote []Spec) error {
	if err := opts.fill(); err != nil {
		return err
	}
	fp := Fingerprint(opts.Charlib)
	if fp.Hash() != fpHash {
		return fmt.Errorf("%w: coordinator campaign was planned with different options "+
			"(grid/cells/tech/solver settings differ)", store.ErrStale)
	}
	specs := Plan(opts.Charlib, opts.ShardCells)
	if len(remote) != len(specs) {
		return fmt.Errorf("%w: coordinator plan has %d shards, this worker derives %d (shard size differs)",
			store.ErrStale, len(remote), len(specs))
	}
	for i, s := range remote {
		want := specs[i]
		if s.ID != want.ID || s.Index != want.Index || len(s.Cells) != len(want.Cells) {
			return fmt.Errorf("%w: coordinator shard %d differs from this worker's derived plan", store.ErrStale, i)
		}
		for j, c := range s.Cells {
			if c != want.Cells[j] {
				return fmt.Errorf("%w: coordinator shard %s cell list differs from this worker's derived plan",
					store.ErrStale, s.ID)
			}
		}
	}
	return nil
}
