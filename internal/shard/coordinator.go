package shard

import (
	"fmt"
	"sync"

	"sstiming/internal/core"
)

// Run executes a sharded campaign to a durable publish at opts.Out and
// returns the merged library. See the package comment for the fault-
// tolerance contract; the published bytes are identical to what an
// uninterrupted charlib.Characterize + store.WriteLibrary of the same
// options would produce (when nothing was quarantined).
func Run(opts Options) (*core.Library, *Report, error) {
	t, err := NewTracker(opts)
	if err != nil {
		return nil, nil, err
	}
	opts = t.opts // resolved defaults

	ctx := opts.Charlib.Ctx

	// Workers: each runs the shared worker loop against the tracker until
	// the campaign is resolved. Run waits for every worker — including hung
	// ones submitting late, discardable completions — so a campaign's
	// counters are deterministic and no goroutine outlives the call. The
	// tracker never fails a call, so a worker stops early only when ctx
	// fires, which is checked below.
	stopSweeper := t.StartSweeper()
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = Work(ctx, t, opts)
		}()
	}
	wg.Wait()
	stopSweeper()

	if err := ctx.Err(); err != nil {
		return nil, t.Snapshot(), fmt.Errorf("shard: campaign cancelled: %w", err)
	}

	lib, err := t.MergeAndPublish()
	if err != nil {
		return nil, t.Snapshot(), err
	}
	// The publish is durable; the campaign scaffolding is spent (exactly
	// like a single-process run removing its journal).
	if err := t.RemoveDir(); err != nil {
		return nil, t.Snapshot(), err
	}
	return lib, t.Snapshot(), nil
}
