// Package shard runs characterisation campaigns as fault-tolerant
// coordinator/worker jobs: the campaign is split into cell-range shards,
// workers characterise shards under time-bounded leases, and the coordinator
// merges verified shard artefacts into one atomic publish that is
// byte-identical to an uninterrupted single-process run.
//
// Robustness is the headline contract (DESIGN.md §14):
//
//   - workers heartbeat while they hold a shard; a lease that expires
//     (crash, hang, partition) is reassigned with exponential backoff under
//     a bounded per-shard retry budget;
//   - every shard completion is verified against its manifest (campaign
//     fingerprint, shard id, per-cell SHA-256) before it is accepted — the
//     lease protocol only prevents duplicate work, it is never trusted for
//     correctness, so a late completion from a resurrected worker is either
//     accepted (the shard was still open and the artefact verifies) or
//     discarded idempotently (already complete), and a corrupted artefact
//     is rejected and the shard retried;
//   - a shard that exhausts its retry budget is quarantined: its cells are
//     published from the closed-form analytic fallback (the PR 5
//     degraded-cell path) under a campaign-level budget, instead of
//     wedging the whole campaign;
//   - all durable state lives in the campaign directory (shard journals,
//     promoted shard artefacts, the campaign meta); the coordinator itself
//     is stateless across crashes — killing it at any point, including
//     mid-merge, and rerunning with Resume publishes the identical
//     artefact.
//
// Within a shard the PR 5 machinery is reused unchanged: each completed
// cell is appended to a per-attempt write-ahead journal, and a retried
// shard replays every earlier attempt's journal read-only, so worker
// crashes cost at most the cell in flight.
package shard

import (
	"errors"
	"fmt"
	"time"

	"sstiming/internal/cells"
	"sstiming/internal/charlib"
	"sstiming/internal/engine"
	"sstiming/internal/faultinject"
	"sstiming/internal/store"
)

// SchemaVersion is the campaign/shard artefact schema this package writes
// and accepts.
const SchemaVersion = 1

// Typed campaign errors. The store taxonomy (store.ErrCorrupt,
// store.ErrSchemaMismatch, store.ErrStale) is reused for artefact and meta
// verification failures, so callers branch on one error set across both
// layers.
var (
	// ErrDuplicateCell marks a merge whose shard artefacts claim the same
	// cell more than once — shards must partition the campaign.
	ErrDuplicateCell = errors.New("shard: duplicate cell across shards")
	// ErrQuarantineBudget marks a campaign whose quarantined-cell fraction
	// exceeded the configured budget.
	ErrQuarantineBudget = errors.New("shard: quarantined cells exceed budget")
	// ErrUnknownShard marks a claim or request naming a shard the campaign
	// plan does not list.
	ErrUnknownShard = errors.New("shard: unknown shard id")
	// ErrRejected marks a completion claim the coordinator resolved
	// against the worker (the artefact failed verification or could not be
	// promoted); the shard is retried.
	ErrRejected = errors.New("shard: completion rejected")
)

// Spec identifies one shard: a contiguous cell range of the campaign.
type Spec struct {
	// ID is the shard's stable identifier ("s00", "s01", ...).
	ID string
	// Index is the shard's position in the campaign plan.
	Index int
	// Cells lists the cell names the shard characterises, in campaign
	// order.
	Cells []string
}

// Fingerprint derives the campaign fingerprint from resolved
// characterisation options — the same pinning cmd/characterize applies to
// single-process journals, so a sharded and an unsharded run of identical
// options carry identical fingerprints.
func Fingerprint(o charlib.Options) store.Fingerprint {
	names := make([]string, len(o.Cells))
	for i, cfg := range o.Cells {
		names[i] = cfg.Name()
	}
	return store.Fingerprint{
		Tech:         o.Tech.Name,
		Vdd:          o.Tech.Vdd,
		Grid:         o.Grid,
		Cells:        names,
		TStep:        o.TStep,
		SkewTol:      o.SkewTol,
		SkipPairs:    o.SkipPairs,
		PaperExactD0: o.PaperExactD0,
		NCPairs:      o.NCPairs,
	}
}

// shardFingerprint pins one shard's journal: the campaign fingerprint
// restricted to the shard's cell set. Journals from a different campaign —
// or a different shard of this one — are ErrStale on replay.
func shardFingerprint(campaign store.Fingerprint, spec Spec) store.Fingerprint {
	fp := campaign
	fp.Cells = spec.Cells
	return fp
}

// Plan splits resolved campaign options into shards of at most cellsPer
// cells each (cellsPer <= 0 selects 1). The plan is a pure function of the
// options, so every coordinator restart and every remote worker derives the
// same shard table.
func Plan(o charlib.Options, cellsPer int) []Spec {
	if cellsPer <= 0 {
		cellsPer = 1
	}
	var specs []Spec
	for start := 0; start < len(o.Cells); start += cellsPer {
		end := start + cellsPer
		if end > len(o.Cells) {
			end = len(o.Cells)
		}
		names := make([]string, 0, end-start)
		for _, cfg := range o.Cells[start:end] {
			names = append(names, cfg.Name())
		}
		specs = append(specs, Spec{
			ID:    fmt.Sprintf("s%02d", len(specs)),
			Index: len(specs),
			Cells: names,
		})
	}
	return specs
}

// configsFor maps a shard's cell names back to their characterisation
// configs in the resolved campaign options.
func configsFor(o charlib.Options, spec Spec) ([]cells.Config, error) {
	byName := make(map[string]cells.Config, len(o.Cells))
	for _, cfg := range o.Cells {
		byName[cfg.Name()] = cfg
	}
	cfgs := make([]cells.Config, 0, len(spec.Cells))
	for _, name := range spec.Cells {
		cfg, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("%w: shard %s lists cell %q the campaign does not characterise",
				store.ErrStale, spec.ID, name)
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs, nil
}

// Options configures a sharded campaign run.
type Options struct {
	// Charlib is the campaign's characterisation configuration; it is
	// resolved (defaults filled) before planning, exactly as the
	// single-process path does, so the two publish identical bytes.
	Charlib charlib.Options
	// Out is the library path the merged campaign publishes to (with its
	// sidecar manifest).
	Out string
	// Dir is the campaign directory holding all durable shard state;
	// empty selects Out + ".campaign".
	Dir string
	// Resume reuses an existing campaign directory: completed shards are
	// verified and kept, everything else re-runs. A directory written by a
	// campaign with different options is refused with store.ErrStale.
	// Without Resume any existing directory is discarded.
	Resume bool
	// ShardCells is the number of cells per shard; <= 0 selects 1.
	ShardCells int
	// Workers is the number of concurrent in-process workers; <= 0
	// selects 2.
	Workers int
	// LeaseTTL bounds how long a worker may hold a shard without
	// heartbeating before the coordinator reassigns it; 0 selects 2m.
	LeaseTTL time.Duration
	// MaxAttempts is the per-shard lease budget (first attempt included);
	// 0 selects 3. A shard still incomplete after MaxAttempts leases is
	// quarantined.
	MaxAttempts int
	// Backoff is the base delay before a failed shard is re-leased,
	// doubling per attempt; 0 selects 250ms.
	Backoff time.Duration
	// MaxQuarantinedFrac is the campaign-level degradation budget: the
	// largest tolerated fraction of campaign cells published from the
	// analytic fallback because their shard was quarantined. Zero selects
	// the resolved charlib MaxDegradedFrac (the -max-degraded budget);
	// negative forbids quarantine entirely.
	MaxQuarantinedFrac float64
	// Fault, when non-nil, injects deterministic worker-level faults
	// (kill/hang/corrupt; see faultinject.ShardPlan). Chaos testing only.
	Fault *faultinject.ShardPlan
	// OnShardComplete, when non-nil, is called (unlocked) after each shard
	// first becomes complete — the deterministic hook chaos tests use to
	// kill the coordinator at exact points.
	OnShardComplete func(id string)
	// Progress, when non-nil, receives one line per campaign event.
	Progress func(format string, args ...any)
	// Metrics, when non-nil, accumulates campaign counters (shard/*).
	Metrics *engine.Metrics
}

func (o *Options) fill() error {
	if o.Out == "" {
		return fmt.Errorf("shard: Options.Out is required")
	}
	o.Charlib = o.Charlib.Resolved()
	if o.Charlib.Metrics == nil {
		// One campaign, one counter set: characterisation effort inside
		// shards lands next to the shard/* counters.
		o.Charlib.Metrics = o.Metrics
	}
	if o.Dir == "" {
		o.Dir = o.Out + ".campaign"
	}
	if o.ShardCells <= 0 {
		o.ShardCells = 1
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 2 * time.Minute
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Backoff <= 0 {
		o.Backoff = 250 * time.Millisecond
	}
	if o.MaxQuarantinedFrac == 0 {
		o.MaxQuarantinedFrac = o.Charlib.MaxDegradedFrac
	} else if o.MaxQuarantinedFrac < 0 {
		o.MaxQuarantinedFrac = 0
	}
	if o.Progress == nil {
		o.Progress = func(string, ...any) {}
	}
	return nil
}

// Report summarises one campaign run.
type Report struct {
	// Shards is the campaign's shard count.
	Shards int
	// Completed counts shards that published a verified artefact.
	Completed int
	// Reused counts shards found already complete on resume (no lease was
	// ever granted for them this run).
	Reused int
	// Leases counts leases granted (retries included).
	Leases int
	// Expired counts leases the coordinator expired for missing
	// heartbeats.
	Expired int
	// Retries counts lease grants beyond each shard's first.
	Retries int
	// CorruptArtifacts counts completions rejected by manifest
	// verification.
	CorruptArtifacts int
	// DuplicatesDiscarded counts verified completions for shards that
	// were already complete.
	DuplicatesDiscarded int
	// Quarantined lists shards that exhausted their retry budget, in
	// campaign order.
	Quarantined []string
	// QuarantinedCells lists the cells published from the analytic
	// fallback, in campaign order.
	QuarantinedCells []string
}
