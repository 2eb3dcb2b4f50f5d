package shard

// The shard chaos suite: real end-to-end campaigns with seeded worker-level
// fault injection — kills, hangs and artefact corruption mid-campaign — that
// must still converge to a publish byte-identical to an uninterrupted
// single-process run. Named TestShardChaos* so `make shard-chaos` selects
// exactly these (the cheaper fault tests in shard_test.go run with the
// ordinary suite).

import (
	"context"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"sstiming/internal/engine"
	"sstiming/internal/faultinject"
	"sstiming/internal/store"
)

// chaosSeed resolves a suite seed — overridable via the CHAOS_SEED env var,
// printed on failure so any run is reproducible.
func chaosSeed(t *testing.T, def int64) int64 {
	t.Helper()
	seed := faultinject.SeedFromEnv(def)
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("reproduce with CHAOS_SEED=%d", seed)
		}
	})
	return seed
}

// chaosRun executes one faulted campaign with tight lease timing and
// verifies the publish against the baseline. Transient faults must never
// quarantine.
func chaosRun(t *testing.T, plan *faultinject.ShardPlan, shardCells, workers int, wantLib, wantMan []byte) *Report {
	t.Helper()
	dir := t.TempDir()
	out := filepath.Join(dir, "lib.json")
	met := engine.NewMetrics()
	_, rep, err := Run(Options{
		Charlib:     campaignCharlib(),
		Out:         out,
		ShardCells:  shardCells,
		Workers:     workers,
		LeaseTTL:    400 * time.Millisecond,
		Backoff:     10 * time.Millisecond,
		MaxAttempts: 8,
		Fault:       plan,
		Metrics:     met,
	})
	if err != nil {
		t.Fatalf("faulted campaign failed: %v (report %+v)", err, rep)
	}
	if len(rep.Quarantined) != 0 {
		t.Fatalf("transient faults must not quarantine: %+v", rep)
	}
	requireIdenticalPublish(t, out, wantLib, wantMan)
	return rep
}

// TestShardChaosKill: every first attempt crashes after its first durable
// checkpoint. The leases expire, the retries salvage the journals, and the
// publish is byte-identical.
func TestShardChaosKill(t *testing.T) {
	wantLib, wantMan := singleProcessBaseline(t)
	plan := faultinject.NewShardPlan(chaosSeed(t, 3), 0, 0, 0)
	for i := 0; i < 3; i++ {
		plan.Force(i, 1, faultinject.ShardFaultKill)
	}
	rep := chaosRun(t, plan, 1, 3, wantLib, wantMan)
	if rep.Expired != 3 {
		t.Fatalf("expired leases = %d, want 3 (every first attempt was killed)", rep.Expired)
	}
	if rep.Retries != 3 || rep.Completed != 3 {
		t.Fatalf("retries/completed = %d/%d, want 3/3 (report %+v)", rep.Retries, rep.Completed, rep)
	}
}

// TestShardChaosHang: the single shard's first attempt stalls past its
// lease (heartbeats stop), the shard is reassigned and the resurrected
// worker's extra completion is handled idempotently — one completion wins,
// the other is discarded, and the publish is byte-identical either way.
func TestShardChaosHang(t *testing.T) {
	wantLib, wantMan := singleProcessBaseline(t)
	plan := faultinject.NewShardPlan(chaosSeed(t, 5), 0, 0, 0)
	plan.Force(0, 1, faultinject.ShardFaultHang)
	// One 3-cell shard: the hang outlives the lease mid-work, so the
	// journal already holds the finished cells when the retry salvages it.
	rep := chaosRun(t, plan, 3, 2, wantLib, wantMan)
	if rep.Expired != 1 {
		t.Fatalf("expired leases = %d, want 1 (the hung attempt)", rep.Expired)
	}
	if rep.Completed != 1 || rep.DuplicatesDiscarded != 1 {
		t.Fatalf("completed/duplicates = %d/%d, want 1/1 (report %+v)",
			rep.Completed, rep.DuplicatesDiscarded, rep)
	}
	if rep.Retries != 1 {
		t.Fatalf("retries = %d, want 1", rep.Retries)
	}
}

// TestShardChaosCorrupt: every first attempt completes but its artefact
// bytes are damaged; verification rejects each one and the retries publish
// clean artefacts.
func TestShardChaosCorrupt(t *testing.T) {
	wantLib, wantMan := singleProcessBaseline(t)
	plan := faultinject.NewShardPlan(chaosSeed(t, 7), 0, 0, 0)
	for i := 0; i < 3; i++ {
		plan.Force(i, 1, faultinject.ShardFaultCorrupt)
	}
	rep := chaosRun(t, plan, 1, 3, wantLib, wantMan)
	if rep.CorruptArtifacts != 3 {
		t.Fatalf("corrupt artifacts = %d, want 3", rep.CorruptArtifacts)
	}
	if rep.Retries != 3 || rep.Expired != 0 {
		t.Fatalf("retries/expired = %d/%d, want 3/0 (corruption is detected at submission, "+
			"not by lease expiry); report %+v", rep.Retries, rep.Expired, rep)
	}
}

// TestShardChaosMixedStorm: all three fault kinds at high seeded rates
// under a generous attempt budget — the pressure test. Whatever the storm
// schedules, the campaign must converge to the byte-identical publish
// without quarantining.
func TestShardChaosMixedStorm(t *testing.T) {
	wantLib, wantMan := singleProcessBaseline(t)
	plan := faultinject.NewShardPlan(chaosSeed(t, 11), 0.3, 0.2, 0.2)
	rep := chaosRun(t, plan, 1, 3, wantLib, wantMan)
	if plan.Injected() == 0 {
		t.Fatal("storm injected nothing; raise the rates or change the seed")
	}
	t.Logf("storm report: %+v (decisions %d, injected %d)", rep, plan.Decisions(), plan.Injected())
}

// campaignKiller cancels a campaign context after the Nth shard completion
// — the deterministic stand-in for SIGKILLing the coordinator process.
type campaignKiller struct {
	ctx    context.Context
	cancel context.CancelFunc
	n      atomic.Int64
	after  int64
}

func newCampaignKiller(after int64) *campaignKiller {
	k := &campaignKiller{after: after}
	k.ctx, k.cancel = context.WithCancel(context.Background())
	return k
}

func (k *campaignKiller) onComplete(string) {
	if k.n.Add(1) == k.after {
		k.cancel()
	}
}

// killAfterLastPromotion runs opts' campaign and kills its coordinator
// right after the last shard promotion: every shard artefact is promoted in
// the campaign directory and nothing is published at opts.Out.
func killAfterLastPromotion(t *testing.T, opts Options) {
	t.Helper()
	kill := newCampaignKiller(int64(len(Plan(opts.Charlib, opts.ShardCells))))
	defer kill.cancel()
	opts.Charlib.Ctx = kill.ctx
	opts.OnShardComplete = kill.onComplete
	if _, _, err := Run(opts); err == nil {
		t.Fatal("killed coordinator reported success")
	}
	if _, err := os.Stat(opts.Out); !os.IsNotExist(err) {
		t.Fatalf("killed coordinator published anyway: %v", err)
	}
}

// TestShardChaosResumeAfterCoordinatorCrashMidCampaign kills the
// coordinator after the FIRST shard completes, then resumes: completed work
// is reused, only the remainder re-runs, and the publish is byte-identical.
func TestShardChaosResumeAfterCoordinatorCrashMidCampaign(t *testing.T) {
	wantLib, wantMan := singleProcessBaseline(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "lib.json")

	kill := newCampaignKiller(1)
	o := campaignCharlib()
	o.Ctx = kill.ctx
	_, _, err := Run(Options{
		Charlib:         o,
		Out:             out,
		ShardCells:      1,
		Workers:         1, // serial: exactly one shard completes before the crash
		OnShardComplete: kill.onComplete,
	})
	if err == nil {
		t.Fatal("crashed coordinator reported success")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("crashed coordinator published anyway: %v", err)
	}

	met := engine.NewMetrics()
	_, rep, err := Run(Options{
		Charlib:    campaignCharlib(),
		Out:        out,
		ShardCells: 1,
		Workers:    2,
		Resume:     true,
		Metrics:    met,
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if rep.Reused != 1 {
		t.Fatalf("resume reused %d shards, want 1", rep.Reused)
	}
	if got := met.Get(engine.CharCells); got != 2 {
		t.Fatalf("resume recharacterised %d cells, want the remaining 2", got)
	}
	requireIdenticalPublish(t, out, wantLib, wantMan)
}

// TestShardChaosResumeDiscardsCorruptPromotedArtifact: bytes of an
// already-promoted shard artefact rot on disk between runs; resume must
// detect, discard and recharacterise that shard — never publish from it.
func TestShardChaosResumeDiscardsCorruptPromotedArtifact(t *testing.T) {
	wantLib, wantMan := singleProcessBaseline(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "lib.json")
	opts := Options{Charlib: campaignCharlib(), Out: out, ShardCells: 1}
	killAfterLastPromotion(t, opts)
	// Rot the middle shard's committed artefact.
	p := promotedPath(out+".campaign", "s01")
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}

	met := engine.NewMetrics()
	opts.Resume = true
	opts.Metrics = met
	_, rep, err := Run(opts)
	if err != nil {
		t.Fatalf("resume over rot: %v", err)
	}
	if rep.Reused != 2 || rep.CorruptArtifacts != 1 {
		t.Fatalf("reused/corrupt = %d/%d, want 2/1 (report %+v)", rep.Reused, rep.CorruptArtifacts, rep)
	}
	if got := met.Get(engine.CharCells); got != 1 {
		t.Fatalf("recharacterised %d cells, want exactly the rotted shard's 1", got)
	}
	requireIdenticalPublish(t, out, wantLib, wantMan)
}

// TestShardChaosQuarantinePersistentFault drives one shard into quarantine
// under a persistent fault and proves the campaign degrades instead of
// wedging: the publish succeeds inside the budget with the analytic
// fallback substituted, and the degraded artefact still loads.
func TestShardChaosQuarantinePersistentFault(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "lib.json")
	plan := faultinject.NewShardPlan(chaosSeed(t, 13), 0, 0, 0)
	plan.Persist(2, faultinject.ShardFaultCorrupt) // NOR2's shard never verifies
	lib, rep, err := Run(Options{
		Charlib:            campaignCharlib(),
		Out:                out,
		ShardCells:         1,
		Workers:            2,
		MaxAttempts:        3,
		Backoff:            10 * time.Millisecond,
		MaxQuarantinedFrac: 0.5,
		Fault:              plan,
	})
	if err != nil {
		t.Fatalf("campaign wedged instead of degrading: %v", err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != "s02" {
		t.Fatalf("quarantined = %v, want [s02]", rep.Quarantined)
	}
	if rep.CorruptArtifacts != 3 {
		t.Fatalf("corrupt artifacts = %d, want 3 (MaxAttempts)", rep.CorruptArtifacts)
	}
	if _, ok := lib.Cells["NOR2"]; !ok {
		t.Fatal("quarantined NOR2 missing from publish")
	}
	if _, _, err := store.LoadFile(out, store.LoadOptions{}); err != nil {
		t.Fatalf("degraded publish does not load: %v", err)
	}
}
