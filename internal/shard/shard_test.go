package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sstiming/internal/cells"
	"sstiming/internal/charlib"
	"sstiming/internal/core"
	"sstiming/internal/device"
	"sstiming/internal/engine"
	"sstiming/internal/faultinject"
	"sstiming/internal/store"
)

// campaignCharlib returns the reduced characterisation options every shard
// test campaigns over: three cells on a 3-point grid, cheap enough for the
// chaos suite to run real end-to-end campaigns.
func campaignCharlib() charlib.Options {
	tech := device.Default05um()
	return charlib.Options{
		Tech: tech,
		Grid: []float64{0.2e-9, 0.5e-9, 1.0e-9},
		Cells: []cells.Config{
			{Kind: cells.Inv, N: 1, Tech: tech, LoadInverter: true},
			{Kind: cells.NAND, N: 2, Tech: tech, LoadInverter: true},
			{Kind: cells.NOR, N: 2, Tech: tech, LoadInverter: true},
		},
		TStep: 3e-12,
		Jobs:  1,
	}
}

// singleProcessBaseline characterises the campaign without sharding and
// publishes it, returning the library and manifest bytes. Characterisation
// is deterministic, so the result is computed once and shared across every
// test that compares against it.
var baseline struct {
	once     sync.Once
	lib, man []byte
	err      error
}

func singleProcessBaseline(t *testing.T) ([]byte, []byte) {
	t.Helper()
	baseline.once.Do(func() {
		dir, err := os.MkdirTemp("", "shard-baseline-")
		if err != nil {
			baseline.err = err
			return
		}
		defer os.RemoveAll(dir)
		out := filepath.Join(dir, "lib.json")
		lib, err := charlib.Characterize(campaignCharlib())
		if err != nil {
			baseline.err = fmt.Errorf("baseline characterize: %w", err)
			return
		}
		o := campaignCharlib().Resolved()
		if _, err := store.WriteLibrary(out, lib, o.Grid, o.NCPairs); err != nil {
			baseline.err = fmt.Errorf("baseline publish: %w", err)
			return
		}
		if baseline.lib, err = os.ReadFile(out); err != nil {
			baseline.err = err
			return
		}
		baseline.man, baseline.err = os.ReadFile(store.ManifestPath(out))
	})
	if baseline.err != nil {
		t.Fatalf("baseline: %v", baseline.err)
	}
	return baseline.lib, baseline.man
}

// requireIdenticalPublish compares a campaign's published artefact pair
// against the single-process baseline byte for byte.
func requireIdenticalPublish(t *testing.T, out string, wantLib, wantMan []byte) {
	t.Helper()
	gotLib, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("reading published library: %v", err)
	}
	if !bytes.Equal(gotLib, wantLib) {
		t.Fatalf("published library differs from single-process baseline (%d vs %d bytes)",
			len(gotLib), len(wantLib))
	}
	gotMan, err := os.ReadFile(store.ManifestPath(out))
	if err != nil {
		t.Fatalf("reading published manifest: %v", err)
	}
	if !bytes.Equal(gotMan, wantMan) {
		t.Fatal("published manifest differs from single-process baseline")
	}
}

func TestPlanPartitionsCampaign(t *testing.T) {
	o := campaignCharlib().Resolved()
	for _, per := range []int{1, 2, 3, 5} {
		specs := Plan(o, per)
		var got []string
		for _, s := range specs {
			if len(s.Cells) > per {
				t.Fatalf("cellsPer=%d: shard %s has %d cells", per, s.ID, len(s.Cells))
			}
			got = append(got, s.Cells...)
		}
		if len(got) != len(o.Cells) {
			t.Fatalf("cellsPer=%d: plan covers %d of %d cells", per, len(got), len(o.Cells))
		}
		for i, cfg := range o.Cells {
			if got[i] != cfg.Name() {
				t.Fatalf("cellsPer=%d: cell %d is %s, want %s", per, i, got[i], cfg.Name())
			}
		}
	}
}

func TestFingerprintMatchesCampaignOrder(t *testing.T) {
	o := campaignCharlib().Resolved()
	if Fingerprint(o).Hash() != Fingerprint(o).Hash() {
		t.Fatal("fingerprint not deterministic")
	}
	o2 := o
	o2.Grid = []float64{0.2e-9, 0.5e-9}
	if Fingerprint(o).Hash() == Fingerprint(o2).Hash() {
		t.Fatal("different grids share a fingerprint")
	}
}

// TestShardedMatchesSingleProcess is the core merge contract: a clean
// sharded campaign publishes byte-identical artefacts to an uninterrupted
// single-process run.
func TestShardedMatchesSingleProcess(t *testing.T) {
	wantLib, wantMan := singleProcessBaseline(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "lib.json")
	met := engine.NewMetrics()
	_, rep, err := Run(Options{
		Charlib:    campaignCharlib(),
		Out:        out,
		ShardCells: 1,
		Workers:    3,
		Metrics:    met,
	})
	if err != nil {
		t.Fatalf("sharded run: %v", err)
	}
	if rep.Shards != 3 || rep.Completed != 3 || rep.Leases != 3 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	requireIdenticalPublish(t, out, wantLib, wantMan)
	if _, err := os.Stat(out + ".campaign"); !os.IsNotExist(err) {
		t.Fatalf("campaign dir not cleaned up after publish: %v", err)
	}
	if got := met.Get(engine.ShardLeases); got != 3 {
		t.Fatalf("shard/leases_granted = %d, want 3", got)
	}
}

// TestResumeRefusesChangedOptions: a campaign directory written under
// different options must be ErrStale, not silently merged.
func TestResumeRefusesChangedOptions(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "lib.json")
	opts := Options{Charlib: campaignCharlib(), Out: out, ShardCells: 1}
	killAfterLastPromotion(t, opts)
	changed := opts
	changed.Charlib.Grid = []float64{0.2e-9, 0.6e-9, 1.0e-9}
	changed.Resume = true
	if _, _, err := Run(changed); !errors.Is(err, store.ErrStale) {
		t.Fatalf("changed grid: got %v, want ErrStale", err)
	}
	// Same options but a different shard size changes the plan.
	resized := opts
	resized.ShardCells = 3
	resized.Resume = true
	if _, _, err := Run(resized); !errors.Is(err, store.ErrStale) {
		t.Fatalf("changed shard size: got %v, want ErrStale", err)
	}
}

// TestQuarantineBudget: a shard that exhausts its retry budget falls back
// to analytic cells inside the budget, and fails the campaign beyond it.
func TestQuarantineBudget(t *testing.T) {
	wantLibBytes, _ := singleProcessBaseline(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "lib.json")
	plan := faultinject.NewShardPlan(1, 0, 0, 0)
	plan.Persist(1, faultinject.ShardFaultCorrupt) // NAND2's shard never verifies
	met := engine.NewMetrics()
	lib, rep, err := Run(Options{
		Charlib:            campaignCharlib(),
		Out:                out,
		ShardCells:         1,
		Workers:            2,
		MaxAttempts:        2,
		Backoff:            5 * time.Millisecond,
		MaxQuarantinedFrac: 0.5,
		Fault:              plan,
		Metrics:            met,
	})
	if err != nil {
		t.Fatalf("campaign should survive quarantine: %v", err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != "s01" {
		t.Fatalf("quarantined = %v, want [s01]", rep.Quarantined)
	}
	if len(rep.QuarantinedCells) != 1 || rep.QuarantinedCells[0] != "NAND2" {
		t.Fatalf("quarantined cells = %v, want [NAND2]", rep.QuarantinedCells)
	}
	if rep.CorruptArtifacts != 2 {
		t.Fatalf("corrupt artifacts = %d, want 2 (one per attempt)", rep.CorruptArtifacts)
	}
	if got := met.Get(engine.ShardQuarantined); got != 1 {
		t.Fatalf("shard/quarantined_shards = %d, want 1", got)
	}
	// The degraded publish is NOT byte-identical (that is the point of the
	// fallback), but it must be loadable and cover the full cell set.
	if _, ok := lib.Cells["NAND2"]; !ok {
		t.Fatal("quarantined cell missing from merged library")
	}
	pubBytes, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(pubBytes, wantLibBytes) {
		t.Fatal("quarantined campaign published baseline bytes; fallback was not substituted")
	}
	if _, _, err := store.LoadFile(out, store.LoadOptions{}); err != nil {
		t.Fatalf("quarantined publish does not load: %v", err)
	}

	// Beyond the budget the campaign fails typed, not wedges.
	out2 := filepath.Join(dir, "lib2.json")
	plan2 := faultinject.NewShardPlan(1, 0, 0, 0)
	plan2.Persist(1, faultinject.ShardFaultCorrupt)
	_, _, err = Run(Options{
		Charlib:            campaignCharlib(),
		Out:                out2,
		ShardCells:         1,
		Workers:            2,
		MaxAttempts:        2,
		Backoff:            5 * time.Millisecond,
		MaxQuarantinedFrac: -1, // forbid quarantine entirely
		Fault:              plan2,
	})
	if !errors.Is(err, ErrQuarantineBudget) {
		t.Fatalf("over-budget campaign: got %v, want ErrQuarantineBudget", err)
	}
}

// TestCoordinatorKillResumeMidMerge kills the coordinator between the last
// shard completion and the publish, then resumes: the publish must be
// byte-identical and recompute nothing.
func TestCoordinatorKillResumeMidMerge(t *testing.T) {
	wantLib, wantMan := singleProcessBaseline(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "lib.json")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completions atomic.Int64
	o := campaignCharlib()
	o.Ctx = ctx
	_, _, err := Run(Options{
		Charlib:    o,
		Out:        out,
		ShardCells: 1,
		Workers:    2,
		OnShardComplete: func(string) {
			if completions.Add(1) == 3 {
				cancel() // SIGKILL stand-in: die after the last promotion
			}
		},
	})
	if err == nil {
		t.Fatal("killed coordinator reported success")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("killed coordinator published anyway: %v", err)
	}

	// Simulate a torn publish attempt racing the crash: garbage at the
	// output path must be replaced atomically on resume.
	if err := os.WriteFile(out, []byte("torn{"), 0o644); err != nil {
		t.Fatal(err)
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
	if rep.Reused != 3 {
		t.Fatalf("resume reused %d shards, want 3", rep.Reused)
	}
	if got := met.Get(engine.CharCells); got != 0 {
		t.Fatalf("resume recharacterised %d cells, want 0", got)
	}
	requireIdenticalPublish(t, out, wantLib, wantMan)
}

// TestResumeChecksDegradedBudgetBeforePublish: the campaign fingerprint
// does not pin the per-cell degradation budget, so a resume under a
// stricter -max-degraded reuses artefacts characterised under a looser one.
// The merge must refuse such a cell before anything is written, and keep
// the campaign directory for a rerun.
func TestResumeChecksDegradedBudgetBeforePublish(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "lib.json")
	opts := Options{Charlib: campaignCharlib(), Out: out, ShardCells: 1}
	killAfterLastPromotion(t, opts)

	// Give INV's promoted artefact 2 degraded points in 10: inside the
	// default 25% budget, over the 10% one the resume asks for.
	o := campaignCharlib().Resolved()
	fp, spec := Fingerprint(o), Plan(o, 1)[0]
	p := promotedPath(out+".campaign", spec.ID)
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	models, err := decodeArtifact(b, fp, spec)
	if err != nil {
		t.Fatal(err)
	}
	models["INV"].Health = &core.CellHealth{Points: 10, Degraded: []core.DegradedPoint{
		{Surface: "pin0/ctrl", Tx: 0.2e-9, Reason: "injected"},
		{Surface: "pin0/ctrl", Tx: 0.5e-9, Reason: "injected"},
	}}
	if b, err = encodeArtifact(fp, spec, models); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}

	opts.Resume = true
	opts.Charlib.MaxDegradedFrac = 0.1
	_, rep, err := Run(opts)
	if !errors.Is(err, charlib.ErrDegradedBudget) {
		t.Fatalf("resume over budget: got %v, want ErrDegradedBudget", err)
	}
	if rep.Reused != 3 {
		t.Fatalf("resume reused %d shards, want 3 (the rewritten artefact must verify)", rep.Reused)
	}
	for _, f := range []string{out, store.ManifestPath(out)} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Fatalf("over-budget campaign wrote %s: %v", f, err)
		}
	}
	if _, err := os.Stat(out + ".campaign"); err != nil {
		t.Fatalf("campaign directory gone after a failed merge: %v", err)
	}
}

// TestArtifactVerificationTaxonomy pins the typed-error contract of
// decodeArtifact.
func TestArtifactVerificationTaxonomy(t *testing.T) {
	o := campaignCharlib().Resolved()
	fp := Fingerprint(o)
	specs := Plan(o, 1)
	tech := o.Tech
	m, err := store.AnalyticModel("INV", tech)
	if err != nil {
		t.Fatal(err)
	}
	good, err := encodeArtifact(fp, specs[0], map[string]*core.CellModel{"INV": m})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeArtifact(good, fp, specs[0]); err != nil {
		t.Fatalf("good artifact rejected: %v", err)
	}
	if _, err := decodeArtifact([]byte("{"), fp, specs[0]); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("truncated JSON: got %v, want ErrCorrupt", err)
	}
	if _, err := decodeArtifact(good, fp, specs[1]); !errors.Is(err, store.ErrStale) {
		t.Fatalf("wrong shard: got %v, want ErrStale", err)
	}
	otherFP := fp
	otherFP.TStep = 1e-12
	if _, err := decodeArtifact(good, otherFP, specs[0]); !errors.Is(err, store.ErrStale) {
		t.Fatalf("wrong campaign: got %v, want ErrStale", err)
	}
	flipped := bytes.Replace(good, []byte(`"Kind": "INV"`), []byte(`"Kind": "XNV"`), 1)
	if bytes.Equal(flipped, good) {
		t.Fatal("corruption no-op; fix the test")
	}
	if _, err := decodeArtifact(flipped, fp, specs[0]); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("hash mismatch: got %v, want ErrCorrupt", err)
	}
}
