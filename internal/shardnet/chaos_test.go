package shardnet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sstiming/internal/engine"
	"sstiming/internal/faultinject"
	"sstiming/internal/shard"
)

// The net-chaos suite (make net-chaos): every test runs a real coordinator
// and real remote workers over loopback sockets with seeded network faults
// injected into the workers' transports, and proves the published library
// byte-identical to the single-process run. CHAOS_SEED overrides every
// suite's seed; failures print it.

// TestNetChaosLossyNetwork: both workers behind a lossy network — dropped
// requests, dropped responses (lost ACKs), delays, and genuinely duplicated
// deliveries — must still converge on the byte-identical library.
func TestNetChaosLossyNetwork(t *testing.T) {
	wantLib, wantMan := singleProcessBaseline(t)
	seed := chaosSeed(t, 42)
	//                   dropReq dropResp delay  dup   trunc corrupt
	rates := [6]float64{0.06, 0.05, 0.06, 0.06, 0, 0}
	plans := []*faultinject.NetPlan{
		faultinject.NewNetPlan(seed, rates, 5*time.Millisecond),
		faultinject.NewNetPlan(seed+1, rates, 5*time.Millisecond),
	}
	out := filepath.Join(t.TempDir(), "lib.json")
	rep, _ := runNetCampaign(t, out, 2, plans, seed)
	requireIdenticalPublish(t, out, wantLib, wantMan)
	if len(rep.Quarantined) != 0 {
		t.Fatalf("lossy network quarantined shards: %+v", rep.Quarantined)
	}
	injected := plans[0].Injected() + plans[1].Injected()
	t.Logf("report: %+v, injected faults: %d", rep, injected)
	if injected == 0 {
		t.Fatal("chaos run injected no faults — rates or seed are wrong")
	}
}

// TestNetChaosDamagedResponses: truncated and corrupted response bodies are
// undecodable replies — retried until a clean exchange lands, with server
// idempotency absorbing the replays of requests that DID execute.
func TestNetChaosDamagedResponses(t *testing.T) {
	wantLib, wantMan := singleProcessBaseline(t)
	seed := chaosSeed(t, 43)
	rates := [6]float64{0.02, 0, 0, 0, 0.08, 0.08}
	plans := []*faultinject.NetPlan{
		faultinject.NewNetPlan(seed, rates, 5*time.Millisecond),
		faultinject.NewNetPlan(seed+1, rates, 5*time.Millisecond),
	}
	out := filepath.Join(t.TempDir(), "lib.json")
	rep, _ := runNetCampaign(t, out, 2, plans, seed)
	requireIdenticalPublish(t, out, wantLib, wantMan)
	if len(rep.Quarantined) != 0 {
		t.Fatalf("damaged responses quarantined shards: %+v", rep.Quarantined)
	}
	damaged := plans[0].InjectedKind(faultinject.NetFaultTruncateResponse) +
		plans[1].InjectedKind(faultinject.NetFaultTruncateResponse) +
		plans[0].InjectedKind(faultinject.NetFaultCorruptResponse) +
		plans[1].InjectedKind(faultinject.NetFaultCorruptResponse)
	t.Logf("report: %+v, damaged responses: %d", rep, damaged)
	if damaged == 0 {
		t.Fatal("no damaged responses were injected — rates or seed are wrong")
	}
}

// dropCompleteACKs drops the response of the first n successful
// /complete exchanges — the server resolves the claim, the worker never
// hears it. The retried claim (same idempotency key) must be answered from
// the completion cache, and the worker must count the shard exactly once.
type dropCompleteACKs struct {
	remaining atomic.Int32
	dropped   atomic.Int32
}

func (d *dropCompleteACKs) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || !strings.HasSuffix(req.URL.Path, "/complete") {
		return resp, err
	}
	if d.remaining.Add(-1) < 0 {
		return resp, nil
	}
	d.dropped.Add(1)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return nil, fmt.Errorf("faultinject: completion acknowledgement dropped")
}

// TestNetChaosLostCompletionACK: the canonical lost-ACK scenario, forced
// rather than sampled: every shard's first completion acknowledgement dies
// on the wire. Retries must be absorbed by the idempotency cache — each
// shard still completes exactly once, bytes identical.
func TestNetChaosLostCompletionACK(t *testing.T) {
	wantLib, wantMan := singleProcessBaseline(t)
	out := filepath.Join(t.TempDir(), "lib.json")
	srv, ln := startCoordinator(t, coordinatorOptions(t, out), "")
	base := "http://" + ln.Addr().String()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	faults := &dropCompleteACKs{}
	faults.remaining.Store(3) // one lost ACK per shard
	opts := workerOptions(t, base, "w0", 9, nil)
	opts.Client.Transport = faults
	rep, err := RunWorker(ctx, opts)
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	if err := srv.WaitResolved(ctx); err != nil {
		t.Fatalf("campaign did not resolve: %v", err)
	}
	if _, err := srv.MergeAndPublish(); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	requireIdenticalPublish(t, out, wantLib, wantMan)
	if got := faults.dropped.Load(); got != 3 {
		t.Fatalf("dropped %d completion ACKs, want 3", got)
	}
	// Every claim's retry replayed the cached resolution: the worker saw
	// each shard complete exactly once, nothing double-counted.
	if rep.Completed != 3 || rep.Rejected != 0 || rep.Failed != 0 {
		t.Fatalf("worker report after lost ACKs: %+v", rep)
	}
	srvRep := srv.Report()
	if srvRep.Completed != 3 || srvRep.DuplicatesDiscarded != 0 {
		t.Fatalf("coordinator report after lost ACKs: %+v", srvRep)
	}
}

// TestNetChaosPartition: one worker is partitioned from the coordinator for
// a window of exchanges mid-campaign. Its calls retry through the window
// (or its leases expire and re-grant, same as a vanished in-process
// worker); the campaign converges byte-identically.
func TestNetChaosPartition(t *testing.T) {
	wantLib, wantMan := singleProcessBaseline(t)
	seed := chaosSeed(t, 44)
	plan := faultinject.NewNetPlan(seed, [6]float64{}, 5*time.Millisecond)
	// Exchanges 4..15 are dropped. The window opens at ordinal 4 so even the
	// fastest campaign (campaign fetch, lease, claim, next lease) is already
	// inside it, and retries burn through its far edge.
	plan.Partition(4, 12)

	out := filepath.Join(t.TempDir(), "lib.json")
	srv, ln := startCoordinator(t, coordinatorOptions(t, out), "")
	base := "http://" + ln.Addr().String()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		opts := workerOptions(t, base, fmt.Sprintf("w%d", i), seed+int64(i), nil)
		if i == 0 {
			// The partitioned worker gets a retry budget wider than the
			// partition window, so a single call can ride it out.
			opts.Client.Transport = &FaultTransport{Plan: plan, Progress: t.Logf}
			opts.Client.MaxAttempts = 20
		}
		wg.Add(1)
		go func(opts WorkerOptions, i int) {
			defer wg.Done()
			if _, err := RunWorker(ctx, opts); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(opts, i)
	}

	if err := srv.WaitResolved(ctx); err != nil {
		t.Fatalf("campaign did not resolve: %v", err)
	}
	wg.Wait()
	if _, err := srv.MergeAndPublish(); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	requireIdenticalPublish(t, out, wantLib, wantMan)
	if plan.InjectedKind(faultinject.NetFaultDropRequest) == 0 {
		t.Fatal("partition window injected no drops")
	}
}

// TestNetChaosVanishedWorker: a worker leases a shard and vanishes — no
// heartbeat, no failure report, nothing. The sweeper must expire its lease
// exactly as it expires an in-process one, and a live worker finishes the
// campaign byte-identically.
func TestNetChaosVanishedWorker(t *testing.T) {
	wantLib, wantMan := singleProcessBaseline(t)
	out := filepath.Join(t.TempDir(), "lib.json")
	srv, ln := startCoordinator(t, coordinatorOptions(t, out), "")
	base := "http://" + ln.Addr().String()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// The ghost: leases a shard over the real wire and is never heard from
	// again.
	ghost := testClient(t, base, nil)
	gr, err := ghost.Lease(ctx, "ghost", "ghost-l000001")
	if err != nil || gr.Grant == nil {
		t.Fatalf("ghost lease: %+v, %v", gr, err)
	}

	rep, err := RunWorker(ctx, workerOptions(t, base, "w0", 5, nil))
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	if err := srv.WaitResolved(ctx); err != nil {
		t.Fatalf("campaign did not resolve: %v", err)
	}
	if _, err := srv.MergeAndPublish(); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	requireIdenticalPublish(t, out, wantLib, wantMan)

	srvRep := srv.Report()
	if srvRep.Expired == 0 {
		t.Fatalf("ghost's lease never expired: %+v", srvRep)
	}
	if rep.Completed != 3 {
		t.Fatalf("live worker completed %d shards, want all 3: %+v", rep.Completed, rep)
	}
}

// TestNetChaosCoordinatorRestart: the coordinator is killed mid-campaign —
// after the first shard completes, with remote workers live and leased —
// and a successor resumes the same campaign directory on the same address.
// Promoted artefacts are reused, orphaned leases expire, in-flight workers
// ride their retry budgets through the outage, and the final library is
// byte-identical.
func TestNetChaosCoordinatorRestart(t *testing.T) {
	wantLib, wantMan := singleProcessBaseline(t)
	seed := chaosSeed(t, 45)
	out := filepath.Join(t.TempDir(), "lib.json")

	firstDone := make(chan string, 4)
	opts1 := coordinatorOptions(t, out)
	opts1.OnShardComplete = func(id string) {
		select {
		case firstDone <- id:
		default:
		}
	}
	srv1, ln1 := startCoordinator(t, opts1, "")
	addr := ln1.Addr().String()
	base := "http://" + addr

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Light background chaos on both workers; their budgets must also carry
	// them across the restart outage.
	rates := [6]float64{0.03, 0.03, 0.03, 0.03, 0, 0}
	var wg sync.WaitGroup
	wreps := make([]*WorkerReport, 2)
	for i := 0; i < 2; i++ {
		opts := workerOptions(t, base, fmt.Sprintf("w%d", i),
			seed+int64(i), faultinject.NewNetPlan(seed+int64(i), rates, 5*time.Millisecond))
		opts.Client.MaxAttempts = 20
		wg.Add(1)
		go func(opts WorkerOptions, i int) {
			defer wg.Done()
			rep, err := RunWorker(ctx, opts)
			wreps[i] = rep
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(opts, i)
	}

	// Kill the coordinator the moment the first shard lands. The remaining
	// shards are mid-flight: their leases die with the coordinator.
	select {
	case id := <-firstDone:
		t.Logf("first shard %s complete; killing coordinator", id)
	case <-time.After(60 * time.Second):
		t.Fatal("no shard completed before the restart point")
	}
	if err := srv1.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown of first coordinator: %v", err)
	}

	// The successor resumes the same campaign directory on the same address.
	opts2 := coordinatorOptions(t, out)
	opts2.Resume = true
	opts2.Metrics = engine.NewMetrics()
	srv2, _ := startCoordinator(t, opts2, addr)

	if err := srv2.WaitResolved(ctx); err != nil {
		t.Fatalf("resumed campaign did not resolve: %v", err)
	}
	wg.Wait()
	if _, err := srv2.MergeAndPublish(); err != nil {
		t.Fatalf("merge after restart: %v", err)
	}
	if err := srv2.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown of second coordinator: %v", err)
	}

	requireIdenticalPublish(t, out, wantLib, wantMan)
	rep2 := srv2.Report()
	t.Logf("resumed report: %+v, workers: %+v %+v", rep2, wreps[0], wreps[1])
	if rep2.Reused == 0 {
		t.Fatal("successor reused no promoted artefacts — restart landed before any promote?")
	}
	if rep2.Completed != rep2.Shards {
		t.Fatalf("resumed campaign did not complete every shard: %+v", rep2)
	}
	if len(rep2.Quarantined) != 0 {
		t.Fatalf("restart quarantined shards: %+v", rep2.Quarantined)
	}
}

// TestNetChaosRestartAdvancesPastGrants: a worker leases a shard over the
// wire and sends nothing back; the coordinator restarts over the same
// campaign directory. The successor must not grant that attempt generation
// again: the shard's next grant is attempt 2 or later, so the first holder
// hears held=false and its failure report cannot fail the new lease.
func TestNetChaosRestartAdvancesPastGrants(t *testing.T) {
	out := filepath.Join(t.TempDir(), "lib.json")
	ctx := context.Background()
	srv1, ln1 := startCoordinator(t, coordinatorOptions(t, out), "")
	r, err := testClient(t, "http://"+ln1.Addr().String(), nil).Lease(ctx, "w0", "w0-l000001")
	if err != nil || r.Grant == nil {
		t.Fatalf("lease: %+v, %v", r, err)
	}
	first := *r.Grant
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown of first coordinator: %v", err)
	}

	opts := coordinatorOptions(t, out)
	opts.Resume = true
	srv2, ln2 := startCoordinator(t, opts, "")
	defer srv2.Shutdown(ctx)
	c := testClient(t, "http://"+ln2.Addr().String(), nil)
	r, err = c.Lease(ctx, "w1", "w1-l000001")
	if err != nil || r.Grant == nil {
		t.Fatalf("lease after restart: %+v, %v", r, err)
	}
	if r.Grant.ShardID != first.ShardID || r.Grant.Attempt < 2 {
		t.Fatalf("after restart shard %s was granted at attempt %d; %s attempt %d is still out there",
			r.Grant.ShardID, r.Grant.Attempt, first.ShardID, first.Attempt)
	}
	held, err := c.Heartbeat(ctx, first.ShardID, first.Attempt)
	if err != nil || held {
		t.Fatalf("first holder's heartbeat: held=%v err=%v, want held=false", held, err)
	}
	if err := c.Fail(ctx, first.ShardID, first.Attempt, "first holder gave up"); err != nil {
		t.Fatalf("first holder's failure report: %v", err)
	}
	if !srv2.Tracker().LeaseHeld(r.Grant.Index, r.Grant.Attempt) {
		t.Fatal("the first holder's failure report failed the new lease")
	}
}

// TestNetChaosWorkerFaults drives the worker-level faults of the in-process
// shard-chaos suite (faultinject.ShardPlan kill, hang, corrupt) through real
// HTTP workers. Each row must reach the coordinator report counts its
// in-process twin asserts (TestShardChaosKill/Hang/Corrupt) and publish the
// byte-identical library: the fault semantics live in the shared worker loop,
// not in the transport.
func TestNetChaosWorkerFaults(t *testing.T) {
	wantLib, wantMan := singleProcessBaseline(t)
	for _, tc := range []struct {
		name       string
		fault      faultinject.ShardFault
		shardCells int // 1: three shards, every first attempt faulted; 3: one shard
		workers    int
		check      func(*shard.Report) string
	}{
		{"kill", faultinject.ShardFaultKill, 1, 3, func(r *shard.Report) string {
			if r.Expired != 3 || r.Retries != 3 || r.Completed != 3 {
				return "want expired/retries/completed 3/3/3 (killed workers never report)"
			}
			return ""
		}},
		{"hang", faultinject.ShardFaultHang, 3, 2, func(r *shard.Report) string {
			if r.Expired != 1 || r.Completed != 1 || r.DuplicatesDiscarded != 1 || r.Retries != 1 {
				return "want expired/completed/duplicates/retries 1/1/1/1 (hung workers stop heartbeating)"
			}
			return ""
		}},
		{"corrupt", faultinject.ShardFaultCorrupt, 1, 3, func(r *shard.Report) string {
			if r.CorruptArtifacts != 3 || r.Retries != 3 || r.Expired != 0 {
				return "want corrupt/retries/expired 3/3/0 (corruption is caught at the claim)"
			}
			return ""
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seed := chaosSeed(t, 17)
			plan := faultinject.NewShardPlan(seed, 0, 0, 0)
			for i := 0; i < 3/tc.shardCells; i++ {
				plan.Force(i, 1, tc.fault)
			}
			out := filepath.Join(t.TempDir(), "lib.json")
			copts := coordinatorOptions(t, out)
			copts.ShardCells = tc.shardCells
			srv, ln := startCoordinator(t, copts, "")
			base := "http://" + ln.Addr().String()

			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			var wg sync.WaitGroup
			for i := 0; i < tc.workers; i++ {
				opts := workerOptions(t, base, fmt.Sprintf("w%d", i), seed+int64(i), nil)
				opts.Shard.ShardCells = tc.shardCells
				opts.Shard.Fault = plan
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := RunWorker(ctx, opts); err != nil {
						t.Errorf("worker %s: %v", opts.Name, err)
					}
				}()
			}
			if err := srv.WaitResolved(ctx); err != nil {
				t.Fatalf("campaign did not resolve: %v", err)
			}
			wg.Wait()
			if _, err := srv.MergeAndPublish(); err != nil {
				t.Fatalf("merge: %v", err)
			}
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			requireIdenticalPublish(t, out, wantLib, wantMan)
			rep := srv.Report()
			if len(rep.Quarantined) != 0 {
				t.Fatalf("transient faults must not quarantine: %+v", rep)
			}
			if msg := tc.check(rep); msg != "" {
				t.Fatalf("report %+v: %s", rep, msg)
			}
		})
	}
}
