package shardnet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sstiming/internal/cells"
	"sstiming/internal/charlib"
	"sstiming/internal/device"
	"sstiming/internal/engine"
	"sstiming/internal/faultinject"
	"sstiming/internal/shard"
	"sstiming/internal/store"
)

// campaignCharlib returns the reduced characterisation options every
// networked-campaign test runs: three cells on a 3-point grid, cheap enough
// for real end-to-end campaigns over real sockets.
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
// publishes it, returning the library and manifest bytes; computed once.
var baseline struct {
	once     sync.Once
	lib, man []byte
	err      error
}

func singleProcessBaseline(t *testing.T) ([]byte, []byte) {
	t.Helper()
	baseline.once.Do(func() {
		dir, err := os.MkdirTemp("", "shardnet-baseline-")
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

// requireIdenticalPublish compares a published artefact pair against the
// single-process baseline byte for byte.
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

// coordinatorOptions builds the coordinator's campaign options over out.
func coordinatorOptions(t *testing.T, out string) shard.Options {
	t.Helper()
	return shard.Options{
		Charlib:     campaignCharlib(),
		Out:         out,
		ShardCells:  1,
		LeaseTTL:    800 * time.Millisecond,
		MaxAttempts: 8,
		Backoff:     10 * time.Millisecond,
		Metrics:     engine.NewMetrics(),
		Progress:    t.Logf,
	}
}

// startCoordinator builds and starts a coordinator server on a fresh
// loopback listener (or addr when non-empty, for restarts on the same
// address).
func startCoordinator(t *testing.T, opts shard.Options, addr string) (*Server, net.Listener) {
	t.Helper()
	srv, err := NewServer(ServerOptions{Shard: opts})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	srv.Start(ln)
	return srv, ln
}

// workerOptions builds one remote worker's options: its own local work
// directory, a generous retry budget (chaos runs must out-retry their
// faults), and an optional fault-injecting transport.
func workerOptions(t *testing.T, base, name string, seed int64, plan *faultinject.NetPlan) WorkerOptions {
	t.Helper()
	wdir := filepath.Join(t.TempDir(), name)
	opts := WorkerOptions{
		Client: ClientOptions{
			Base:        base,
			MaxAttempts: 12,
			BaseBackoff: 10 * time.Millisecond,
			MaxBackoff:  250 * time.Millisecond,
			Seed:        seed,
			Progress:    t.Logf,
		},
		Shard: shard.Options{
			Charlib:    campaignCharlib(),
			Out:        filepath.Join(wdir, "unused.json"),
			Dir:        filepath.Join(wdir, "work.campaign"),
			ShardCells: 1,
			Progress:   t.Logf,
		},
		Name:     name,
		Progress: t.Logf,
	}
	if plan != nil {
		opts.Client.Transport = &FaultTransport{Plan: plan, Progress: t.Logf}
	}
	return opts
}

// runNetCampaign is the end-to-end harness: a coordinator over out, n
// remote workers (worker i faulted by plans[i] when provided), then wait,
// merge, publish. Returns the coordinator report and the worker reports.
func runNetCampaign(t *testing.T, out string, n int, plans []*faultinject.NetPlan, seed int64) (*shard.Report, []*WorkerReport) {
	t.Helper()
	srv, ln := startCoordinator(t, coordinatorOptions(t, out), "")
	base := "http://" + ln.Addr().String()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	reports := make([]*WorkerReport, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		var plan *faultinject.NetPlan
		if i < len(plans) {
			plan = plans[i]
		}
		wg.Add(1)
		go func(i int, plan *faultinject.NetPlan) {
			defer wg.Done()
			rep, err := RunWorker(ctx, workerOptions(t, base, fmt.Sprintf("w%d", i), seed+int64(i), plan))
			reports[i] = rep
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i, plan)
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
	return srv.Report(), reports
}

// chaosSeed resolves the suite seed (CHAOS_SEED env override) and arranges
// for it to be printed if the test fails.
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

// TestNetCampaignClean: a coordinator and two remote workers over real
// loopback sockets, no faults — the published library must be
// byte-identical to the single-process run, with every shard completed
// exactly once.
func TestNetCampaignClean(t *testing.T) {
	wantLib, wantMan := singleProcessBaseline(t)
	out := filepath.Join(t.TempDir(), "lib.json")
	rep, wreps := runNetCampaign(t, out, 2, nil, 1)
	requireIdenticalPublish(t, out, wantLib, wantMan)
	if rep.Completed != rep.Shards || len(rep.Quarantined) != 0 {
		t.Fatalf("report: %+v", rep)
	}
	total := 0
	for _, wr := range wreps {
		total += wr.Completed
	}
	if total != rep.Shards {
		t.Fatalf("workers completed %d shards, campaign has %d", total, rep.Shards)
	}
}

// dropHeartbeats fails every heartbeat exchange on the wire.
type dropHeartbeats struct{}

func (dropHeartbeats) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/heartbeat") {
		return nil, errors.New("heartbeat dropped")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestWorkerExitOnLeaseLost: a worker whose heartbeats never arrive loses
// its lease, still finishes and claims the attempt (the open shard accepts
// it), and only then stops with ErrLeaseLost instead of leasing again.
func TestWorkerExitOnLeaseLost(t *testing.T) {
	wantLib, wantMan := singleProcessBaseline(t)
	out := filepath.Join(t.TempDir(), "lib.json")
	copts := coordinatorOptions(t, out)
	copts.ShardCells = 3 // one shard, long enough to outlast a heartbeat period
	srv, ln := startCoordinator(t, copts, "")

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	opts := workerOptions(t, "http://"+ln.Addr().String(), "w0", 1, nil)
	opts.Shard.ShardCells = 3
	opts.Client.Transport = dropHeartbeats{}
	opts.Client.MaxAttempts = 2
	opts.ExitOnLeaseLost = true
	rep, err := RunWorker(ctx, opts)
	if !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("worker error = %v, want ErrLeaseLost", err)
	}
	if rep.LeaseLost != 1 || rep.Completed != 1 {
		t.Fatalf("worker report %+v: want the lost lease's attempt claimed and accepted", rep)
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
}
