// Command bench records the reproduction's performance trajectory
// (ROADMAP item 5b) into a machine-readable JSON report:
//
//   - full-STA throughput (gates/sec) over the benchgen ISCAS85 stand-ins,
//   - incremental re-converge latency per single-gate edit on the largest
//     circuit, bucketed by dirty-cone size, with the speed-up against a
//     full from-scratch rebuild,
//   - ITR-in-ATPG campaign wall-clock, persistent-graph deltas vs. the
//     pre-refactor from-scratch refinement per decision step,
//   - timingd sustained throughput: QPS and p50/p99 latency under concurrent
//     HTTP load for cold vs hot content-addressed cache (see
//     internal/reqcache),
//   - characterisation wall-clock and solver points/sec, single-process vs
//     the in-process sharded coordinator/worker campaign (internal/shard) vs
//     the networked campaign over loopback HTTP (internal/shardnet — remote
//     workers, chunked verified uploads), with bytes transferred and client
//     retries recorded, re-proving on every report that both campaign
//     publishes are byte-identical to the single-process one,
//   - durable delta-STA sessions: per-delta ack latency with and without the
//     write-ahead journal, and restart replay wall-clock vs edit-script
//     length with the snapshot compactor off (full-log replay) and on
//     (checkpoint restore + tail), re-proving recovered sessions answer
//     /windows byte-identically (see internal/sessionlog).
//
// Every report carries machine and commit metadata so successive BENCH_N.json
// files are comparable across the project's history. The emitted report is
// schema-validated before it is written — a full run additionally requires
// the hot cache to sustain at least 5x the cold throughput; -smoke runs a
// seconds-scale variant on tiny circuits and discards the file, existing so
// `make bench-smoke` can keep the harness honest in CI without paying for
// the full run.
//
// Usage:
//
//	bench [-out BENCH_6.json] [-jobs N] [-reps N] [-edits N] [-faults N] [-smoke]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"sstiming/internal/atpg"
	"sstiming/internal/benchgen"
	"sstiming/internal/core"
	"sstiming/internal/engine"
	"sstiming/internal/netlist"
	"sstiming/internal/prechar"
	"sstiming/internal/sta"
	"sstiming/internal/tgraph"
	"sstiming/internal/twindow"
)

// Schema is the report format identifier; bump on incompatible changes.
// v2 adds the `service` section (daemon sustained QPS / tail latency).
// v3 adds the `characterization` section (campaign wall-clock and solver
// points/sec, single-process vs sharded coordinator/worker, byte-identity
// re-proved per report).
// v4 adds the networked-campaign fields to `characterization`: wall-clock
// through the loopback HTTP coordinator/worker path (internal/shardnet),
// artefact bytes uploaded, client requests and retries observed, and the
// networked publish's byte-identity re-proved alongside the in-process one.
// v5 adds the `session` section (durable delta-STA sessions: journaled
// per-delta ack overhead, restart replay wall-clock vs edit-script length
// with/without snapshot compaction, byte-identity of recovered windows).
// v6 drops the unbatched/batched `service` scenarios and the
// `batched_over_unbatched` ratio with the micro-batcher they measured.
const Schema = "sstiming-bench/6"

// Report is the top-level BENCH_N.json document.
type Report struct {
	Schema      string           `json:"schema"`
	GeneratedAt string           `json:"generated_at"`
	Commit      string           `json:"commit"`
	Machine     Machine          `json:"machine"`
	FullSTA     []FullSTA        `json:"full_sta"`
	Incremental Incremental      `json:"incremental"`
	ATPGITR     ATPGITR          `json:"atpg_itr"`
	Service     ServiceBench     `json:"service"`
	Charlib     Characterization `json:"characterization"`
	Session     SessionBench     `json:"session"`
}

// Machine records where the numbers were taken.
type Machine struct {
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUs      int    `json:"cpus"`
	GoVersion string `json:"go_version"`
	Hostname  string `json:"hostname"`
	Jobs      int    `json:"jobs"`
}

// FullSTA is one circuit's from-scratch analysis throughput.
type FullSTA struct {
	Circuit     string  `json:"circuit"`
	Gates       int     `json:"gates"`
	Reps        int     `json:"reps"`
	MeanMs      float64 `json:"mean_ms"`
	GatesPerSec float64 `json:"gates_per_sec"`
}

// ConeBucket aggregates edit latencies whose dirty-cone size (changed
// lines) falls in (prev bucket, MaxCone].
type ConeBucket struct {
	MaxCone int     `json:"max_cone"`
	Count   int     `json:"count"`
	MeanUs  float64 `json:"mean_us"`
}

// EditStats summarises a class of incremental edits. SpeedupVsFull is the
// geometric mean of the per-edit speedup ratios (full rebuild time / edit
// time) — the standard aggregate for normalized ratios, since the
// arithmetic mean of edit *times* is dominated by the rare near-full-cone
// edits the cone buckets break out explicitly. SpeedupMeanEdit is the
// arithmetic counterpart (mean rebuild time / mean edit time) for
// comparison.
type EditStats struct {
	Count           int     `json:"count"`
	MeanUs          float64 `json:"mean_us"`
	P50Us           float64 `json:"p50_us"`
	P95Us           float64 `json:"p95_us"`
	SpeedupVsFull   float64 `json:"speedup_vs_full"`
	SpeedupMeanEdit float64 `json:"speedup_mean_edit"`
}

// Incremental is the delta-STA latency section, taken on one circuit.
type Incremental struct {
	Circuit       string       `json:"circuit"`
	Gates         int          `json:"gates"`
	FullRebuildMs float64      `json:"full_rebuild_ms"`
	SingleGate    EditStats    `json:"single_gate_edits"`
	PIRetime      EditStats    `json:"pi_retime_edits"`
	ConeBuckets   []ConeBucket `json:"cone_buckets"`
}

// ATPGITR compares the ATPG campaign under from-scratch refinement per
// decision step against the persistent-graph incremental path.
type ATPGITR struct {
	Circuit          string  `json:"circuit"`
	Faults           int     `json:"faults"`
	FullRecomputeMs  float64 `json:"full_recompute_ms"`
	IncrementalMs    float64 `json:"incremental_ms"`
	Speedup          float64 `json:"speedup"`
	Detected         int     `json:"detected"`
	Untestable       int     `json:"untestable"`
	Aborted          int     `json:"aborted"`
	BacktracksTotal  int     `json:"backtracks_total"`
	ResultsIdentical bool    `json:"results_identical"`
}

func main() {
	out := flag.String("out", "BENCH_6.json", "output report path")
	jobs := flag.Int("jobs", 0, "engine worker pool width (0 = all CPUs)")
	reps := flag.Int("reps", 5, "full-STA repetitions per circuit")
	edits := flag.Int("edits", 200, "incremental edits measured on the target circuit")
	faults := flag.Int("faults", 12, "crosstalk faults in the ATPG comparison")
	smoke := flag.Bool("smoke", false, "seconds-scale run on tiny circuits; validate schema and discard")
	flag.Parse()
	// The analysis layers run Jobs <= 1 serially; "all CPUs" is resolved here.
	*jobs = engine.Workers(*jobs)

	lib := prechar.MustLibrary()

	staNames := []string{"c432", "c880", "c1908", "c3540", "c7552"}
	deltaName, atpgName := "c7552", "c432"
	if *smoke {
		staNames = []string{"c17"}
		deltaName, atpgName = "c17", "c17"
		*reps, *edits, *faults = 1, 8, 2
	}

	rep := Report{
		Schema:      Schema,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Commit:      gitCommit(),
		Machine: Machine{
			OS:        runtime.GOOS,
			Arch:      runtime.GOARCH,
			CPUs:      runtime.NumCPU(),
			GoVersion: runtime.Version(),
			Hostname:  hostname(),
			Jobs:      *jobs,
		},
	}

	for _, name := range staNames {
		c := mustCircuit(name)
		fs, err := benchFullSTA(c, lib, *jobs, *reps)
		if err != nil {
			fatal("full STA on %s: %v", name, err)
		}
		rep.FullSTA = append(rep.FullSTA, fs)
		fmt.Fprintf(os.Stderr, "full-sta  %-6s %5d gates  %8.2f ms  %10.0f gates/s\n",
			fs.Circuit, fs.Gates, fs.MeanMs, fs.GatesPerSec)
	}

	inc, err := benchIncremental(mustCircuit(deltaName), lib, *jobs, *edits)
	if err != nil {
		fatal("incremental on %s: %v", deltaName, err)
	}
	rep.Incremental = inc
	fmt.Fprintf(os.Stderr, "delta     %-6s swap %6.1f us/edit (p95 %6.1f)  rebuild %8.2f ms  speedup %.0fx\n",
		inc.Circuit, inc.SingleGate.MeanUs, inc.SingleGate.P95Us,
		inc.FullRebuildMs, inc.SingleGate.SpeedupVsFull)

	ai, err := benchATPG(mustCircuit(atpgName), lib, *jobs, *faults)
	if err != nil {
		fatal("atpg on %s: %v", atpgName, err)
	}
	rep.ATPGITR = ai
	fmt.Fprintf(os.Stderr, "atpg-itr  %-6s %d faults  full %8.2f ms  incremental %8.2f ms  speedup %.1fx\n",
		ai.Circuit, ai.Faults, ai.FullRecomputeMs, ai.IncrementalMs, ai.Speedup)

	sb, err := benchService(lib, *jobs, *smoke)
	if err != nil {
		fatal("service bench: %v", err)
	}
	rep.Service = sb
	fmt.Fprintf(os.Stderr, "service   cold %8.0f qps  hot %8.0f qps (%.1fx)\n",
		sb.Scenarios[0].QPS, sb.Scenarios[1].QPS, sb.HotOverCold)

	ch, err := benchCharacterization(*jobs, *smoke)
	if err != nil {
		fatal("characterisation bench: %v", err)
	}
	rep.Charlib = ch
	fmt.Fprintf(os.Stderr, "charlib   %d cells  single %8.0f ms (%5.0f pts/s)  sharded %8.0f ms (%5.0f pts/s, %d shards/%d workers)  identical=%v\n",
		ch.Cells, ch.SingleProcessMs, ch.PointsPerSec,
		ch.ShardedMs, ch.ShardedPointsPerSec, ch.Shards, ch.Workers, ch.BytesIdentical)
	fmt.Fprintf(os.Stderr, "charnet   %d workers  networked %8.0f ms (%5.0f pts/s)  %d bytes up  %d reqs  %d retries  identical=%v\n",
		ch.NetWorkers, ch.NetworkedMs, ch.NetworkedPointsPerSec,
		ch.NetBytesUploaded, ch.NetRequests, ch.NetRetries, ch.NetBytesIdentical)

	se, err := benchSession(lib, *jobs, *smoke)
	if err != nil {
		fatal("session bench: %v", err)
	}
	rep.Session = se
	for _, pt := range se.Recovery {
		fmt.Fprintf(os.Stderr, "session   %-6s %4d deltas  full replay %8.2f ms  snapshot %8.2f ms (%d snaps, %.1fx)  identical=%v\n",
			se.Circuit, pt.Deltas, pt.FullReplayMs, pt.SnapshotReplayMs, pt.Snapshots, pt.Speedup, pt.WindowsIdentical)
	}
	fmt.Fprintf(os.Stderr, "session   delta ack  in-memory %7.1f us  durable %7.1f us  overhead %+7.1f us\n",
		se.InMemoryDeltaUs, se.DurableDeltaUs, se.DurableOverheadUs)

	if err := validate(&rep, !*smoke); err != nil {
		fatal("report failed schema validation: %v", err)
	}
	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal("marshal: %v", err)
	}
	buf = append(buf, '\n')

	if *smoke {
		// Round-trip through a real file so the write path is exercised,
		// then discard: smoke validates the harness, not the numbers.
		path := filepath.Join(os.TempDir(), fmt.Sprintf("sstiming-bench-smoke-%d.json", os.Getpid()))
		if err := writeAndReparse(path, buf, false); err != nil {
			fatal("%v", err)
		}
		os.Remove(path)
		fmt.Fprintln(os.Stderr, "bench smoke OK: schema valid")
		return
	}
	if err := writeAndReparse(*out, buf, true); err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}

func fatal(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...)
	os.Exit(1)
}

func hostname() string {
	h, err := os.Hostname()
	if err != nil {
		return "unknown"
	}
	return h
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func mustCircuit(name string) *netlist.Circuit {
	c, err := benchgen.Load(name)
	if err != nil {
		fatal("load %s: %v", name, err)
	}
	return c
}

// benchFullSTA times repeated from-scratch analyses.
func benchFullSTA(c *netlist.Circuit, lib *core.Library, jobs, reps int) (FullSTA, error) {
	var total time.Duration
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := sta.Analyze(c, sta.Options{Lib: lib, Mode: sta.ModeProposed, Jobs: jobs}); err != nil {
			return FullSTA{}, err
		}
		total += time.Since(start)
	}
	mean := total / time.Duration(reps)
	return FullSTA{
		Circuit:     c.Name,
		Gates:       c.NumGates(),
		Reps:        reps,
		MeanMs:      float64(mean) / float64(time.Millisecond),
		GatesPerSec: float64(c.NumGates()) / mean.Seconds(),
	}, nil
}

// swappableGates lists gate indices whose same-arity dual cell is
// characterised (Inv/Buf share INV; NANDn needs a NORn and vice versa).
func swappableGates(c *netlist.Circuit, lib *core.Library) []int {
	var out []int
	for gi := range c.Gates {
		g := &c.Gates[gi]
		switch g.Kind {
		case netlist.Inv, netlist.Buf:
			out = append(out, gi)
		default:
			n := len(g.Inputs)
			_, nand := lib.Cells[fmt.Sprintf("NAND%d", n)]
			_, nor := lib.Cells[fmt.Sprintf("NOR%d", n)]
			if nand && nor {
				out = append(out, gi)
			}
		}
	}
	return out
}

func dual(k netlist.GateKind) netlist.GateKind {
	switch k {
	case netlist.Inv:
		return netlist.Buf
	case netlist.Buf:
		return netlist.Inv
	case netlist.Nand:
		return netlist.Nor
	default:
		return netlist.Nand
	}
}

type editSample struct {
	d    time.Duration
	cone int
}

func stats(samples []editSample, fullRebuild time.Duration) EditStats {
	if len(samples) == 0 {
		return EditStats{}
	}
	ds := make([]time.Duration, len(samples))
	var total time.Duration
	for i, s := range samples {
		ds[i] = s.d
		total += s.d
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	mean := total / time.Duration(len(samples))
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(ds)-1))
		return ds[i]
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	es := EditStats{
		Count:  len(samples),
		MeanUs: us(mean),
		P50Us:  us(pct(0.50)),
		P95Us:  us(pct(0.95)),
	}
	if mean > 0 {
		es.SpeedupMeanEdit = float64(fullRebuild) / float64(mean)
	}
	var logSum float64
	n := 0
	for _, s := range samples {
		if s.d > 0 {
			logSum += math.Log(float64(fullRebuild) / float64(s.d))
			n++
		}
	}
	if n > 0 {
		es.SpeedupVsFull = math.Exp(logSum / float64(n))
	}
	return es
}

// benchIncremental measures per-edit re-converge latency on one persistent
// graph: single-gate swaps (each immediately swapped back so the circuit
// returns to its pristine shape) and PI stimulus retimes, against the cost
// of a full from-scratch rebuild.
func benchIncremental(c *netlist.Circuit, lib *core.Library, jobs, edits int) (Incremental, error) {
	opts := tgraph.Options{Lib: lib, Mode: sta.ModeProposed, Jobs: jobs}

	// Full-rebuild reference: mean over 3 fresh builds.
	var rebuild time.Duration
	const rebuildReps = 3
	for i := 0; i < rebuildReps; i++ {
		start := time.Now()
		if _, err := tgraph.New(c, opts); err != nil {
			return Incremental{}, err
		}
		rebuild += time.Since(start)
	}
	rebuild /= rebuildReps

	g, err := tgraph.New(c, opts)
	if err != nil {
		return Incremental{}, err
	}
	swappable := swappableGates(c, lib)
	if len(swappable) == 0 {
		return Incremental{}, fmt.Errorf("no swappable gates in %s", c.Name)
	}

	rng := rand.New(rand.NewSource(1))
	var swaps, retimes []editSample
	for len(swaps) < edits {
		gi := swappable[rng.Intn(len(swappable))]
		gate := &c.Gates[gi]
		for _, kind := range []netlist.GateKind{dual(gate.Kind), gate.Kind} {
			start := time.Now()
			if err := g.SwapGate(nil, gate.Output, kind); err != nil {
				return Incremental{}, err
			}
			swaps = append(swaps, editSample{d: time.Since(start), cone: g.NumChanged()})
		}
	}
	for len(retimes) < edits {
		pi := c.PIs[rng.Intn(len(c.PIs))]
		early := rng.Float64() * 0.2e-9
		p := twindow.PITiming{
			ArrivalEarly: early,
			ArrivalLate:  early + rng.Float64()*0.2e-9,
			TransShort:   0.1e-9 + rng.Float64()*0.1e-9,
			TransLong:    0.2e-9 + rng.Float64()*0.1e-9,
		}
		start := time.Now()
		if err := g.SetPI(nil, pi, p); err != nil {
			return Incremental{}, err
		}
		retimes = append(retimes, editSample{d: time.Since(start), cone: g.NumChanged()})
	}

	bounds := []int{10, 100, 1000, 1 << 30}
	buckets := make([]ConeBucket, len(bounds))
	sums := make([]time.Duration, len(bounds))
	for _, s := range append(append([]editSample{}, swaps...), retimes...) {
		for bi, max := range bounds {
			if s.cone <= max {
				buckets[bi].Count++
				sums[bi] += s.d
				break
			}
		}
	}
	var kept []ConeBucket
	for bi := range buckets {
		if buckets[bi].Count == 0 {
			continue
		}
		buckets[bi].MaxCone = bounds[bi]
		buckets[bi].MeanUs = float64(sums[bi]/time.Duration(buckets[bi].Count)) / float64(time.Microsecond)
		kept = append(kept, buckets[bi])
	}

	return Incremental{
		Circuit:       c.Name,
		Gates:         c.NumGates(),
		FullRebuildMs: float64(rebuild) / float64(time.Millisecond),
		SingleGate:    stats(swaps, rebuild),
		PIRetime:      stats(retimes, rebuild),
		ConeBuckets:   kept,
	}, nil
}

// benchATPG times the same fault campaign twice: once forcing from-scratch
// refinement per decision step (the pre-refactor reference) and once on the
// persistent incremental graph. Both searches are byte-identical by
// construction, so outcome counts must match.
func benchATPG(c *netlist.Circuit, lib *core.Library, jobs, n int) (ATPGITR, error) {
	faults := atpg.RandomFaults(c, n, 7, 1e-9)
	run := func(fullRecompute bool) (atpg.CampaignStats, time.Duration, error) {
		start := time.Now()
		s, err := atpg.RunCampaign(c, faults, atpg.Options{
			Lib:              lib,
			UseITR:           true,
			ITRFullRecompute: fullRecompute,
			Jobs:             jobs,
		})
		return s, time.Since(start), err
	}
	sFull, dFull, err := run(true)
	if err != nil {
		return ATPGITR{}, err
	}
	sInc, dInc, err := run(false)
	if err != nil {
		return ATPGITR{}, err
	}
	ai := ATPGITR{
		Circuit:          c.Name,
		Faults:           len(faults),
		FullRecomputeMs:  float64(dFull) / float64(time.Millisecond),
		IncrementalMs:    float64(dInc) / float64(time.Millisecond),
		Detected:         sInc.Detected,
		Untestable:       sInc.Untestable,
		Aborted:          sInc.Aborted,
		BacktracksTotal:  sInc.TotalBacktracks,
		ResultsIdentical: sFull == sInc,
	}
	if dInc > 0 {
		ai.Speedup = float64(dFull) / float64(dInc)
	}
	return ai, nil
}

// validate enforces the report invariants `make bench-smoke` guards: a
// report that fails here is never written. A full (non-smoke) report must
// additionally show the hot content-addressed cache sustaining at least 5x
// the cold throughput — the cache's reason to exist; smoke skips that gate
// because a 6-gate circuit's engine run is too cheap for caching to beat
// HTTP overhead by a fixed margin.
func validate(r *Report, full bool) error {
	switch {
	case r.Schema != Schema:
		return fmt.Errorf("schema %q, want %q", r.Schema, Schema)
	case r.GeneratedAt == "" || r.Commit == "":
		return fmt.Errorf("missing generated_at/commit metadata")
	case r.Machine.CPUs <= 0 || r.Machine.OS == "" || r.Machine.GoVersion == "":
		return fmt.Errorf("incomplete machine metadata %+v", r.Machine)
	case len(r.FullSTA) == 0:
		return fmt.Errorf("no full_sta entries")
	}
	for _, fs := range r.FullSTA {
		if fs.Gates <= 0 || fs.GatesPerSec <= 0 || fs.MeanMs <= 0 {
			return fmt.Errorf("degenerate full_sta entry %+v", fs)
		}
	}
	inc := &r.Incremental
	if inc.Circuit == "" || inc.FullRebuildMs <= 0 {
		return fmt.Errorf("degenerate incremental section %+v", inc)
	}
	if inc.SingleGate.Count == 0 || inc.SingleGate.SpeedupVsFull <= 0 {
		return fmt.Errorf("no single-gate edit samples: %+v", inc.SingleGate)
	}
	total := 0
	for _, b := range inc.ConeBuckets {
		if b.Count <= 0 || b.MeanUs < 0 {
			return fmt.Errorf("degenerate cone bucket %+v", b)
		}
		total += b.Count
	}
	if want := inc.SingleGate.Count + inc.PIRetime.Count; total != want {
		return fmt.Errorf("cone buckets cover %d edits, want %d", total, want)
	}
	ai := &r.ATPGITR
	if ai.Faults <= 0 || ai.FullRecomputeMs <= 0 || ai.IncrementalMs <= 0 {
		return fmt.Errorf("degenerate atpg_itr section %+v", ai)
	}
	if !ai.ResultsIdentical {
		return fmt.Errorf("incremental ATPG outcomes diverged from full recompute")
	}
	sb := &r.Service
	if len(sb.Scenarios) != 2 {
		return fmt.Errorf("service section has %d scenarios, want 2", len(sb.Scenarios))
	}
	for _, sc := range sb.Scenarios {
		if sc.Name == "" || sc.Requests <= 0 || sc.Clients <= 0 ||
			sc.QPS <= 0 || sc.P50Ms <= 0 || sc.P99Ms < sc.P50Ms {
			return fmt.Errorf("degenerate service scenario %+v", sc)
		}
	}
	if sb.HotOverCold <= 0 {
		return fmt.Errorf("degenerate service ratios %+v", sb)
	}
	if full && sb.HotOverCold < 5 {
		return fmt.Errorf("hot cache sustains only %.2fx cold throughput, want >= 5x", sb.HotOverCold)
	}
	ch := &r.Charlib
	if ch.Cells <= 0 || ch.GridPoints <= 0 || ch.SolverPoints <= 0 ||
		ch.SingleProcessMs <= 0 || ch.PointsPerSec <= 0 ||
		ch.Shards <= 0 || ch.Workers <= 0 ||
		ch.ShardedMs <= 0 || ch.ShardedPointsPerSec <= 0 {
		return fmt.Errorf("degenerate characterization section %+v", ch)
	}
	if !ch.BytesIdentical {
		return fmt.Errorf("sharded characterisation publish diverged from single-process bytes")
	}
	if ch.NetWorkers <= 0 || ch.NetworkedMs <= 0 || ch.NetworkedPointsPerSec <= 0 ||
		ch.NetBytesUploaded <= 0 || ch.NetRequests <= 0 || ch.NetRetries < 0 {
		return fmt.Errorf("degenerate networked-campaign fields %+v", ch)
	}
	if !ch.NetBytesIdentical {
		return fmt.Errorf("networked characterisation publish diverged from single-process bytes")
	}
	se := &r.Session
	if se.Circuit == "" || se.LatencyDeltas <= 0 ||
		se.InMemoryDeltaUs <= 0 || se.DurableDeltaUs <= 0 || len(se.Recovery) == 0 {
		return fmt.Errorf("degenerate session section %+v", se)
	}
	for _, pt := range se.Recovery {
		if pt.Deltas <= 0 || pt.FullReplayMs <= 0 || pt.SnapshotReplayMs <= 0 {
			return fmt.Errorf("degenerate session recovery point %+v", pt)
		}
		if !pt.WindowsIdentical {
			return fmt.Errorf("recovered session windows diverged at %d deltas", pt.Deltas)
		}
	}
	if full {
		// The longest point is the acceptance scenario: >= 500 deltas, with
		// the snapshot compactor recovering at least 5x faster than
		// replaying the whole log.
		last := se.Recovery[len(se.Recovery)-1]
		if last.Deltas < 500 {
			return fmt.Errorf("longest session recovery point is %d deltas, want >= 500", last.Deltas)
		}
		if last.Snapshots <= 0 {
			return fmt.Errorf("snapshot recovery at %d deltas took no snapshots", last.Deltas)
		}
		if last.Speedup < 5 {
			return fmt.Errorf("snapshot recovery is only %.2fx faster than full-log replay at %d deltas, want >= 5x",
				last.Speedup, last.Deltas)
		}
	}
	return nil
}

// writeAndReparse writes the report and re-reads it through the validator,
// so a corrupt file can never be left behind as a trajectory point.
func writeAndReparse(path string, buf []byte, full bool) error {
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reread %s: %w", path, err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		return fmt.Errorf("reparse %s: %w", path, err)
	}
	if err := validate(&back, full); err != nil {
		return fmt.Errorf("reparse %s: %w", path, err)
	}
	return nil
}
