package tgraph

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/nineval"
	"sstiming/internal/prechar"
	"sstiming/internal/twindow"
)

// TestUnknownNetRejected: a cube naming a net outside the circuit is
// refused with ErrUnknownNet and leaves no timing line behind — the graph
// keeps exactly one line per net, so its snapshot still restores.
func TestUnknownNetRejected(t *testing.T) {
	lib := prechar.MustLibrary()
	c, err := benchgen.Load("c432")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Lib: lib}
	bad := nineval.Cube{c.PIs[0]: nineval.V01, "no_such_net": nineval.V01}
	if _, err := NewWithCube(c, bad, opts); !errors.Is(err, ErrUnknownNet) {
		t.Fatalf("NewWithCube: err = %v, want ErrUnknownNet", err)
	}
	g, err := New(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := g.SetCube(ctx, bad); !errors.Is(err, ErrUnknownNet) {
		t.Fatalf("SetCube: err = %v, want ErrUnknownNet", err)
	}
	if g.Poisoned() || len(g.RawCube()) != 0 {
		t.Fatalf("rejected cube changed the graph: poisoned=%v raw=%s", g.Poisoned(), g.RawCube())
	}
	if _, ok := g.Line("no_such_net"); ok {
		t.Fatal("rejected cube left a line for the unknown net")
	}
	requireLinesEqual(t, "after rejected cubes", g, ref)
	snap, err := g.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreSnapshot(snap, opts); err != nil {
		t.Fatalf("snapshot after a rejected cube does not restore: %v", err)
	}
}

// TestSnapshotFromEarlierEncoderRestores: a snapshot written by the
// encoder that kept lines in a name-keyed map (testdata: c432 after a cube,
// a per-PI stimulus and a gate swap) restores and re-encodes to the same
// bytes, and its windows equal a from-scratch build of the same state.
func TestSnapshotFromEarlierEncoderRestores(t *testing.T) {
	data, err := os.ReadFile("testdata/c432_v1.snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	lib := prechar.MustLibrary()
	g, err := RestoreSnapshot(data, Options{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	again, err := g.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("re-encoded snapshot differs from the checked-in one (%d vs %d bytes)", len(again), len(data))
	}
	c := g.Circuit()
	perPI := map[string]twindow.PITiming{c.PIs[1]: {ArrivalEarly: 0.1e-9, ArrivalLate: 0.3e-9, TransShort: 0.1e-9, TransLong: 0.4e-9}}
	ref, err := NewWithCube(c, g.RawCube(), Options{Lib: lib, PerPI: perPI})
	if err != nil {
		t.Fatal(err)
	}
	requireLinesEqual(t, "restored vs from scratch", g, ref)
}

// mallocs returns the fewest heap allocations of ten runs of f, measured
// at the current GOMAXPROCS (testing.AllocsPerRun pins it to 1, which would
// hide a fan-out). The counter is process-wide, so the garbage collector
// is off during the runs and the minimum discards a run that shared its
// window with an allocation elsewhere in the process.
func mallocs(f func()) uint64 {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	best := ^uint64(0)
	for i := 0; i < 10; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	return best
}

// TestBuildAllocs gates the full convergence's allocations: no map entry,
// heap object or fan-out per gate, and the deprecated Jobs field changes
// nothing: builds at Jobs 0, 1 and 4 allocate alike, even with four CPUs.
func TestBuildAllocs(t *testing.T) {
	lib := prechar.MustLibrary()
	c, err := benchgen.Load("c7552")
	if err != nil {
		t.Fatal(err)
	}
	build := func(jobs int) func() {
		return func() {
			if _, err := New(c, Options{Lib: lib, Jobs: jobs}); err != nil {
				t.Fatal(err)
			}
		}
	}
	perGate := testing.AllocsPerRun(3, build(1)) / float64(c.NumGates())
	t.Logf("tgraph.New on %s at Jobs=1: %.3f allocations per gate", c.Name, perGate)
	if perGate > 2 {
		t.Errorf("tgraph.New at Jobs=1 made %.2f allocations per gate, want <= 2", perGate)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	one := mallocs(build(1))
	for _, jobs := range []int{0, 4} {
		if n := mallocs(build(jobs)); n != one {
			t.Errorf("tgraph.New made %d allocations at Jobs=%d and %d at Jobs=1: Jobs must be ignored", n, jobs, one)
		}
	}
}

// TestSetCubeTighteningAllocs: on a warm graph, a SetCube that only adds
// literals implies them on top of the current fixpoint, re-converges their
// cone and allocates nothing.
func TestSetCubeTighteningAllocs(t *testing.T) {
	lib := prechar.MustLibrary()
	c, err := benchgen.Load("c7552")
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(c, Options{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	// cubes[k] assigns the first k+1 primary inputs, so each SetCube in
	// the sequence tightens the one before it.
	const steps = 12
	cubes := make([]nineval.Cube, 2*steps)
	for k := range cubes {
		cubes[k] = nineval.Cube{}
		for i := 0; i <= k; i++ {
			cubes[k][c.PIs[i]] = values[i%len(values)]
		}
	}
	ctx := context.Background()
	next := 0
	tighten := func() {
		if err := g.SetCube(ctx, cubes[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	// Warm up: run the sequence twice, relaxing to the empty cube after
	// each pass, so both raw-cube maps and every reused buffer have held
	// the largest cube and cone.
	for pass := 0; pass < 2; pass++ {
		for next = 0; next < len(cubes); {
			tighten()
		}
		if err := g.SetCube(ctx, nineval.Cube{}); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	next = 0
	for i := 0; i < steps; i++ {
		if n := testing.AllocsPerRun(1, tighten); n != 0 {
			t.Fatalf("tightening SetCube %d made %v allocations, want 0", next-1, n)
		}
	}
	ref, err := NewWithCube(c, cubes[len(cubes)-1], Options{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	requireLinesEqual(t, "after the tightening sequence", g, ref)
}

// TestRequiredAllocs gates the backward pass on c7552: the required
// windows and the violation check allocate a constant plus at most one
// per violation (the violations slice), nothing per gate or arc.
func TestRequiredAllocs(t *testing.T) {
	c, err := benchgen.Load("c7552")
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(c, Options{Lib: prechar.MustLibrary(), Mode: twindow.ModeProposed})
	if err != nil {
		t.Fatal(err)
	}
	snap := g.Snapshot()
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, po := range c.POs {
		id, _ := c.NetID(po)
		li := &snap.Lines[id]
		for _, w := range []struct {
			ok bool
			w  twindow.Window
		}{{li.HasRise(), li.Rise}, {li.HasFall(), li.Fall}} {
			if w.ok {
				lo, hi = min(lo, w.w.AS), max(hi, w.w.AL)
			}
		}
	}
	cons := twindow.Constraint{MinTime: 1.05 * lo, MaxTime: 0.95 * hi}
	viols := 0
	n := testing.AllocsPerRun(5, func() {
		viols = len(snap.Violations(snap.Required(cons)))
	})
	t.Logf("Required + Violations on %s: %v allocations, %d violations", c.Name, n, viols)
	if viols == 0 {
		t.Fatal("the constraint is violated nowhere; the gate would not price the violations slice")
	}
	if bound := 8 + viols; n > float64(bound) {
		t.Errorf("Required + Violations made %v allocations, want <= %d (8 + one per violation)", n, bound)
	}
}
