package tgraph

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/engine"
	"sstiming/internal/faultinject"
	"sstiming/internal/netlist"
	"sstiming/internal/nineval"
	"sstiming/internal/prechar"
	"sstiming/internal/spice"
	"sstiming/internal/twindow"
)

// chaosSeed resolves the suite seed — overridable via the CHAOS_SEED env
// var — and prints it when the test fails, so any chaotic run is
// reproducible with CHAOS_SEED=<printed seed>.
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

// values are the nine two-frame values, for random cube generation.
var values = []nineval.Value{
	nineval.V00, nineval.V01, nineval.V0X,
	nineval.V10, nineval.V11, nineval.V1X,
	nineval.VX0, nineval.VX1, nineval.VXX,
}

// randomPICube assigns random values to a random subset of primary inputs.
// PI-only assignments imply forward without conflict, so the cube is always
// consistent.
func randomPICube(c *netlist.Circuit, rng *rand.Rand) nineval.Cube {
	cube := nineval.Cube{}
	for _, pi := range c.PIs {
		if rng.Intn(3) == 0 {
			cube[pi] = values[rng.Intn(len(values))]
		}
	}
	return cube
}

// requireLinesEqual asserts that every line of got is byte-identical
// (struct ==, i.e. bit-for-bit floats) to the corresponding line of want.
func requireLinesEqual(t *testing.T, label string, got, want *Graph) {
	t.Helper()
	if got.NumLines() != want.NumLines() {
		t.Fatalf("%s: line count %d != reference %d", label, got.NumLines(), want.NumLines())
	}
	want.Lines(func(net string, ref twindow.LineInfo) {
		li, ok := got.Line(net)
		if !ok {
			t.Fatalf("%s: net %q missing from incremental graph", label, net)
		}
		if li != ref {
			t.Fatalf("%s: net %q diverged:\nincremental %+v\nreference   %+v", label, net, li, ref)
		}
	})
}

func TestSetCubeMatchesFromScratch(t *testing.T) {
	lib := prechar.MustLibrary()
	c, err := benchgen.Load("c432")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Lib: lib, NCExtension: true}
	g, err := New(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 12; step++ {
		cube := randomPICube(c, rng)
		if err := g.SetCube(context.Background(), cube); err != nil {
			t.Fatalf("step %d: SetCube: %v", step, err)
		}
		ref, err := NewWithCube(c, cube, opts)
		if err != nil {
			t.Fatalf("step %d: reference build: %v", step, err)
		}
		requireLinesEqual(t, fmt.Sprintf("step %d (%s)", step, cube), g, ref)
	}
	// Retract everything: back to pure STA, byte-identical to a fresh
	// empty-cube graph.
	if err := g.SetCube(context.Background(), nineval.Cube{}); err != nil {
		t.Fatal(err)
	}
	ref, err := New(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireLinesEqual(t, "retract-all", g, ref)
}

// TestSyncImplicationMatchesFromScratch drives a caller-owned implication
// the way the ATPG search does — Mark, Assign, Imply, Undo — and requires
// the graph following it to equal, after every sync, a graph built from
// scratch on the implication's cube.
func TestSyncImplicationMatchesFromScratch(t *testing.T) {
	lib := prechar.MustLibrary()
	c, err := benchgen.Load("c432")
	if err != nil {
		t.Fatal(err)
	}
	imp := nineval.NewImplication(c)
	g, err := NewOnImplication(c, imp, Options{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := g.SetCube(ctx, nineval.Cube{c.PIs[0]: nineval.V01}); err == nil {
		t.Fatal("SetCube on a graph following its caller's implication must be refused")
	}
	rng := rand.New(rand.NewSource(7))
	var marks []int
	for step := 0; step < 30; step++ {
		if len(marks) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(marks))
			imp.Undo(marks[k])
			marks = marks[:k]
		} else {
			marks = append(marks, imp.Mark())
			pi := rng.Intn(len(c.PIs))
			if !imp.Assign(pi, values[rng.Intn(len(values))]) || !imp.Imply() {
				imp.Undo(marks[len(marks)-1])
				marks = marks[:len(marks)-1]
			}
		}
		if err := g.SyncImplication(ctx); err != nil {
			t.Fatal(err)
		}
		ref, err := NewWithCube(c, imp.Cube(nil), Options{Lib: lib})
		if err != nil {
			t.Fatal(err)
		}
		requireLinesEqual(t, fmt.Sprintf("step %d", step), g, ref)
	}
}

func TestSetPIMatchesFromScratch(t *testing.T) {
	lib := prechar.MustLibrary()
	c, err := benchgen.Load("c432")
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(c, Options{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	perPI := map[string]twindow.PITiming{}
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 6; step++ {
		pi := c.PIs[rng.Intn(len(c.PIs))]
		p := twindow.PITiming{
			ArrivalEarly: float64(rng.Intn(5)) * 0.05e-9,
			ArrivalLate:  0.25e-9 + float64(rng.Intn(5))*0.05e-9,
			TransShort:   0.1e-9,
			TransLong:    0.3e-9,
		}
		perPI[pi] = p
		if err := g.SetPI(context.Background(), pi, p); err != nil {
			t.Fatalf("step %d: SetPI(%s): %v", step, pi, err)
		}
		ref, err := New(c, Options{Lib: lib, PerPI: perPI})
		if err != nil {
			t.Fatal(err)
		}
		requireLinesEqual(t, fmt.Sprintf("step %d pi %s", step, pi), g, ref)
	}
	if err := g.SetPI(context.Background(), "no-such-net", twindow.DefaultPITiming()); err == nil {
		t.Fatal("SetPI on a non-PI net must fail")
	}
}

func TestSwapGateMatchesFromScratch(t *testing.T) {
	lib := prechar.MustLibrary()
	c, err := benchgen.Load("c432")
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(c, Options{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	dual := map[netlist.GateKind]netlist.GateKind{
		netlist.Nand: netlist.Nor, netlist.Nor: netlist.Nand,
		netlist.Inv: netlist.Buf, netlist.Buf: netlist.Inv,
	}
	for step := 0; step < 6; step++ {
		gi := rng.Intn(c.NumGates())
		net := c.Gates[gi].Output
		kind := dual[c.Gates[gi].Kind]
		if err := g.SwapGate(context.Background(), net, kind); err != nil {
			t.Fatalf("step %d: SwapGate(%s→%v): %v", step, net, kind, err)
		}
		if c.Gates[gi].Kind != kind {
			t.Fatalf("step %d: circuit not mutated", step)
		}
		// The reference sees the already-swapped circuit.
		ref, err := New(c, Options{Lib: lib})
		if err != nil {
			t.Fatal(err)
		}
		requireLinesEqual(t, fmt.Sprintf("step %d swap %s→%v", step, net, kind), g, ref)
	}
	// Cross-pair swaps are rejected without touching the graph.
	var nandNet string
	for i := range c.Gates {
		if c.Gates[i].Kind == netlist.Nand && len(c.Gates[i].Inputs) > 1 {
			nandNet = c.Gates[i].Output
			break
		}
	}
	if nandNet != "" {
		if err := g.SwapGate(context.Background(), nandNet, netlist.Inv); err == nil {
			t.Fatal("cross-pair swap must be rejected")
		}
	}
}

func TestInconsistentCubeLeavesGraphUntouched(t *testing.T) {
	lib := prechar.MustLibrary()
	c := benchgen.C17()
	g, err := New(c, Options{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	before, err := New(c, Options{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	bad := nineval.Cube{"1": nineval.V00, "10": nineval.V00} // forces a conflict
	err = g.SetCube(context.Background(), bad)
	if !errors.Is(err, ErrInconsistent) {
		t.Fatalf("want ErrInconsistent, got %v", err)
	}
	if g.Poisoned() {
		t.Fatal("rejected cube must not poison the graph")
	}
	requireLinesEqual(t, "after rejected cube", g, before)
}

func TestEditTouchesOnlyTheCone(t *testing.T) {
	lib := prechar.MustLibrary()
	c, err := benchgen.Load("c880")
	if err != nil {
		t.Fatal(err)
	}
	m := engine.NewMetrics()
	g, err := New(c, Options{Lib: lib, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	full := m.Get(engine.STAGates)
	if full != int64(c.NumGates()) {
		t.Fatalf("initial converge recomputed %d gates, want %d", full, c.NumGates())
	}
	// Assigning one PI re-converges only its fan-out cone, which in c880
	// is a strict subset of the circuit.
	if err := g.SetCube(context.Background(), nineval.Cube{c.PIs[0]: nineval.V01}); err != nil {
		t.Fatal(err)
	}
	cone := m.Get(engine.STAGates) - full
	if cone <= 0 {
		t.Fatal("edit recomputed no gates")
	}
	if cone >= int64(c.NumGates()) {
		t.Fatalf("single-PI edit recomputed the whole circuit (%d gates)", cone)
	}
	t.Logf("single-PI edit recomputed %d/%d gates", cone, c.NumGates())
	if m.Get(engine.TGraphEdits) != 1 {
		t.Fatalf("TGraphEdits = %d, want 1", m.Get(engine.TGraphEdits))
	}
}

func TestChangedReportsEditedCone(t *testing.T) {
	lib := prechar.MustLibrary()
	c := benchgen.C17()
	g, err := New(c, Options{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetCube(context.Background(), nineval.Cube{"1": nineval.V01}); err != nil {
		t.Fatal(err)
	}
	changed := g.Changed()
	if len(changed) == 0 {
		t.Fatal("assigning a PI changed no lines")
	}
	seen := map[string]bool{}
	for _, net := range changed {
		seen[net] = true
	}
	if !seen["1"] {
		t.Fatalf("changed %v does not include the edited PI", changed)
	}
	// Nets outside the fan-out cone of "1" must be untouched: "2" is an
	// unrelated PI in c17.
	if seen["2"] {
		t.Fatalf("changed %v includes an unrelated PI", changed)
	}
}

func TestCancelledBuildAndEdit(t *testing.T) {
	lib := prechar.MustLibrary()
	c, err := benchgen.Load("c432")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	g, err := New(c, Options{Lib: lib, Ctx: ctx})
	if g != nil {
		t.Fatal("cancelled build returned a graph")
	}
	if !errors.Is(err, engine.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap the cancellation chain: %v", err)
	}

	// A cancelled edit poisons the graph; Heal restores byte-identical
	// state.
	g, err = New(c, Options{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	err = g.SetCube(ctx, nineval.Cube{c.PIs[0]: nineval.V01})
	if !errors.Is(err, engine.ErrCancelled) {
		t.Fatalf("cancelled edit: %v", err)
	}
	if !g.Poisoned() {
		t.Fatal("cancelled edit must poison the graph")
	}
	if err := g.Heal(context.Background()); err != nil {
		t.Fatalf("Heal: %v", err)
	}
	if g.Poisoned() {
		t.Fatal("healed graph still poisoned")
	}
	ref, err := New(c, Options{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	requireLinesEqual(t, "after heal", g, ref)
}

// TestChaosInjectedFaultMidEdit drives the faultinject-style LevelHook: a
// solver error injected mid-convergence must roll the edit back, poison the
// graph, and the next operation must heal to a state byte-identical to a
// full recompute of the pre-edit cube.
func TestChaosInjectedFaultMidEdit(t *testing.T) {
	lib := prechar.MustLibrary()
	c, err := benchgen.Load("c432")
	if err != nil {
		t.Fatal(err)
	}
	armed := false
	// The kill level is part of the chaos schedule: CHAOS_SEED picks which
	// convergence level dies. Levels 2-4 are always visited by the edited
	// cones on c432, so every seed produces a real mid-edit fault.
	failLevel := 2 + int(chaosSeed(t, 1)%3)
	hook := faultinject.LevelHook(func(step int, _ float64, _ int) spice.FaultKind {
		if armed && step == failLevel {
			return spice.FaultNoConverge
		}
		return spice.FaultNone
	})
	g, err := New(c, Options{Lib: lib, LevelHook: hook})
	if err != nil {
		t.Fatal(err)
	}

	goodCube := nineval.Cube{c.PIs[0]: nineval.V01}
	if err := g.SetCube(context.Background(), goodCube); err != nil {
		t.Fatal(err)
	}

	// Inject: the next edit dies mid-convergence.
	armed = true
	badEdit := nineval.Cube{c.PIs[1]: nineval.V10, c.PIs[2]: nineval.V01}
	err = g.SetCube(context.Background(), badEdit)
	if err == nil {
		t.Fatal("injected fault did not surface")
	}
	if !errors.Is(err, spice.ErrNoConvergence) {
		t.Fatalf("injected fault lost its taxonomy sentinel: %v", err)
	}
	var se *spice.SolveError
	if !errors.As(err, &se) || !se.Injected {
		t.Fatalf("injected fault not marked Injected: %v", err)
	}
	if !g.Poisoned() {
		t.Fatal("failed edit must poison the graph")
	}

	// The failed edit rolled back to goodCube; once injection stops, the
	// next edit heals first and the graph equals a full recompute.
	armed = false
	if err := g.SetCube(context.Background(), goodCube); err != nil {
		t.Fatalf("healing edit: %v", err)
	}
	if g.Poisoned() {
		t.Fatal("graph still poisoned after successful edit")
	}
	ref, err := NewWithCube(c, goodCube, Options{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	requireLinesEqual(t, "after chaos heal", g, ref)

	// Injection during Heal itself keeps the graph poisoned rather than
	// exposing partial state.
	armed = true
	if err := g.SetCube(context.Background(), badEdit); err == nil {
		t.Fatal("second injection did not surface")
	}
	if err := g.Heal(context.Background()); err == nil {
		t.Fatal("Heal under injection must fail")
	}
	if !g.Poisoned() {
		t.Fatal("failed Heal must leave the graph poisoned")
	}
	armed = false
	if err := g.Heal(context.Background()); err != nil {
		t.Fatalf("final Heal: %v", err)
	}
	requireLinesEqual(t, "after final heal", g, ref)
}

func TestEditRetractSequenceMatchesFromScratch(t *testing.T) {
	lib := prechar.MustLibrary()
	c, err := benchgen.Load("c499")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Lib: lib}
	g, err := New(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))

	// A stack-shaped edit/retract walk, the shape the ATPG search
	// produces: push an assignment, sometimes pop back to a previous
	// cube.
	var stack []nineval.Cube
	stack = append(stack, nineval.Cube{})
	for step := 0; step < 30; step++ {
		if len(stack) > 1 && rng.Intn(3) == 0 {
			stack = stack[:len(stack)-1] // backtrack
		} else {
			next := stack[len(stack)-1].Clone()
			pi := c.PIs[rng.Intn(len(c.PIs))]
			next[pi] = values[rng.Intn(len(values))]
			stack = append(stack, next)
		}
		cur := stack[len(stack)-1]
		if err := g.SetCube(context.Background(), cur); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		ref, err := NewWithCube(c, cur, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireLinesEqual(t, fmt.Sprintf("step %d depth %d", step, len(stack)), g, ref)
	}
}
