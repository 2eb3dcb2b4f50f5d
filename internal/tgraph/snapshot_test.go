package tgraph

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/netlist"
	"sstiming/internal/prechar"
	"sstiming/internal/twindow"
)

// editedGraph builds a c432 graph and walks it through a mixed edit script
// (cube edits, PI retimes, a gate swap when the library has the dual) so
// snapshots are exercised on a state that is not just the initial build.
func editedGraph(t testing.TB, seed int64) (*Graph, Options) {
	t.Helper()
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
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < 6; step++ {
		if err := g.SetCube(ctx, randomPICube(c, rng)); err != nil {
			t.Fatalf("step %d: SetCube: %v", step, err)
		}
	}
	pi := c.PIs[rng.Intn(len(c.PIs))]
	if err := g.SetPI(ctx, pi, twindow.PITiming{ArrivalEarly: 0.1e-9, ArrivalLate: 0.35e-9, TransShort: 0.15e-9, TransLong: 0.4e-9}); err != nil {
		t.Fatalf("SetPI: %v", err)
	}
	for i := range c.Gates {
		gate := &c.Gates[i]
		var dual netlist.GateKind
		switch gate.Kind {
		case netlist.Nand:
			dual = netlist.Nor
		case netlist.Nor:
			dual = netlist.Nand
		default:
			continue
		}
		if err := g.SwapGate(ctx, gate.Output, dual); err == nil {
			break
		}
	}
	return g, opts
}

func TestSnapshotRoundTripByteIdentical(t *testing.T) {
	g, opts := editedGraph(t, 17)
	snap, err := g.EncodeSnapshot()
	if err != nil {
		t.Fatalf("EncodeSnapshot: %v", err)
	}
	got, err := RestoreSnapshot(snap, opts)
	if err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	// The .bench text carries no name, so the snapshot must — a restore
	// that renames the circuit is visible to every session client.
	if got.Circuit().Name != g.Circuit().Name {
		t.Errorf("restored circuit name %q, want %q", got.Circuit().Name, g.Circuit().Name)
	}
	requireLinesEqual(t, "restored", got, g)

	// The restored graph must remain a live, editable graph: identical
	// further edits on both must stay byte-identical.
	ctx := context.Background()
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 4; step++ {
		cube := randomPICube(g.Circuit(), rng)
		if err := g.SetCube(ctx, cube); err != nil {
			t.Fatalf("step %d: original SetCube: %v", step, err)
		}
		if err := got.SetCube(ctx, cube.Clone()); err != nil {
			t.Fatalf("step %d: restored SetCube: %v", step, err)
		}
		requireLinesEqual(t, "post-restore edit", got, g)
	}
}

func TestSnapshotRejectsMismatchedOptions(t *testing.T) {
	g, opts := editedGraph(t, 3)
	snap, err := g.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	wrongMode := opts
	wrongMode.Mode = twindow.ModePinToPin
	if _, err := RestoreSnapshot(snap, wrongMode); err == nil {
		t.Fatal("RestoreSnapshot accepted a mode mismatch")
	}
	wrongNC := opts
	wrongNC.NCExtension = false
	if _, err := RestoreSnapshot(snap, wrongNC); err == nil {
		t.Fatal("RestoreSnapshot accepted an nc_extension mismatch")
	}
}

func TestSnapshotDecodeNeverPanics(t *testing.T) {
	g, opts := editedGraph(t, 5)
	snap, err := g.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]byte{
		nil,
		[]byte("{"),
		[]byte("null"),
		[]byte(`{"version":99}`),
		[]byte(`{"version":1,"mode":"proposed","nc_extension":true,"netlist":"garbage"}`),
		[]byte(strings.Replace(string(snap), `"lines":{`, `"lines":{"no_such_net":{"r":{},"f":{}},`, 1)),
		[]byte(strings.Replace(string(snap), `"raw_cube":{`, `"raw_cube":{"bogus":"012",`, 1)),
	}
	for i, data := range cases {
		restored, err := RestoreSnapshot(data, opts)
		if err == nil {
			// The two surgical corruptions only bite when the substring
			// existed; a clean decode must at least be consistent.
			requireLinesEqual(t, "lenient case", restored, g)
			continue
		}
		if !strings.Contains(err.Error(), "bad snapshot") {
			t.Fatalf("case %d: error is not typed ErrBadSnapshot: %v", i, err)
		}
	}
}

func TestSnapshotRefusesPoisonedGraph(t *testing.T) {
	g, _ := editedGraph(t, 7)
	g.poison()
	if _, err := g.EncodeSnapshot(); err == nil {
		t.Fatal("EncodeSnapshot accepted a poisoned graph")
	}
}
