package nineval

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/netlist"
)

var specified = []Value{V00, V01, V0X, V10, V11, V1X, VX0, VX1}

// implicationScript runs a random script of Assign (on primary inputs and
// internal nets alike, so conflicts occur), Mark, Undo, relax (Reset and
// re-assign all but one literal) and Commit, and after every step checks
// the incremental state against a from-scratch Imply of the literals the
// script holds: every value and the consistency verdict. A conflicting
// Assign+Imply must Undo to exactly the values before its mark, and every
// net whose value moved since the previous drain must be drained.
func implicationScript(t *testing.T, c *netlist.Circuit, rng *rand.Rand, steps int) (conflicts int) {
	t.Helper()
	type frame struct {
		mark int
		raw  Cube
	}
	imp := NewImplication(c)
	raw := Cube{}
	var stack []frame
	drained := slices.Clone(imp.Values())

	check := func(step int, op string) {
		t.Helper()
		ref, ok := Imply(c, raw)
		if !ok {
			t.Fatalf("%s step %d (%s): the script's literals %s do not imply", c.Name, step, op, raw)
		}
		for id, v := range imp.Values() {
			if want := ref.Get(c.NetName(id)); v != want {
				t.Fatalf("%s step %d (%s): net %s = %v, from scratch %v (literals %s)",
					c.Name, step, op, c.NetName(id), v, want, raw)
			}
		}
		touched := map[int32]bool{}
		for _, id := range imp.DrainTouched() {
			touched[id] = true
		}
		for id, v := range imp.Values() {
			if v != drained[id] && !touched[int32(id)] {
				t.Fatalf("%s step %d (%s): net %s moved %v -> %v but was not drained",
					c.Name, step, op, c.NetName(id), drained[id], v)
			}
		}
		copy(drained, imp.Values())
	}

	for step := 0; step < steps; step++ {
		var op string
		switch r := rng.Intn(10); {
		case r < 5:
			op = "assign"
			id := rng.Intn(c.NumNets())
			net, v := c.NetName(id), specified[rng.Intn(len(specified))]
			next := raw.Clone()
			m, okMeet := raw.Get(net).Meet(v)
			next[net] = m
			_, wantOK := Imply(c, next)
			wantOK = wantOK && okMeet

			before := slices.Clone(imp.Values())
			mark := imp.Mark()
			ok := imp.Assign(id, v) && imp.Imply()
			if ok != wantOK {
				t.Fatalf("%s step %d: assign %s=%v over %s: incremental ok=%v, from scratch ok=%v",
					c.Name, step, net, v, raw, ok, wantOK)
			}
			if !ok {
				conflicts++
				imp.Undo(mark)
				if !slices.Equal(imp.Values(), before) {
					t.Fatalf("%s step %d: Undo after conflicting %s=%v did not restore the values", c.Name, step, net, v)
				}
			} else {
				raw = next
			}
		case r < 7:
			op = "mark"
			stack = append(stack, frame{imp.Mark(), raw.Clone()})
		case r < 9:
			op = "undo"
			if len(stack) > 0 {
				k := rng.Intn(len(stack))
				imp.Undo(stack[k].mark)
				raw = stack[k].raw
				stack = stack[:k]
			}
		default:
			op = "relax"
			if len(raw) == 0 {
				imp.Commit()
				stack = nil
				op = "commit"
				break
			}
			nets := make([]string, 0, len(raw))
			for net := range raw {
				nets = append(nets, net)
			}
			sort.Strings(nets)
			next := raw.Clone()
			delete(next, nets[rng.Intn(len(nets))])
			imp.Reset()
			for net, v := range next {
				id, _ := c.NetID(net)
				if !imp.Assign(id, v) {
					t.Fatalf("%s step %d: assign into a reset state conflicted", c.Name, step)
				}
			}
			if !imp.Imply() {
				t.Fatalf("%s step %d: relaxing %s conflicts", c.Name, step, raw)
			}
			raw = next
		}
		check(step, op)
	}
	return conflicts
}

// TestImplicationMatchesFromScratch is the implication fuzz: incremental
// implication with undo must agree with a from-scratch Imply after every
// step of random scripts on the ISCAS stand-ins and random circuits.
func TestImplicationMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var circuits []*netlist.Circuit
	for _, name := range []string{"c17", "c432", "c880"} {
		c, err := benchgen.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	for i := 0; i < 24; i++ {
		c, err := benchgen.GenerateRand(benchgen.RandomProfile(fmt.Sprintf("rand%d", i), rng), rng)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	conflicts := 0
	for _, c := range circuits {
		if err := c.EnsureBuilt(); err != nil {
			t.Fatal(err)
		}
		conflicts += implicationScript(t, c, rng, 200)
	}
	if conflicts == 0 {
		t.Fatal("no script step conflicted: the undo-after-conflict path went untested")
	}
	t.Logf("%d circuits, %d conflicting assignments undone", len(circuits), conflicts)
}

// FuzzImplication runs one script per fuzz input over a random circuit.
func FuzzImplication(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(7552))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		c, err := benchgen.GenerateRand(benchgen.RandomProfile("fuzz", rng), rng)
		if err != nil {
			t.Skip(err)
		}
		if err := c.EnsureBuilt(); err != nil {
			t.Skip(err)
		}
		implicationScript(t, c, rng, 60)
	})
}

// TestImplicationIncrementalAllocs: on a warm implication, a decision step
// (Mark, Assign, Imply) and its backtrack (Undo) allocate nothing.
func TestImplicationIncrementalAllocs(t *testing.T) {
	c, err := benchgen.Load("c880")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnsureBuilt(); err != nil {
		t.Fatal(err)
	}
	imp := NewImplication(c)
	if !imp.Assign(0, V01) || !imp.Imply() {
		t.Fatal("a single PI literal conflicts")
	}
	step := func() {
		mark := imp.Mark()
		if !imp.Assign(1, V10) || !imp.Imply() {
			t.Fatal("a PI literal conflicts")
		}
		imp.Undo(mark)
	}
	for i := 0; i < 5; i++ {
		if n := testing.AllocsPerRun(1, step); n != 0 {
			t.Fatalf("warm Assign+Imply+Undo made %v allocations, want 0", n)
		}
	}
}
