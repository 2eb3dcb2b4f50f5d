package netlist

import (
	"fmt"
	"testing"
)

// TestNetIDs: primary inputs take IDs 0..len(PIs)-1 in declaration order,
// gate outputs follow in gate order, and the ID-indexed inputs and
// fan-outs agree with the name-keyed accessors.
func TestNetIDs(t *testing.T) {
	c := parseC17(t)
	if c.NumNets() != len(c.PIs)+len(c.Gates) {
		t.Fatalf("NumNets = %d, want %d", c.NumNets(), len(c.PIs)+len(c.Gates))
	}
	for id := 0; id < c.NumNets(); id++ {
		name := c.NetName(id)
		if got, ok := c.NetID(name); !ok || got != id {
			t.Fatalf("NetID(%q) = %d, %v; want %d", name, got, ok, id)
		}
		if c.IsPI(name) != (id < len(c.PIs)) {
			t.Fatalf("net %q (id %d) misclassified", name, id)
		}
		fo := c.NetFanout(id)
		if fmt.Sprint(fo) != fmt.Sprint(c.Fanout(name)) || max(len(fo), 1) != c.FanoutCount(name) {
			t.Fatalf("net %q: NetFanout %v disagrees with Fanout %v", name, fo, c.Fanout(name))
		}
	}
	for gi := range c.Gates {
		if c.NetName(len(c.PIs)+gi) != c.Gates[gi].Output {
			t.Fatalf("gate %d output ID does not name %q", gi, c.Gates[gi].Output)
		}
		ids := c.GateInputIDs(gi)
		if len(ids) != len(c.Gates[gi].Inputs) {
			t.Fatalf("gate %d: %d input IDs for %d inputs", gi, len(ids), len(c.Gates[gi].Inputs))
		}
		for pin, id := range ids {
			if c.NetName(int(id)) != c.Gates[gi].Inputs[pin] {
				t.Fatalf("gate %d pin %d: ID %d names %q, want %q", gi, pin, id, c.NetName(int(id)), c.Gates[gi].Inputs[pin])
			}
		}
	}
	if _, ok := c.NetID("no_such_net"); ok {
		t.Fatal("NetID found a net the circuit does not have")
	}
}

// TestRepeatedInputLoadsTwice: a gate reading one net on two pins loads it
// twice, as before nets were interned.
func TestRepeatedInputLoadsTwice(t *testing.T) {
	c := New("rep")
	c.AddPI("a")
	c.AddPO("z")
	c.AddGate(Nand, "z", "a", "a")
	if err := c.Build(); err != nil {
		t.Fatal(err)
	}
	if n := c.FanoutCount("a"); n != 2 {
		t.Fatalf("FanoutCount(a) = %d, want 2", n)
	}
}

// TestCellNameAllocs: the per-gate library lookups of the timing passes
// must not allocate.
func TestCellNameAllocs(t *testing.T) {
	gates := []Gate{
		{Kind: Inv, Inputs: []string{"a"}},
		{Kind: Nand, Inputs: []string{"a", "b"}},
		{Kind: Nor, Inputs: []string{"a", "b", "c", "d"}},
	}
	if n := testing.AllocsPerRun(100, func() {
		for i := range gates {
			_ = gates[i].CellName()
		}
	}); n != 0 {
		t.Fatalf("CellName made %.0f allocations, want 0", n)
	}
	wide := Gate{Kind: Nor, Inputs: make([]string, maxNamedArity+1)}
	if got, want := wide.CellName(), fmt.Sprintf("NOR%d", maxNamedArity+1); got != want {
		t.Fatalf("wide cell name = %q, want %q", got, want)
	}
}
