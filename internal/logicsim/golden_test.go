package logicsim

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/netlist"
	"sstiming/internal/prechar"
	"sstiming/internal/twindow"
)

var update = flag.Bool("update", false, "rewrite testdata/simulate_golden.json from the current code")

const simulateGoldenFile = "testdata/simulate_golden.json"

// simGolden is one recorded simulation: every net's two frame values as
// "v1v2" digits in net-ID order, and every switching net's event as
// "net:R|F:arrival:trans" with both times as exact float bits. Fault runs
// also record whether the fault was excited.
type simGolden struct {
	Values  string   `json:"values"`
	Events  []string `json:"events"`
	Excited *bool    `json:"excited,omitempty"`
}

// goldenRecord reads a result in net-ID order.
func goldenRecord(c *netlist.Circuit, r *Result) simGolden {
	var vals strings.Builder
	var evs []string
	for id := 0; id < c.NumNets(); id++ {
		net := c.NetName(id)
		v1, v2 := r.Values(net)
		fmt.Fprintf(&vals, "%d%d", v1, v2)
		if ev, ok := r.Event(net); ok {
			dir := "F"
			if ev.Rising {
				dir = "R"
			}
			evs = append(evs, fmt.Sprintf("%s:%s:%016x:%016x", net, dir,
				math.Float64bits(ev.Arrival), math.Float64bits(ev.Trans)))
		}
	}
	return simGolden{Values: vals.String(), Events: evs}
}

// goldenFaults picks fixed faults from a clean run: the victim is the
// first switching gate output from the middle of the topological order
// on, the aggressor the first switching primary input. The first fault
// matches both directions under a wide window (excited); the second
// expects the opposite victim direction (not excited).
func goldenFaults(c *netlist.Circuit, clean *Result) []FaultInjection {
	var agg, vic string
	var aggEv, vicEv Event
	for _, pi := range c.PIs {
		if ev, ok := clean.Event(pi); ok {
			agg, aggEv = pi, ev
			break
		}
	}
	order := c.TopoOrder()
	for _, gi := range order[len(order)/2:] {
		out := c.Gates[gi].Output
		if ev, ok := clean.Event(out); ok {
			vic, vicEv = out, ev
			break
		}
	}
	if agg == "" || vic == "" {
		return nil
	}
	f := FaultInjection{
		Aggressor: agg, Victim: vic,
		AggRising: aggEv.Rising, VicRising: vicEv.Rising,
		Window: 5e-9, ExtraDelay: 150e-12, ExtraTrans: 40e-12,
	}
	miss := f
	miss.VicRising = !f.VicRising
	return []FaultInjection{f, miss}
}

// TestSimulateGolden pins the forward pass — every net's logic values and
// every event's arrival and transition time to the bit — for seeded
// vector pairs through Simulate and fixed crosstalk faults through
// SimulateFaulty, on c17, c432 and c880 under both delay models with and
// without the to-non-controlling extension. Regenerate with -update only
// for an intended change of the simulation.
func TestSimulateGolden(t *testing.T) {
	lib := prechar.MustLibrary()
	modes := []struct {
		name string
		mode twindow.Mode
	}{{"proposed", twindow.ModeProposed}, {"pin-to-pin", twindow.ModePinToPin}}
	got := map[string]simGolden{}
	for _, bench := range []string{"c17", "c432", "c880"} {
		c, err := benchgen.Load(bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range modes {
			for _, nc := range []bool{false, true} {
				opts := Options{Lib: lib, Mode: m.mode, NCExtension: nc}
				prefix := fmt.Sprintf("%s/%s/nc=%v", bench, m.name, nc)
				rng := rand.New(rand.NewSource(17))
				for trial := 0; trial < 3; trial++ {
					v1 := RandomVector(c, rng.Intn)
					v2 := RandomVector(c, rng.Intn)
					res, err := Simulate(c, v1, v2, opts)
					if err != nil {
						t.Fatalf("%s trial %d: %v", prefix, trial, err)
					}
					got[fmt.Sprintf("%s/sim/%d", prefix, trial)] = goldenRecord(c, res)
					for k, f := range goldenFaults(c, res) {
						clean, faulty, excited, err := SimulateFaulty(c, v1, v2, f, opts)
						if err != nil {
							t.Fatalf("%s trial %d fault %d: %v", prefix, trial, k, err)
						}
						if !reflect.DeepEqual(goldenRecord(c, clean), goldenRecord(c, res)) {
							t.Errorf("%s trial %d fault %d: clean run differs from Simulate", prefix, trial, k)
						}
						rec := goldenRecord(c, faulty)
						rec.Excited = &excited
						got[fmt.Sprintf("%s/fault/%d/%d", prefix, trial, k)] = rec
					}
				}
			}
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(simulateGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(simulateGoldenFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(simulateGoldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	var want map[string]simGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d cases, golden has %d", len(got), len(want))
	}
	for key, w := range want {
		g, ok := got[key]
		switch {
		case !ok:
			t.Errorf("%s: missing", key)
		case g.Values != w.Values:
			t.Errorf("%s: logic values differ from the golden", key)
		case !reflect.DeepEqual(g.Events, w.Events):
			t.Errorf("%s: events differ from the golden", key)
		case !reflect.DeepEqual(g.Excited, w.Excited):
			t.Errorf("%s: excited %v, golden %v", key, *g.Excited, *w.Excited)
		}
	}
}
