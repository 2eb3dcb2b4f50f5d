package itr

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/netlist"
	"sstiming/internal/nineval"
	"sstiming/internal/prechar"
	"sstiming/internal/sta"
	"sstiming/internal/tgraph"
)

var update = flag.Bool("update", false, "rewrite testdata/backward_golden.json from the current code")

const backwardGoldenFile = "testdata/backward_golden.json"

// backwardGolden is the recorded output of the backward pass for one
// (circuit, mode, cube) case: the required map's key count and a digest of
// its keys with every QS/QL as exact float bits, and the violation count
// with a digest of the violations in returned order.
type backwardGolden struct {
	Keys       int    `json:"keys"`
	Required   string `json:"required_sha256"`
	Violations int    `json:"violations"`
	Viols      string `json:"violations_sha256"`
}

// backwardGoldens holds every case plus the STA worst path per
// (circuit, mode).
type backwardGoldens struct {
	Cases map[string]backwardGolden `json:"cases"`
	Paths map[string]string         `json:"paths"`
}

// seededCubes returns n consistent PI cubes drawn from seed: each primary
// input is assigned a random two-frame value with probability 1/3.
func seededCubes(c *netlist.Circuit, seed int64, n int) []nineval.Cube {
	vals := []nineval.Value{
		nineval.V00, nineval.V01, nineval.V0X,
		nineval.V10, nineval.V11, nineval.V1X,
		nineval.VX0, nineval.VX1,
	}
	rng := rand.New(rand.NewSource(seed))
	cubes := make([]nineval.Cube, 0, n)
	for len(cubes) < n {
		cube := nineval.Cube{}
		for _, pi := range c.PIs {
			if rng.Intn(3) == 0 {
				cube[pi] = vals[rng.Intn(len(vals))]
			}
		}
		if _, ok := nineval.Imply(c, cube); ok {
			cubes = append(cubes, cube)
		}
	}
	return cubes
}

func bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func digest(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }

// goldenOf renders a required map and a violation list as a golden record.
func goldenOf(req map[string]*sta.LineRequired, viols []sta.Violation) backwardGolden {
	nets := make([]string, 0, len(req))
	for net := range req {
		nets = append(nets, net)
	}
	slices.Sort(nets)
	var rb strings.Builder
	for _, net := range nets {
		lr := req[net]
		fmt.Fprintf(&rb, "%s %s %s %s %s\n", net, bits(lr.Rise.QS), bits(lr.Rise.QL), bits(lr.Fall.QS), bits(lr.Fall.QL))
	}
	var vb strings.Builder
	for _, v := range viols {
		fmt.Fprintf(&vb, "%s %t %t %s\n", v.Net, v.Rising, v.Setup, bits(v.Slack))
	}
	return backwardGolden{Keys: len(req), Required: digest(rb.String()), Violations: len(viols), Viols: digest(vb.String())}
}

// TestBackwardGolden pins the backward pass — required windows (key set
// and exact bits), violations in order, and the STA worst path — against
// values recorded from an independent implementation, for STA and for ITR
// under the empty cube and three seeded cubes. Regenerate with -update only
// when the timing model itself changes.
func TestBackwardGolden(t *testing.T) {
	lib := prechar.MustLibrary()
	got := backwardGoldens{Cases: map[string]backwardGolden{}, Paths: map[string]string{}}
	for _, name := range []string{"c17", "c432", "c880"} {
		c, err := benchgen.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		cubes := append([]nineval.Cube{{}}, seededCubes(c, 7, 3)...)
		for _, mode := range []sta.Mode{sta.ModeProposed, sta.ModePinToPin} {
			staRes, err := sta.Analyze(c, sta.Options{Lib: lib, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			cons := tightConstraint(staRes)
			path, err := staRes.WorstPath()
			if err != nil {
				t.Fatal(err)
			}
			got.Paths[name+"/"+mode.String()] = sta.FormatPath(path)
			got.Cases[name+"/"+mode.String()+"/sta"] = goldenOf(staRes.RequiredTimes(cons), staRes.CheckViolations(cons))
			for i, cube := range cubes {
				res, err := Refine(c, cube, Options{Lib: lib, Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("%s/%s/cube%d", name, mode, i)
				got.Cases[key] = goldenOf(res.RequiredTimes(cons, lib), res.CheckViolations(cons, lib))
			}
		}
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(backwardGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(backwardGoldenFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(backwardGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want backwardGoldens
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Cases) != len(want.Cases) || len(got.Paths) != len(want.Paths) {
		t.Errorf("golden holds %d cases and %d paths, run produced %d and %d",
			len(want.Cases), len(want.Paths), len(got.Cases), len(got.Paths))
	}
	for key, w := range want.Cases {
		if g := got.Cases[key]; g != w {
			t.Errorf("%s: got %+v, want %+v", key, g, w)
		}
	}
	for key, w := range want.Paths {
		if g := got.Paths[key]; g != w {
			t.Errorf("%s worst path:\n  got  %s\n  want %s", key, g, w)
		}
	}
}

// TestSnapshotIsolation: sta.FromGraph and itr.FromGraph results are
// copies, so editing the graph afterwards — here swapping gates to their
// duals, which changes both the circuit's gate kinds and the graph's cell
// binding — leaves their required times, violations and worst path as
// they were.
func TestSnapshotIsolation(t *testing.T) {
	lib := prechar.MustLibrary()
	c, err := benchgen.Load("c432")
	if err != nil {
		t.Fatal(err)
	}
	g, err := tgraph.New(c, tgraph.Options{Lib: lib, Mode: sta.ModeProposed})
	if err != nil {
		t.Fatal(err)
	}
	staRes, itrRes := sta.FromGraph(g), FromGraph(g)
	cons := tightConstraint(staRes)
	observe := func() (backwardGolden, backwardGolden, string) {
		path, err := staRes.WorstPath()
		if err != nil {
			t.Fatal(err)
		}
		return goldenOf(staRes.RequiredTimes(cons), staRes.CheckViolations(cons)),
			goldenOf(itrRes.RequiredTimes(cons, lib), itrRes.CheckViolations(cons, lib)),
			sta.FormatPath(path)
	}
	staBefore, itrBefore, pathBefore := observe()

	// Swap every NAND/NOR gate on the worst path whose dual the library
	// has, so the edit reaches
	// both the backward pass and the path's own arcs.
	path, err := staRes.WorstPath()
	if err != nil {
		t.Fatal(err)
	}
	swapped, changed := 0, 0
	for _, st := range path {
		gi, ok := c.Driver(st.Net)
		if !ok {
			continue
		}
		var dual netlist.GateKind
		switch c.Gates[gi].Kind {
		case netlist.Nand:
			dual = netlist.Nor
		case netlist.Nor:
			dual = netlist.Nand
		default:
			continue
		}
		if err := g.SwapGate(context.Background(), st.Net, dual); err != nil {
			continue // the library lacks the dual cell
		}
		swapped++
		changed += g.NumChanged()
	}
	if swapped == 0 || changed == 0 {
		t.Fatalf("swapped %d gates, changing %d lines: the edit must reach the timing", swapped, changed)
	}

	staAfter, itrAfter, pathAfter := observe()
	if staAfter != staBefore {
		t.Errorf("sta snapshot required/violations changed after SwapGate: %+v -> %+v", staBefore, staAfter)
	}
	if itrAfter != itrBefore {
		t.Errorf("itr snapshot required/violations changed after SwapGate: %+v -> %+v", itrBefore, itrAfter)
	}
	if pathAfter != pathBefore {
		t.Errorf("sta snapshot worst path changed after SwapGate:\n  before %s\n  after  %s", pathBefore, pathAfter)
	}
}
