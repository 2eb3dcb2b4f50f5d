// Engine benchmarks for the timing graph and characterisation.
//
// Parallel scaling: characterisation is the heaviest fan-out in the
// pipeline (hundreds of independent SPICE transients), so it is the
// canonical measure of the engine's speed-up. The timing graph converges
// serially: BenchmarkBuild prices one full c7552 build, and
// BenchmarkRequired the backward pass on the same circuit. BenchmarkRefine
// prices one ITR refinement and its violation check, both passes under a
// cube's transition states. Incremental
// edits: BenchmarkSwapGate prices one gate swap on a persistent graph
// against the size of the cone it re-converges.
//
// Run with:
//
//	go test -run '^$' -bench='CharacterizeParallel|Build$|Required|Refine|SwapGate' -benchtime=3x
//
// or `make bench-parallel`.
package sstiming_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/charlib"
	"sstiming/internal/netlist"
	"sstiming/internal/nineval"
	"sstiming/internal/prechar"
	"sstiming/internal/sta"
	"sstiming/internal/tgraph"
	"sstiming/internal/twindow"
)

// BenchmarkCharacterizeParallel characterises the reduced FastOptions
// library at increasing engine worker counts. The produced libraries are
// byte-identical across worker counts (asserted by the charlib tests); only
// the wall-clock changes.
func BenchmarkCharacterizeParallel(b *testing.B) {
	for _, jobs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := charlib.FastOptions()
				opts.Jobs = jobs
				if _, err := charlib.Characterize(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuild builds and fully converges the c7552 timing graph in one
// serial pass.
func BenchmarkBuild(b *testing.B) {
	lib := prechar.MustLibrary()
	c, err := benchgen.Load("c7552")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tgraph.New(c, tgraph.Options{Lib: lib, Mode: twindow.ModeProposed}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRequired runs the c7552 backward pass as a sign-off flow does:
// RequiredTimes and then CheckViolations under a constraint that some lines
// violate. The result keeps the last constraint's required windows, so the
// ops alternate between two constraints 1 ps apart and every op walks the
// graph backwards once.
func BenchmarkRequired(b *testing.B) {
	c, err := benchgen.Load("c7552")
	if err != nil {
		b.Fatal(err)
	}
	res, err := sta.Analyze(c, sta.Options{Lib: prechar.MustLibrary(), Mode: sta.ModeProposed})
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := res.MinPOArrival(), res.MaxPOArrival()
	conss := [2]sta.Constraint{
		{MinTime: 1.05 * lo, MaxTime: 0.95 * hi},
		{MinTime: 1.05 * lo, MaxTime: 0.95*hi + 1e-12},
	}
	b.ReportAllocs()
	b.ResetTimer()
	viols := 0
	for i := 0; i < b.N; i++ {
		cons := conss[i%2]
		res.RequiredTimes(cons)
		viols += len(res.CheckViolations(cons))
	}
	b.ReportMetric(float64(viols)/float64(b.N), "violations/op")
}

// BenchmarkRefine runs refinement as a sign-off flow does, over 120 seeded
// cubes on c1908 that imply without conflict: an op refines the circuit
// under one cube (sta.Refine: implication, then a full forward pass under
// the implied transition states) and checks its violations against a
// constraint 5% inside its PO arrival range (the backward pass). It
// encodes nothing, so the timing layers' share of the op is all of it.
func BenchmarkRefine(b *testing.B) {
	c, err := benchgen.Load("c1908")
	if err != nil {
		b.Fatal(err)
	}
	if err := c.EnsureBuilt(); err != nil {
		b.Fatal(err)
	}
	vals := []nineval.Value{nineval.V01, nineval.V10, nineval.V00, nineval.V11, nineval.VX1, nineval.V1X}
	rng := rand.New(rand.NewSource(1))
	var cubes []nineval.Cube
	for len(cubes) < 120 {
		cube := nineval.Cube{}
		for k := 2 + rng.Intn(6); k > 0; k-- {
			cube[c.PIs[rng.Intn(len(c.PIs))]] = vals[rng.Intn(len(vals))]
		}
		if _, ok := nineval.Imply(c, cube); ok {
			cubes = append(cubes, cube)
		}
	}
	opts := sta.Options{Lib: prechar.MustLibrary(), Mode: sta.ModeProposed}
	b.ReportAllocs()
	b.ResetTimer()
	viols := 0
	for i := 0; i < b.N; i++ {
		res, err := sta.Refine(c, cubes[i%len(cubes)], opts)
		if err != nil {
			b.Fatal(err)
		}
		viols += len(res.CheckViolations(sta.Constraint{MinTime: 1.05 * res.MinPOArrival(), MaxTime: 0.95 * res.MaxPOArrival()}))
	}
	b.ReportMetric(float64(viols)/float64(b.N), "violations/op")
}

// BenchmarkSwapGate measures incremental edits on one persistent c7552
// timing graph: an op swaps a gate to its same-arity dual
// (NAND<->NOR, INV<->BUF) and back, re-converging its cone twice. Gates are
// bucketed by the cone a trial swap re-converges (NumChanged), so cost
// reads against cone size; cone_lines/op is the mean number of lines
// re-converged per op. Every op restores the circuit, so afterwards the
// graph must match a from-scratch build line for line.
func BenchmarkSwapGate(b *testing.B) {
	lib := prechar.MustLibrary()
	c, err := benchgen.Load("c7552")
	if err != nil {
		b.Fatal(err)
	}
	opts := tgraph.Options{Lib: lib, Mode: twindow.ModeProposed}
	g, err := tgraph.New(c, opts)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	dual := map[netlist.GateKind]netlist.GateKind{
		netlist.Nand: netlist.Nor, netlist.Nor: netlist.Nand,
		netlist.Inv: netlist.Buf, netlist.Buf: netlist.Inv,
	}
	buckets := []struct {
		name    string
		maxCone int
		gates   []int
	}{{"cone<=10", 10, nil}, {"cone<=100", 100, nil}, {"cone<=1000", 1000, nil}, {"cone>1000", math.MaxInt, nil}}
	for gi := range c.Gates {
		gate := &c.Gates[gi]
		kind, ok := dual[gate.Kind]
		if !ok {
			continue
		}
		if err := g.SwapGate(ctx, gate.Output, kind); err != nil {
			continue // the dual cell is not characterised
		}
		cone := g.NumChanged()
		if err := g.SwapGate(ctx, gate.Output, dual[kind]); err != nil {
			b.Fatal(err)
		}
		for k := range buckets {
			if cone <= buckets[k].maxCone {
				buckets[k].gates = append(buckets[k].gates, gi)
				break
			}
		}
	}

	for _, bk := range buckets {
		if len(bk.gates) == 0 {
			continue
		}
		b.Run(bk.name, func(b *testing.B) {
			b.ReportAllocs()
			lines := 0
			for i := 0; i < b.N; i++ {
				gate := &c.Gates[bk.gates[i%len(bk.gates)]]
				kind := gate.Kind
				for _, k := range []netlist.GateKind{dual[kind], kind} {
					if err := g.SwapGate(ctx, gate.Output, k); err != nil {
						b.Fatal(err)
					}
					lines += g.NumChanged()
				}
			}
			b.ReportMetric(float64(lines)/float64(b.N), "cone_lines/op")
		})
	}

	ref, err := tgraph.New(c, opts)
	if err != nil {
		b.Fatal(err)
	}
	if g.NumLines() != ref.NumLines() {
		b.Fatalf("line count %d, fresh build %d", g.NumLines(), ref.NumLines())
	}
	ref.Lines(func(net string, want twindow.LineInfo) {
		if got, _ := g.Line(net); got != want {
			b.Fatalf("net %q diverged after the swaps:\nincremental %+v\nfresh       %+v", net, got, want)
		}
	})
}
