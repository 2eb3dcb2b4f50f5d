// Command ssta runs static timing analysis on a benchmark circuit (or a
// .bench netlist file) under both the pin-to-pin and the proposed
// simultaneous-switching delay models, and reports the per-model min/max
// delays at the primary outputs — the paper's Table 2 experiment for a
// single circuit.
//
// Usage:
//
//	ssta [-lib lib.json] [-bench c880 | -netlist file.bench] [-stats] [-windows]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sstiming/internal/benchgen"
	"sstiming/internal/engine"
	"sstiming/internal/netlist"
	"sstiming/internal/prechar"
	"sstiming/internal/sdf"
	"sstiming/internal/sta"
)

func main() {
	libPath := flag.String("lib", "", "characterised library JSON (default: embedded 0.5um library)")
	strictLib := flag.Bool("strict-lib", false, "refuse degraded or unverified libraries instead of using analytic fallbacks")
	bench := flag.String("bench", "c17", "benchmark name (c17, c432, c880, ...)")
	netFile := flag.String("netlist", "", ".bench netlist file (overrides -bench)")
	stats := flag.Bool("stats", false, "print execution statistics to stderr")
	windows := flag.Bool("windows", false, "print per-line timing windows")
	sdfOut := flag.String("sdf", "", "write the circuit's pin-to-pin delays to this SDF file")
	flag.Parse()

	var met *engine.Metrics
	if *stats {
		met = engine.NewMetrics()
		defer met.WriteText(os.Stderr)
	}

	lib, err := prechar.Load("ssta", *libPath, *strictLib, met)
	if err != nil {
		fail(err)
	}

	var c *netlist.Circuit
	if *netFile != "" {
		f, err := os.Open(*netFile)
		if err != nil {
			fail(err)
		}
		if strings.HasSuffix(*netFile, ".v") {
			c, err = netlist.ParseVerilog(*netFile, f)
		} else {
			c, err = netlist.Parse(*netFile, f)
		}
		f.Close()
		if err != nil {
			fail(err)
		}
	} else {
		c, err = benchgen.Load(*bench)
		if err != nil {
			fail(err)
		}
	}

	st := c.Stats()
	fmt.Printf("circuit %s: %d PIs, %d POs, %d gates, depth %d\n",
		st.Name, st.PIs, st.POs, st.Gates, st.Depth)

	results := map[sta.Mode]*sta.Result{}
	for _, mode := range []sta.Mode{sta.ModePinToPin, sta.ModeProposed} {
		res, err := sta.Analyze(c, sta.Options{Lib: lib, Mode: mode, Metrics: met})
		if err != nil {
			fail(err)
		}
		results[mode] = res
		fmt.Printf("%-11s min-delay %7.4f ns   max-delay %7.4f ns\n",
			mode, res.MinPOArrival()*1e9, res.MaxPOArrival()*1e9)
	}
	ratio := results[sta.ModePinToPin].MinPOArrival() / results[sta.ModeProposed].MinPOArrival()
	fmt.Printf("min-delay ratio (pin-to-pin / proposed): %.3f\n", ratio)

	if path, err := results[sta.ModeProposed].WorstPath(); err == nil {
		fmt.Printf("critical path: %s\n", sta.FormatPath(path))
	}

	if *sdfOut != "" {
		sf, err := sdf.FromLibrary(c, lib)
		if err != nil {
			fail(err)
		}
		out, err := os.Create(*sdfOut)
		if err != nil {
			fail(err)
		}
		if err := sf.Write(out); err != nil {
			out.Close()
			fail(err)
		}
		if err := out.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("wrote pin-to-pin delays to %s (the SDF subset cannot carry the simultaneous-switching surfaces)\n", *sdfOut)
	}

	if *windows {
		res := results[sta.ModeProposed]
		fmt.Println("\nper-line windows (proposed model, ns):")
		for _, net := range c.Nets() {
			lt := res.Lines[net]
			if lt == nil {
				continue
			}
			fmt.Printf("  %-12s rise A[%7.4f %7.4f] T[%7.4f %7.4f]  fall A[%7.4f %7.4f] T[%7.4f %7.4f]\n",
				net,
				lt.Rise.AS*1e9, lt.Rise.AL*1e9, lt.Rise.TS*1e9, lt.Rise.TL*1e9,
				lt.Fall.AS*1e9, lt.Fall.AL*1e9, lt.Fall.TS*1e9, lt.Fall.TL*1e9)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ssta:", err)
	os.Exit(1)
}
