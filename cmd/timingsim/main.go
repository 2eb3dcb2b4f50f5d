// Command timingsim runs two-pattern timing simulation on a benchmark
// circuit (or .bench netlist) and prints every line's transition, optionally
// with a crosstalk fault injected.
//
// Vectors are given as comma-separated pi=value assignments, e.g.
//
//	timingsim -bench c17 -v1 1=1,2=1,3=1,6=1,7=1 -v2 1=0,2=1,3=0,6=1,7=1
//
// Unassigned inputs default to 0. With -fault, the named aggressor/victim
// pair is injected: -fault aggR:victimF:window_ps:delta_ps.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sstiming/internal/benchgen"
	"sstiming/internal/engine"
	"sstiming/internal/logicsim"
	"sstiming/internal/netlist"
	"sstiming/internal/prechar"
	"sstiming/internal/twindow"
)

func main() {
	bench := flag.String("bench", "c17", "benchmark name")
	netFile := flag.String("netlist", "", ".bench netlist file (overrides -bench)")
	v1Str := flag.String("v1", "", "first frame PI assignments (pi=val,...)")
	v2Str := flag.String("v2", "", "second frame PI assignments (pi=val,...)")
	pinToPin := flag.Bool("pin2pin", false, "use the pin-to-pin delay model")
	faultStr := flag.String("fault", "", "inject crosstalk fault: agg<R|F>:victim<R|F>:window_ps:delta_ps")
	stats := flag.Bool("stats", false, "print execution statistics to stderr")
	flag.Parse()

	var met *engine.Metrics
	if *stats {
		met = engine.NewMetrics()
		defer met.WriteText(os.Stderr)
	}

	lib, err := prechar.Library()
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

	v1, err := parseVector(c, *v1Str)
	if err != nil {
		fail(err)
	}
	v2, err := parseVector(c, *v2Str)
	if err != nil {
		fail(err)
	}

	mode := twindow.ModeProposed
	if *pinToPin {
		mode = twindow.ModePinToPin
	}
	opts := logicsim.Options{Lib: lib, Mode: mode, Metrics: met}

	var res *logicsim.Result
	if *faultStr != "" {
		fi, err := parseFault(*faultStr)
		if err != nil {
			fail(err)
		}
		clean, faulty, excited, err := logicsim.SimulateFaulty(c, v1, v2, fi, opts)
		if err != nil {
			fail(err)
		}
		fmt.Printf("fault %s->%s excited: %v\n", fi.Aggressor, fi.Victim, excited)
		if excited {
			for _, po := range c.POs {
				fe, okF := faulty.Event(po)
				ce, okC := clean.Event(po)
				if okF && okC && fe.Arrival != ce.Arrival {
					fmt.Printf("  PO %s shifted by %.1f ps\n", po, (fe.Arrival-ce.Arrival)*1e12)
				}
			}
		}
		res = faulty
	} else {
		res, err = logicsim.Simulate(c, v1, v2, opts)
		if err != nil {
			fail(err)
		}
	}

	fmt.Printf("%-14s %-4s %-10s %-10s\n", "net", "v1v2", "arrival", "trans")
	for _, net := range c.Nets() {
		a, b := res.Values(net)
		if ev, switched := res.Event(net); switched {
			fmt.Printf("%-14s %d%d   %8.4fns %8.4fns\n", net, a, b, ev.Arrival*1e9, ev.Trans*1e9)
		} else {
			fmt.Printf("%-14s %d%d   %10s %10s\n", net, a, b, "-", "-")
		}
	}
}

func parseVector(c *netlist.Circuit, s string) (logicsim.Vector, error) {
	v := make(logicsim.Vector, len(c.PIs))
	for _, pi := range c.PIs {
		v[pi] = 0
	}
	if s == "" {
		return v, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("malformed assignment %q", part)
		}
		val, err := strconv.Atoi(kv[1])
		if err != nil || (val != 0 && val != 1) {
			return nil, fmt.Errorf("bad value in %q", part)
		}
		if _, ok := v[kv[0]]; !ok {
			return nil, fmt.Errorf("unknown primary input %q", kv[0])
		}
		v[kv[0]] = val
	}
	return v, nil
}

// parseFault parses "aggR:victimF:window_ps:delta_ps".
func parseFault(s string) (logicsim.FaultInjection, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 4 {
		return logicsim.FaultInjection{}, fmt.Errorf("fault spec needs agg<R|F>:victim<R|F>:window_ps:delta_ps")
	}
	net := func(p string) (string, bool, error) {
		if len(p) < 2 {
			return "", false, fmt.Errorf("bad fault endpoint %q", p)
		}
		dir := p[len(p)-1]
		if dir != 'R' && dir != 'F' {
			return "", false, fmt.Errorf("fault endpoint %q must end in R or F", p)
		}
		return p[:len(p)-1], dir == 'R', nil
	}
	agg, aggR, err := net(parts[0])
	if err != nil {
		return logicsim.FaultInjection{}, err
	}
	vic, vicR, err := net(parts[1])
	if err != nil {
		return logicsim.FaultInjection{}, err
	}
	win, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return logicsim.FaultInjection{}, fmt.Errorf("bad window %q", parts[2])
	}
	delta, err := strconv.ParseFloat(parts[3], 64)
	if err != nil {
		return logicsim.FaultInjection{}, fmt.Errorf("bad delta %q", parts[3])
	}
	return logicsim.FaultInjection{
		Aggressor: agg, Victim: vic,
		AggRising: aggR, VicRising: vicR,
		Window: win * 1e-12, ExtraDelay: delta * 1e-12,
	}, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "timingsim:", err)
	os.Exit(1)
}
