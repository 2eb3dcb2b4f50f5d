// Package flatsim flattens a gate-level circuit into a single
// transistor-level netlist and simulates it end to end with the spice
// engine — the reproduction's strongest cross-validation: for small
// circuits (c17-scale) the entire design runs at transistor level, and the
// gate-level event model (package logicsim) and the STA windows are checked
// against it.
//
// The dense MNA solver limits the flattened size to a few dozen nodes;
// that is exactly the regime the paper's accuracy experiments operate in.
package flatsim

import (
	"context"
	"errors"
	"fmt"

	"sstiming/internal/device"
	"sstiming/internal/engine"
	"sstiming/internal/logicsim"
	"sstiming/internal/netlist"
	"sstiming/internal/spice"
	"sstiming/internal/waveform"
)

// MaxNodes bounds the flattened circuit size (dense-solver regime).
const MaxNodes = 120

// ErrTooLarge reports a circuit whose flattened transistor netlist exceeds
// MaxNodes. It is returned wrapped with the actual node count, so callers
// that fall back to gate-level-only verification (e.g. the conformance
// campaigns) test for it with errors.Is.
var ErrTooLarge = errors.New("flattened circuit exceeds the dense-solver node limit")

// Options configures a flattened simulation.
type Options struct {
	// Tech is the process technology; nil selects device.Default05um.
	Tech *device.Tech
	// PIArrival is the input transition arrival time; zero selects 1 ns.
	PIArrival float64
	// PITrans is the input 10%-90% transition time; zero selects 0.2 ns.
	PITrans float64
	// TStop is the simulation end; zero derives it from circuit depth.
	TStop float64
	// TStep is the integration step; zero selects 2 ps.
	TStep float64
	// Ctx, when non-nil, cancels the underlying transient analysis.
	Ctx context.Context
	// FaultHook, when non-nil, injects deterministic solver faults for
	// chaos testing (see internal/faultinject).
	FaultHook spice.FaultHook
	// Metrics, when non-nil, receives the simulator effort counters.
	Metrics *engine.Metrics
}

// Event is a measured transition on one net.
type Event struct {
	Rising  bool
	Arrival float64
	Trans   float64
}

// Result holds the flattened simulation outcome.
type Result struct {
	// V1 and V2 are the expected logic values (from gate-level
	// evaluation); the analogue simulation is checked against V2.
	V1, V2 map[string]int
	// Events holds the measured transition of every switching net.
	Events map[string]Event
}

// Simulate flattens the circuit and runs the transistor-level transient.
// A cancelled context returns an error wrapping engine.ErrCancelled — checked
// up front here and per time point inside the solver's Newton loop.
func Simulate(c *netlist.Circuit, v1, v2 logicsim.Vector, opts Options) (*Result, error) {
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return nil, fmt.Errorf("flatsim: %w", engine.Cancelled(err))
		}
	}
	tech := opts.Tech
	if tech == nil {
		tech = device.Default05um()
	}
	arrival := opts.PIArrival
	if arrival <= 0 {
		arrival = 1e-9
	}
	trans := opts.PITrans
	if trans <= 0 {
		trans = 0.2e-9
	}
	tstep := opts.TStep
	if tstep <= 0 {
		tstep = 2e-12
	}

	// Expected logic values per frame (gate-level golden reference).
	expV1, err := evalFrame(c, v1)
	if err != nil {
		return nil, err
	}
	expV2, err := evalFrame(c, v2)
	if err != nil {
		return nil, err
	}

	ckt := spice.NewCircuit()
	vdd := ckt.Node("vdd")
	ckt.AddDC(vdd, tech.Vdd)

	// Primary input sources.
	for _, pi := range c.PIs {
		n := ckt.Node(pi)
		a, b := v1[pi], v2[pi]
		switch {
		case a == b:
			ckt.AddVSource(n, 0, waveform.Step(float64(a)*tech.Vdd))
		case b == 1:
			ckt.AddVSource(n, 0, waveform.Ramp(0, tech.Vdd, arrival, trans))
		default:
			ckt.AddVSource(n, 0, waveform.Ramp(tech.Vdd, 0, arrival, trans))
		}
	}

	nmos := &tech.NMOS
	pmos := &tech.PMOS
	ngeo := tech.MinGeom(device.NMOS)
	pgeo := tech.MinGeom(device.PMOS)

	addMOS := func(d, g, s int, p *device.MOSParams, geo device.Geometry) {
		ckt.AddMOSFET(d, g, s, p, geo)
		if d != vdd && d != 0 {
			ckt.AddCap(d, 0, p.DiffCap(geo))
			ckt.AddCap(g, d, p.OverlapCap(geo))
		}
		if s != vdd && s != 0 {
			ckt.AddCap(s, 0, p.DiffCap(geo))
			ckt.AddCap(g, s, p.OverlapCap(geo))
		}
	}
	// Gate-input capacitance at each driven net (replaces the load
	// inverter of the characterisation testbench: here the real fanout
	// transistors provide it via their gate caps).
	addGateCap := func(n int, p *device.MOSParams, geo device.Geometry) {
		ckt.AddCap(n, 0, p.CoxArea*geo.W*geo.L)
	}

	for gi := range c.Gates {
		g := &c.Gates[gi]
		out := ckt.Node(g.Output)
		switch g.Kind {
		case netlist.Inv:
			in := ckt.Node(g.Inputs[0])
			addMOS(out, in, vdd, pmos, pgeo)
			addMOS(out, in, 0, nmos, ngeo)
			addGateCap(in, pmos, pgeo)
			addGateCap(in, nmos, ngeo)
		case netlist.Buf:
			in := ckt.Node(g.Inputs[0])
			mid := ckt.Node(g.Output + "~mid")
			addMOS(mid, in, vdd, pmos, pgeo)
			addMOS(mid, in, 0, nmos, ngeo)
			addMOS(out, mid, vdd, pmos, pgeo)
			addMOS(out, mid, 0, nmos, ngeo)
			addGateCap(in, pmos, pgeo)
			addGateCap(in, nmos, ngeo)
			addGateCap(mid, pmos, pgeo)
			addGateCap(mid, nmos, ngeo)
		case netlist.Nand:
			n := len(g.Inputs)
			for i := 0; i < n; i++ {
				in := ckt.Node(g.Inputs[i])
				addMOS(out, in, vdd, pmos, pgeo)
				addGateCap(in, pmos, pgeo)
				addGateCap(in, nmos, ngeo)
			}
			prev := out
			for i := 0; i < n; i++ {
				in := ckt.Node(g.Inputs[i])
				var next int
				if i == n-1 {
					next = 0
				} else {
					next = ckt.Node(fmt.Sprintf("%s~n%d", g.Output, i))
				}
				addMOS(prev, in, next, nmos, ngeo)
				prev = next
			}
		case netlist.Nor:
			n := len(g.Inputs)
			for i := 0; i < n; i++ {
				in := ckt.Node(g.Inputs[i])
				addMOS(out, in, 0, nmos, ngeo)
				addGateCap(in, pmos, pgeo)
				addGateCap(in, nmos, ngeo)
			}
			prev := out
			for i := 0; i < n; i++ {
				in := ckt.Node(g.Inputs[i])
				var next int
				if i == n-1 {
					next = vdd
				} else {
					next = ckt.Node(fmt.Sprintf("%s~p%d", g.Output, i))
				}
				addMOS(prev, in, next, pmos, pgeo)
				prev = next
			}
		default:
			return nil, fmt.Errorf("flatsim: unsupported gate kind %v", g.Kind)
		}
		// Wire/output load at each PO-ish dangling net.
		ckt.AddCap(out, 0, 2e-15)
	}

	if nn := ckt.NumNodes(); nn > MaxNodes {
		return nil, fmt.Errorf("flatsim: %s: flattened circuit has %d nodes, limit %d: %w", c.Name, nn, MaxNodes, ErrTooLarge)
	}

	tstop := opts.TStop
	if tstop <= 0 {
		tstop = arrival + trans + 1.5e-9*float64(c.Depth()+1)
	}
	record := make([]string, 0, len(c.PIs)+len(c.Gates))
	record = append(record, c.PIs...)
	for gi := range c.Gates {
		record = append(record, c.Gates[gi].Output)
	}
	res, err := ckt.Transient(spice.TransientOpts{
		TStop:     tstop,
		TStep:     tstep,
		Record:    record,
		Ctx:       opts.Ctx,
		FaultHook: opts.FaultHook,
		Metrics:   opts.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("flatsim: %w", err)
	}

	out := &Result{V1: expV1, V2: expV2, Events: make(map[string]Event)}
	for _, net := range record {
		a, b := expV1[net], expV2[net]
		w := res.Wave(net)
		// Check the final analogue level against the expected frame-2
		// logic value.
		final := w.Final()
		if b == 1 && final < 0.9*tech.Vdd || b == 0 && final > 0.1*tech.Vdd {
			return nil, fmt.Errorf("flatsim: net %s settles at %.3f V, expected logic %d", net, final, b)
		}
		if a == b {
			continue
		}
		tr, err := w.MeasureTransition(tech.Vdd, b == 1)
		if err != nil {
			return nil, fmt.Errorf("flatsim: net %s: %w", net, err)
		}
		out.Events[net] = Event{Rising: b == 1, Arrival: tr.Arrival, Trans: tr.TransTime}
	}
	return out, nil
}

// evalFrame computes the gate-level logic values of one frame.
func evalFrame(c *netlist.Circuit, v logicsim.Vector) (map[string]int, error) {
	vals := make(map[string]int, len(c.PIs)+len(c.Gates))
	for _, pi := range c.PIs {
		val, ok := v[pi]
		if !ok {
			return nil, fmt.Errorf("flatsim: vector does not cover PI %q", pi)
		}
		if val != 0 && val != 1 {
			return nil, fmt.Errorf("flatsim: PI %q has non-binary value %d", pi, val)
		}
		vals[pi] = val
	}
	for _, gi := range c.TopoOrder() {
		g := &c.Gates[gi]
		in := make([]int, len(g.Inputs))
		for i, n := range g.Inputs {
			in[i] = vals[n]
		}
		v, err := g.Kind.Eval(in)
		if err != nil {
			return nil, fmt.Errorf("flatsim: gate %q: %w", g.Output, err)
		}
		vals[g.Output] = v
	}
	return vals, nil
}
