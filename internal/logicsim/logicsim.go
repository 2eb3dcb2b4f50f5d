// Package logicsim implements two-pattern timing simulation ("TS" in the
// paper's taxonomy): given a fully specified vector pair at the primary
// inputs, it computes for every line the settled logic values of both
// time-frames and — for lines that switch — the transition's arrival time
// and transition time under a chosen delay model.
//
// The simulator uses the static two-frame semantics of the paper's test
// generation framework: each line carries at most one transition (hazards
// and glitches are outside the model, as they are for the paper's delay
// definitions). To-controlling responses use the simultaneous-switching
// model of package core; to-non-controlling responses use pin-to-pin delays
// combined with max, exactly matching the paper's gate delay definitions in
// Section 3.
//
// Timing simulation is the reference against which the STA windows are
// validated: every simulated arrival/transition must fall inside the
// corresponding STA window (tested in this package).
package logicsim

import (
	"fmt"

	"sstiming/internal/core"
	"sstiming/internal/engine"
	"sstiming/internal/netlist"
	"sstiming/internal/twindow"
)

// Vector assigns a logic value (0 or 1) to every primary input.
type Vector map[string]int

// Event is the timed transition on one line.
type Event struct {
	// Rising is the transition direction.
	Rising bool
	// Arrival is the 50% crossing time in seconds.
	Arrival float64
	// Trans is the 10%-90% transition time in seconds.
	Trans float64
}

// Options configures a simulation.
type Options struct {
	// Lib is the characterised cell library (required).
	Lib *core.Library
	// Mode selects the delay model.
	Mode twindow.Mode
	// PIArrival is the transition arrival applied at switching primary
	// inputs (default 0).
	PIArrival float64
	// PITrans is the input transition time (default 0.2 ns).
	PITrans float64
	// NCExtension enables the simultaneous to-non-controlling Λ-shape
	// model (the paper's Section 3.6 future work) for multi-input
	// to-non-controlling responses. Requires a library characterised
	// with charlib.Options.NCPairs.
	NCExtension bool
	// Metrics, when non-nil, counts gate evaluations.
	Metrics *engine.Metrics
}

// Result holds the simulation outcome by dense net ID (see netlist.Build
// for the numbering).
type Result struct {
	c *netlist.Circuit
	// V1 and V2 are the settled logic values of the two frames.
	V1, V2 []int8
	// Events holds each net's transition; it is meaningful only where
	// the net switches (V1 differs from V2).
	Events []Event
}

// Values returns the net's settled logic values in the two frames (zero
// for a net outside the circuit).
func (r *Result) Values(net string) (v1, v2 int) {
	id, ok := r.c.NetID(net)
	if !ok {
		return 0, 0
	}
	return int(r.V1[id]), int(r.V2[id])
}

// Event returns the net's transition and whether the net switches.
func (r *Result) Event(net string) (Event, bool) {
	id, ok := r.c.NetID(net)
	if !ok || r.V1[id] == r.V2[id] {
		return Event{}, false
	}
	return r.Events[id], true
}

// Simulate runs the two-pattern timing simulation.
func Simulate(c *netlist.Circuit, v1, v2 Vector, opts Options) (*Result, error) {
	return simulate(c, v1, v2, opts, -1, Event{})
}

// simulate is the forward pass: one walk of the topological order that
// evaluates both frames of each gate and, where the output switches, its
// event from the causal input events. When victim is a net ID, that net's
// event is replaced by vicEv before its fanout reads it; logic values are
// unaffected.
func simulate(c *netlist.Circuit, v1, v2 Vector, opts Options, victim int, vicEv Event) (*Result, error) {
	if opts.Lib == nil {
		return nil, fmt.Errorf("logicsim: Options.Lib is required")
	}
	if err := c.EnsureBuilt(); err != nil {
		return nil, fmt.Errorf("logicsim: %w", err)
	}
	piTrans := opts.PITrans
	if piTrans <= 0 {
		piTrans = 0.2e-9
	}

	n := c.NumNets()
	res := &Result{c: c, V1: make([]int8, n), V2: make([]int8, n), Events: make([]Event, n)}
	for id, pi := range c.PIs {
		a, ok1 := v1[pi]
		b, ok2 := v2[pi]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("logicsim: vector does not cover PI %q", pi)
		}
		if (a != 0 && a != 1) || (b != 0 && b != 1) {
			return nil, fmt.Errorf("logicsim: PI %q has non-binary value", pi)
		}
		res.V1[id], res.V2[id] = int8(a), int8(b)
		switch {
		case a == b:
		case id == victim:
			res.Events[id] = vicEv
		default:
			res.Events[id] = Event{Rising: b == 1, Arrival: opts.PIArrival, Trans: piTrans}
		}
	}

	// Scratch reused across gates: the two frames' input values and the
	// causal input events.
	var in1, in2 []int
	var causal []core.InputEvent
	nPI := len(c.PIs)
	for _, gi := range c.TopoOrder() {
		g := &c.Gates[gi]
		cell, ok := opts.Lib.Cell(g.CellName())
		if !ok {
			return nil, fmt.Errorf("logicsim: no library cell %q for gate %q", g.CellName(), g.Output)
		}
		opts.Metrics.Add(engine.SimGateEvals, 1)

		ins := c.GateInputIDs(gi)
		in1, in2 = in1[:0], in2[:0]
		for _, in := range ins {
			in1 = append(in1, int(res.V1[in]))
			in2 = append(in2, int(res.V2[in]))
		}
		o1, err := g.Kind.Eval(in1)
		if err != nil {
			return nil, fmt.Errorf("logicsim: gate %q: %w", g.Output, err)
		}
		o2, err := g.Kind.Eval(in2)
		if err != nil {
			return nil, fmt.Errorf("logicsim: gate %q: %w", g.Output, err)
		}
		id := nPI + gi
		res.V1[id], res.V2[id] = int8(o1), int8(o2)
		if o1 == o2 {
			continue
		}

		if id == victim {
			res.Events[id] = vicEv
			continue
		}
		// Under the static two-frame semantics every switching input is
		// causal: a NAND whose output rises had all inputs at 1 in frame
		// 1, so its switching inputs fall (to-controlling), and one whose
		// output falls has all inputs at 1 in frame 2, so they rise
		// (to-non-controlling); NOR is the dual. A rising NAND (or
		// inverter, buffer) output and a falling NOR output are the
		// to-controlling response.
		causal = causal[:0]
		for pin, in := range ins {
			if res.V1[in] != res.V2[in] {
				ev := res.Events[in]
				causal = append(causal, core.InputEvent{Pin: pin, Arrival: ev.Arrival, Trans: ev.Trans})
			}
		}
		rising := o2 == 1
		ctrl := rising != (g.Kind == netlist.Nor)
		extraLoad := float64(max(len(c.NetFanout(id)), 1)-1) * cell.RefLoad
		resp, err := response(cell, causal, ctrl, extraLoad, opts)
		if err != nil {
			return nil, fmt.Errorf("logicsim: gate %q: %w", g.Output, err)
		}
		res.Events[id] = Event{Rising: rising, Arrival: resp.Arrival, Trans: resp.Trans}
	}
	return res, nil
}

// response applies the delay model to a switching output's causal input
// events.
func response(cell *core.CellModel, events []core.InputEvent, ctrl bool, extraLoad float64, opts Options) (core.Response, error) {
	switch {
	case ctrl && opts.Mode == twindow.ModePinToPin:
		return cell.PinToPinCtrlResponse(events, extraLoad)
	case ctrl:
		return cell.CtrlResponse(events, extraLoad)
	case opts.NCExtension && opts.Mode != twindow.ModePinToPin:
		return cell.NonCtrlResponseExt(events, extraLoad)
	}
	return cell.NonCtrlResponse(events, extraLoad)
}

// RandomVector draws a uniformly random vector for the circuit's PIs using
// the given source function (e.g. rng.Intn).
func RandomVector(c *netlist.Circuit, intn func(int) int) Vector {
	v := make(Vector, len(c.PIs))
	for _, pi := range c.PIs {
		v[pi] = intn(2)
	}
	return v
}
