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
	"context"
	"fmt"

	"sstiming/internal/core"
	"sstiming/internal/engine"
	"sstiming/internal/netlist"
)

// Mode selects the delay model.
type Mode int

const (
	// ModeProposed uses the simultaneous-switching model.
	ModeProposed Mode = iota
	// ModePinToPin ignores simultaneous switching (earliest controlling
	// input wins alone).
	ModePinToPin
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
	Mode Mode
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
	// Ctx, when non-nil, cancels the simulation between logic levels.
	Ctx context.Context
	// Jobs bounds the engine worker pool used to evaluate the gates of
	// one logic level concurrently; zero or one runs serially. Results
	// are independent of the worker count.
	Jobs int
	// Metrics, when non-nil, counts gate evaluations.
	Metrics *engine.Metrics
}

// Result holds the simulation outcome.
type Result struct {
	// V1 and V2 are the settled logic values of the two frames for every
	// net.
	V1, V2 map[string]int
	// Events maps each switching net to its transition.
	Events map[string]Event
}

// Simulate runs the two-pattern timing simulation.
func Simulate(c *netlist.Circuit, v1, v2 Vector, opts Options) (*Result, error) {
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

	res := &Result{
		V1:     make(map[string]int),
		V2:     make(map[string]int),
		Events: make(map[string]Event),
	}

	for _, pi := range c.PIs {
		a, ok1 := v1[pi]
		b, ok2 := v2[pi]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("logicsim: vector does not cover PI %q", pi)
		}
		if (a != 0 && a != 1) || (b != 0 && b != 1) {
			return nil, fmt.Errorf("logicsim: PI %q has non-binary value", pi)
		}
		res.V1[pi] = a
		res.V2[pi] = b
		if a != b {
			res.Events[pi] = Event{Rising: b == 1, Arrival: opts.PIArrival, Trans: piTrans}
		}
	}

	// gateOut is one gate's evaluation result, staged per level so gates
	// of the same logic level can run on the engine pool: within a level
	// every gate reads only earlier levels' maps, and the writes are
	// merged serially afterwards in topological order — identical to the
	// serial schedule.
	type gateOut struct {
		o1, o2   int
		ev       Event
		switched bool
	}
	evalGate := func(gi int) (gateOut, error) {
		g := &c.Gates[gi]
		cell, ok := opts.Lib.Cell(g.CellName())
		if !ok {
			return gateOut{}, fmt.Errorf("logicsim: no library cell %q for gate %q", g.CellName(), g.Output)
		}
		opts.Metrics.Add(engine.SimGateEvals, 1)

		in1 := make([]int, len(g.Inputs))
		in2 := make([]int, len(g.Inputs))
		for i, in := range g.Inputs {
			in1[i] = res.V1[in]
			in2[i] = res.V2[in]
		}
		o1, err := g.Kind.Eval(in1)
		if err != nil {
			return gateOut{}, fmt.Errorf("logicsim: gate %q: %w", g.Output, err)
		}
		o2, err := g.Kind.Eval(in2)
		if err != nil {
			return gateOut{}, fmt.Errorf("logicsim: gate %q: %w", g.Output, err)
		}
		out := gateOut{o1: o1, o2: o2}
		if o1 == o2 {
			return out, nil
		}

		extraLoad := float64(c.FanoutCount(g.Output)-1) * cell.RefLoad
		ev, err := gateEvent(c, g, cell, res, o2 == 1, extraLoad, opts.Mode, opts.NCExtension)
		if err != nil {
			return gateOut{}, err
		}
		out.ev, out.switched = ev, true
		return out, nil
	}

	for _, lv := range levelGroups(c) {
		if err := ctxErr(opts.Ctx); err != nil {
			return nil, fmt.Errorf("logicsim: %w", err)
		}
		outs := make([]gateOut, len(lv))
		if opts.Jobs <= 1 || len(lv) == 1 {
			for i, gi := range lv {
				var err error
				if outs[i], err = evalGate(gi); err != nil {
					return nil, err
				}
			}
		} else {
			err := engine.Run(opts.Ctx, opts.Jobs, len(lv), func(_ context.Context, i int) error {
				var err error
				outs[i], err = evalGate(lv[i])
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		for i, gi := range lv {
			g := &c.Gates[gi]
			res.V1[g.Output] = outs[i].o1
			res.V2[g.Output] = outs[i].o2
			if outs[i].switched {
				res.Events[g.Output] = outs[i].ev
			}
		}
	}
	return res, nil
}

// levelGroups buckets the topological order by logic level; gates within
// one bucket are mutually independent.
func levelGroups(c *netlist.Circuit) [][]int {
	var groups [][]int
	for _, gi := range c.TopoOrder() {
		lvl := c.Level(gi)
		for len(groups) <= lvl {
			groups = append(groups, nil)
		}
		groups[lvl] = append(groups[lvl], gi)
	}
	return groups
}

// ctxErr reports a nil-safe context error.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// gateEvent computes the output transition of a switching gate from its
// switching inputs' events.
func gateEvent(c *netlist.Circuit, g *netlist.Gate, cell *core.CellModel, res *Result, outRising bool, extraLoad float64, mode Mode, ncExt bool) (Event, error) {
	// Determine which response this is and collect the causal input
	// events.
	var ctrl bool
	switch g.Kind {
	case netlist.Inv:
		ctrl = outRising // falling input -> rising output is the "ctrl" table
	case netlist.Buf:
		ctrl = outRising
	case netlist.Nand:
		ctrl = outRising
	case netlist.Nor:
		ctrl = !outRising
	}

	var events []core.InputEvent
	for i, in := range g.Inputs {
		ev, switched := res.Events[in]
		if !switched {
			continue
		}
		if g.Kind == netlist.Nand || g.Kind == netlist.Nor {
			// Only transitions in the causal direction matter:
			// to-controlling for the ctrl response (falling for
			// NAND), to-non-controlling otherwise.
			cv := g.Kind.ControllingValue()
			toCtrl := (cv == 0 && !ev.Rising) || (cv == 1 && ev.Rising)
			if ctrl != toCtrl {
				continue
			}
		}
		events = append(events, core.InputEvent{Pin: i, Arrival: ev.Arrival, Trans: ev.Trans})
	}
	if len(events) == 0 {
		return Event{}, fmt.Errorf("logicsim: gate %q output switches with no causal input event", g.Output)
	}

	var resp core.Response
	var err error
	if ctrl {
		if mode == ModePinToPin {
			resp, err = pinToPinCtrl(cell, events, extraLoad)
		} else {
			resp, err = cell.CtrlResponse(events, extraLoad)
		}
	} else if ncExt && mode != ModePinToPin {
		resp, err = cell.NonCtrlResponseExt(events, extraLoad)
	} else {
		resp, err = cell.NonCtrlResponse(events, extraLoad)
	}
	if err != nil {
		return Event{}, fmt.Errorf("logicsim: gate %q: %w", g.Output, err)
	}
	return Event{Rising: outRising, Arrival: resp.Arrival, Trans: resp.Trans}, nil
}

// pinToPinCtrl is the pin-to-pin to-controlling response: the earliest
// single-input candidate wins; simultaneous switching is ignored.
func pinToPinCtrl(cell *core.CellModel, events []core.InputEvent, extraLoad float64) (core.Response, error) {
	var out core.Response
	first := true
	for _, e := range events {
		if e.Pin < 0 || e.Pin >= cell.N {
			return core.Response{}, fmt.Errorf("invalid pin %d", e.Pin)
		}
		arr := e.Arrival + cell.CtrlPins[e.Pin].DelayAt(e.Trans, extraLoad)
		tr := cell.CtrlPins[e.Pin].TransAt(e.Trans, extraLoad)
		if first || arr < out.Arrival {
			out.Arrival = arr
			out.Trans = tr
			first = false
		}
	}
	return out, nil
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
