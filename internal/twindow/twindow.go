// Package twindow holds the min-max timing-window types and the per-gate
// worst-case window propagation (the paper's Sections 4.2 and 5.2) shared
// by static timing analysis and incremental timing refinement (package sta)
// and the persistent timing graph (package tgraph). It gathers each gate's
// candidate inputs and combines their single-input bounds; the Figure 8
// corner rules over pairs of them are core's (EarliestCtrl, LatestNonCtrl,
// FastestCtrl).
//
// Historically sta and itr each carried a private copy of the per-gate
// propagation rules; the incremental-timing refactor moved the single source
// of truth here so that a full analysis, a from-scratch refinement and an
// incremental dirty-cone re-convergence all evaluate byte-identical
// floating-point expressions per gate. Any change to a corner rule now
// changes every consumer at once — there is no second copy to drift.
//
// The unit of work is PropagateGate: given the already-settled LineInfos of
// a gate's inputs, the gate's implied nine-valued output value and the cell
// model, it computes the output LineInfo. Pure STA is the special case in
// which every line carries the unspecified value xx (every transition state
// is SMaybe), exactly as the paper defines STA as the S_tr = 0 special case
// of ITR.
//
// The backward pass (Snapshot: required times and violation checks) follows
// the same rule: one state-aware traversal over net IDs serves both STA and
// ITR. A Snapshot holds the settled lines and the timing graph's per-gate
// binding (kind, cell, fan-out load), so the pass looks nothing up by name;
// STA's snapshot carries all-SMaybe lines.
package twindow

import (
	"fmt"
	"math"

	"sstiming/internal/core"
	"sstiming/internal/netlist"
	"sstiming/internal/nineval"
)

// Mode selects the delay model used by window propagation.
type Mode int

const (
	// ModeProposed uses the paper's simultaneous-switching model.
	ModeProposed Mode = iota
	// ModePinToPin uses the conventional pin-to-pin model.
	ModePinToPin
)

// String names the mode.
func (m Mode) String() string {
	if m == ModePinToPin {
		return "pin-to-pin"
	}
	return "proposed"
}

// Window is the per-direction timing window of one line: earliest/latest
// arrival and shortest/longest transition time, in seconds (Figure 7).
type Window struct {
	AS, AL float64 // arrival: smallest, largest
	TS, TL float64 // transition time: smallest, largest
}

// Valid reports structural sanity (AS <= AL, TS <= TL).
func (w Window) Valid() bool {
	return w.AS <= w.AL+1e-15 && w.TS <= w.TL+1e-15 && w.TS >= 0
}

// PITiming describes the assumed stimulus at primary inputs.
type PITiming struct {
	ArrivalEarly, ArrivalLate float64
	TransShort, TransLong     float64
}

// DefaultPITiming is the default stimulus: transitions released at t = 0
// with a 0.2 ns input ramp.
func DefaultPITiming() PITiming {
	return PITiming{ArrivalEarly: 0, ArrivalLate: 0, TransShort: 0.2e-9, TransLong: 0.2e-9}
}

// Window returns the stimulus as a timing window.
func (p PITiming) Window() Window {
	return Window{AS: p.ArrivalEarly, AL: p.ArrivalLate, TS: p.TransShort, TL: p.TransLong}
}

// LineInfo is the full timing state of one line: the implied nine-valued
// value, the derived transition states, and the directional windows (valid
// only when the corresponding state is not SNo).
type LineInfo struct {
	// Value is the implied nine-valued logic value.
	Value nineval.Value
	// SRise and SFall are the transition states.
	SRise, SFall nineval.State
	// Rise and Fall are the windows; valid only when the corresponding
	// state is not SNo (HasRise/HasFall).
	Rise, Fall Window
}

// HasRise reports whether the rise window is defined.
func (li *LineInfo) HasRise() bool { return li.SRise != nineval.SNo }

// HasFall reports whether the fall window is defined.
func (li *LineInfo) HasFall() bool { return li.SFall != nineval.SNo }

// PILine builds the LineInfo of a primary input from its stimulus and
// implied value.
func PILine(v nineval.Value, p PITiming) LineInfo {
	w := p.Window()
	return LineInfo{Value: v, SRise: v.StateRise(), SFall: v.StateFall(), Rise: w, Fall: w}
}

// PropagateGate computes one gate's output LineInfo from the already-settled
// LineInfos of its inputs under the implied output value outV. It is a pure
// function of its arguments — the invariant the incremental timing graph's
// byte-identical-to-full-recompute guarantee rests on. It walks the gate
// kind's Arcs in order (the to-controlling arc first) and skips an output
// direction whose transition is impossible.
func PropagateGate(cell *core.CellModel, kind netlist.GateKind, ins []*LineInfo, outV nineval.Value, extraLoad float64, mode Mode, ncExt bool) (LineInfo, error) {
	arcs := Arcs(kind)
	if arcs == nil {
		return LineInfo{}, fmt.Errorf("unsupported gate kind %v", kind)
	}
	li := LineInfo{Value: outV, SRise: outV.StateRise(), SFall: outV.StateFall()}
	single := kind == netlist.Inv || kind == netlist.Buf
	for _, a := range arcs {
		if s, _ := li.dir(a.OutRise); s == nineval.SNo {
			continue
		}
		out := &li.Fall
		if a.OutRise {
			out = &li.Rise
		}
		var err error
		switch {
		case single:
			*out, err = propagateSingle(cell, ins[0], a, extraLoad)
		case a.Ctrl:
			*out, err = propagateCtrl(cell, ins, a.InRise, extraLoad, mode)
		default:
			*out, err = propagateNonCtrl(cell, ins, a.InRise, extraLoad, mode, ncExt)
		}
		if err != nil {
			return LineInfo{}, err
		}
	}
	return li, nil
}

// propagateSingle handles the one-input cells (INV, and BUF on the
// inverter's timing) along arc a.
func propagateSingle(cell *core.CellModel, in *LineInfo, a Arc, extraLoad float64) (Window, error) {
	inState, w := in.dir(a.InRise)
	if inState == nineval.SNo {
		return Window{}, fmt.Errorf("output may transition but input cannot (state inconsistency)")
	}
	p := &arcPins(cell, a)[0]
	loadD := p.DelayLoadSlope * extraLoad
	loadT := p.TransLoadSlope * extraLoad
	dMin, dMax, tMin, tMax := p.Range(w.TS, w.TL)
	// Arrival plus delay, then load, unlike collect, which adds the load
	// to the delay first; the goldens pin each association bit for bit.
	return Window{
		AS: w.AS + dMin + loadD,
		AL: w.AL + dMax + loadD,
		TS: tMin + loadT,
		TL: tMax + loadT,
	}, nil
}

// maxPins is the widest cell whose candidate inputs collect gathers in a
// caller-owned array (the library's cells have at most four inputs); wider
// cells spill to the heap through append.
const maxPins = 4

// collect returns the inputs whose transition in the given direction is not
// ruled out, with their windows and their bounds on pins at extraLoad, in
// buf's storage. delayOnly leaves out the transition-time bounds, which
// the backward pass does not read.
func collect(buf *[maxPins]core.Candidate, ins []*LineInfo, rising bool, pins []core.PinTiming, extraLoad float64, delayOnly bool) []core.Candidate {
	out := buf[:0]
	for i, li := range ins {
		s, w := li.dir(rising)
		if s == nineval.SNo {
			continue
		}
		// Filled in place: a Candidate built and then appended was copied
		// through memory.
		out = append(out, core.Candidate{})
		c := &out[len(out)-1]
		c.Pin, c.Definite = i, s == nineval.SYes
		c.AS, c.AL, c.TS, c.TL = w.AS, w.AL, w.TS, w.TL
		if delayOnly {
			pins[i].DelayBounds(&c.PinBounds, w.TS, w.TL, extraLoad)
		} else {
			pins[i].Bounds(&c.PinBounds, w.TS, w.TL, extraLoad)
		}
	}
	return out
}

// anyDefinite reports whether some candidate input definitely transitions.
func anyDefinite(allowed []core.Candidate) bool {
	for i := range allowed {
		if allowed[i].Definite {
			return true
		}
	}
	return false
}

// propagateCtrl computes the to-controlling output window (rising for NAND,
// falling for NOR) under transition states, per Sections 4.2 and 5.2.
// ctrlRising is the direction of the input transitions (falling for NAND,
// rising for NOR). Pure STA is the all-SMaybe special case.
func propagateCtrl(cell *core.CellModel, ins []*LineInfo, ctrlRising bool, extraLoad float64, mode Mode) (Window, error) {
	var buf [maxPins]core.Candidate
	allowed := collect(&buf, ins, ctrlRising, cell.CtrlPins, extraLoad, false)
	if len(allowed) == 0 {
		return Window{}, fmt.Errorf("to-controlling response possible but no input can transition")
	}

	var out Window
	out.AS = math.Inf(1)
	out.TS = math.Inf(1)
	out.TL = math.Inf(-1)

	// Latest arrival (Table 1's A..L rules): definite switchers bound how
	// late the output can switch — take the min over their worst-case
	// corners; with no definite switcher, the slowest potential single
	// switcher is the bound.
	if anyDefinite(allowed) {
		out.AL = math.Inf(1)
		for i := range allowed {
			a := &allowed[i]
			if v := a.AL + a.DMax; a.Definite && v < out.AL {
				out.AL = v
			}
		}
	} else {
		out.AL = math.Inf(-1)
		for i := range allowed {
			a := &allowed[i]
			if v := a.AL + a.DMax; v > out.AL {
				out.AL = v
			}
		}
	}

	// Earliest arrival and transition bounds over the allowed set
	// (single-input candidates; what remains in pin-to-pin mode).
	for i := range allowed {
		a := &allowed[i]
		if v := a.AS + a.DMin; v < out.AS {
			out.AS = v
		}
		if a.TMin < out.TS {
			out.TS = a.TMin
		}
		if a.TMax > out.TL {
			out.TL = a.TMax
		}
	}

	if mode == ModeProposed && len(allowed) >= 2 {
		// Pairwise simultaneous switching lowers the earliest arrival and
		// the shortest transition (Fig. 8's A_R,S and T_R,S rules).
		out.AS, out.TS = cell.EarliestCtrl(allowed, out.AS, out.TS)
	}
	return out, nil
}

// propagateNonCtrl computes the to-non-controlling output window (falling
// for NAND, rising for NOR) under transition states. ncRising is the
// direction of the input transitions (rising for NAND, falling for NOR).
// The earliest arrival combines with max over definite switchers (they all
// must complete before the output can respond) and min otherwise; with the
// NC extension, pairs of inputs that can both transition widen the latest
// corners through the Λ-shape surfaces.
func propagateNonCtrl(cell *core.CellModel, ins []*LineInfo, ncRising bool, extraLoad float64, mode Mode, ncExt bool) (Window, error) {
	var buf [maxPins]core.Candidate
	allowed := collect(&buf, ins, ncRising, cell.NonCtrlPins, extraLoad, false)
	if len(allowed) == 0 {
		return Window{}, fmt.Errorf("to-non-controlling response possible but no input can transition")
	}

	var out Window
	out.AL = math.Inf(-1)
	out.TS = math.Inf(1)
	out.TL = math.Inf(-1)

	// Earliest arrival: every definite switcher must complete (max over
	// them at their earliest corners); with no definite switcher, the
	// fastest single suffices.
	if anyDefinite(allowed) {
		out.AS = math.Inf(-1)
		for i := range allowed {
			a := &allowed[i]
			if v := a.AS + a.DMin; a.Definite && v > out.AS {
				out.AS = v
			}
		}
	} else {
		out.AS = math.Inf(1)
		for i := range allowed {
			a := &allowed[i]
			if v := a.AS + a.DMin; v < out.AS {
				out.AS = v
			}
		}
	}

	for i := range allowed {
		a := &allowed[i]
		if v := a.AL + a.DMax; v > out.AL {
			out.AL = v
		}
		if a.TMin < out.TS {
			out.TS = a.TMin
		}
		if a.TMax > out.TL {
			out.TL = a.TMax
		}
	}

	if ncExt && mode == ModeProposed && len(allowed) >= 2 {
		// Worst-case simultaneous to-non-controlling corners through the
		// Λ-shape surfaces.
		out.AL, out.TL = cell.LatestNonCtrl(allowed, out.AL, out.TL)
	}
	return out, nil
}
