// Package twindow holds the min-max timing-window types and the worst-case
// corner-identification arithmetic (the paper's Sections 4.2 and 5.2) shared
// by static timing analysis and incremental timing refinement (package sta)
// and the persistent timing graph (package tgraph).
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

// ctrlInput captures one input that can make a transition in the direction
// under consideration, with its single-input (pin-to-pin) delay and output
// transition bounds over its transition-time range, load included. ts and
// tl are w.TS and w.TL as the pair evaluators take them; collect leaves
// their cube roots out, and rootTrans takes them once per gate evaluation
// where a pair surface reads them.
type ctrlInput struct {
	pin                    int
	w                      Window
	definite               bool
	dMin, dMax, tMin, tMax float64
	ts, tl                 core.Rooted
}

// maxPins is the widest cell whose candidate inputs collect gathers in a
// caller-owned array (the library's cells have at most four inputs); wider
// cells spill to the heap through append.
const maxPins = 4

// collect returns the inputs whose transition in the given direction is not
// ruled out, with their windows and their bounds on pins at extraLoad, in
// buf's storage.
func collect(buf *[maxPins]ctrlInput, ins []*LineInfo, rising bool, pins []core.PinTiming, extraLoad float64) []ctrlInput {
	out := buf[:0]
	for i, li := range ins {
		s, w := li.dir(rising)
		if s == nineval.SNo {
			continue
		}
		p := &pins[i]
		loadD := p.DelayLoadSlope * extraLoad
		loadT := p.TransLoadSlope * extraLoad
		dMin, dMax, tMin, tMax := p.Range(w.TS, w.TL)
		out = append(out, ctrlInput{
			pin: i, w: w, definite: s == nineval.SYes,
			dMin: dMin + loadD, dMax: dMax + loadD, tMin: tMin + loadT, tMax: tMax + loadT,
			ts: core.Rooted{Sec: w.TS}, tl: core.Rooted{Sec: w.TL},
		})
	}
	return out
}

// rootTrans takes the cube roots of the candidates' shortest transition
// times, and of their longest too when tl is set. Only pair surfaces read
// them, so callers root only for a cell that has those surfaces; without
// them (NAND4) every pair evaluation is the pin-to-pin step.
func rootTrans(allowed []ctrlInput, tl bool) {
	for i := range allowed {
		a := &allowed[i]
		a.ts = core.Root(a.w.TS)
		if tl {
			a.tl = core.Root(a.w.TL)
		}
	}
}

// anyDefinite reports whether some candidate input definitely transitions.
func anyDefinite(allowed []ctrlInput) bool {
	for i := range allowed {
		if allowed[i].definite {
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
	var buf [maxPins]ctrlInput
	allowed := collect(&buf, ins, ctrlRising, cell.CtrlPins, extraLoad)
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
			if v := a.w.AL + a.dMax; a.definite && v < out.AL {
				out.AL = v
			}
		}
	} else {
		out.AL = math.Inf(-1)
		for i := range allowed {
			a := &allowed[i]
			if v := a.w.AL + a.dMax; v > out.AL {
				out.AL = v
			}
		}
	}

	// Earliest arrival and transition bounds over the allowed set
	// (single-input candidates; what remains in pin-to-pin mode).
	for i := range allowed {
		a := &allowed[i]
		if v := a.w.AS + a.dMin; v < out.AS {
			out.AS = v
		}
		if a.tMin < out.TS {
			out.TS = a.tMin
		}
		if a.tMax > out.TL {
			out.TL = a.tMax
		}
	}

	if mode == ModeProposed && len(allowed) >= 2 {
		// Earliest arrival: pairwise simultaneous switching at the
		// earliest-arrival skew, minimised over the four transition-time
		// corners (Fig. 8's A_R,S rule). With three or more inputs all
		// potentially switching δ-simultaneously, the extended model's
		// n-way speed-up factor lower-bounds the delay further.
		multi := 1.0
		if k := len(allowed); k >= 3 && len(cell.MultiFactor) >= k-2 {
			if f := cell.MultiFactor[k-3]; f > 0 && f < 1 {
				multi = f
			}
		}
		if len(cell.Pairs) > 0 {
			rootTrans(allowed, true)
		}
		for i := range allowed {
			ax := &allowed[i]
			for j := range allowed {
				if i == j {
					continue
				}
				ay := &allowed[j]
				skew := ay.w.AS - ax.w.AS
				base := math.Min(ax.w.AS, ay.w.AS)
				for _, tx := range [2]core.Rooted{ax.ts, ax.tl} {
					for _, ty := range [2]core.Rooted{ay.ts, ay.tl} {
						d := cell.DelayCtrl2Rooted(ax.pin, ay.pin, tx, ty, skew, extraLoad)
						if v := base + d*multi; v < out.AS {
							out.AS = v
						}
					}
				}
				// Shortest transition: evaluate at the achievable skew
				// closest to SK_t,min (Fig. 8's T_R,S rule).
				lo := ay.w.AS - ax.w.AL
				hi := ay.w.AL - ax.w.AS
				skm := cell.SKminAt(ax.pin, ay.pin, ax.w.TS, ay.w.TS)
				if skm < lo {
					skm = lo
				}
				if skm > hi {
					skm = hi
				}
				if tv := cell.TransCtrl2Rooted(ax.pin, ay.pin, ax.ts, ay.ts, skm, extraLoad); tv < out.TS {
					out.TS = tv
				}
			}
		}
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
	var buf [maxPins]ctrlInput
	allowed := collect(&buf, ins, ncRising, cell.NonCtrlPins, extraLoad)
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
			if v := a.w.AS + a.dMin; a.definite && v > out.AS {
				out.AS = v
			}
		}
	} else {
		out.AS = math.Inf(1)
		for i := range allowed {
			a := &allowed[i]
			if v := a.w.AS + a.dMin; v < out.AS {
				out.AS = v
			}
		}
	}

	for i := range allowed {
		a := &allowed[i]
		if v := a.w.AL + a.dMax; v > out.AL {
			out.AL = v
		}
		if a.tMin < out.TS {
			out.TS = a.tMin
		}
		if a.tMax > out.TL {
			out.TL = a.tMax
		}
	}

	if ncExt && mode == ModeProposed && len(allowed) >= 2 && len(cell.NCPairs) > 0 {
		// Worst-case simultaneous to-non-controlling corner: both
		// transitions at their latest arrivals, skew as close to the Λ
		// peak (zero) as the windows allow, slowest transition times.
		rootTrans(allowed, true)
		for i := range allowed {
			ax := &allowed[i]
			for j := range allowed {
				if i == j {
					continue
				}
				ay := &allowed[j]
				lo := ay.w.AS - ax.w.AL
				hi := ay.w.AL - ax.w.AS
				skew := 0.0
				if skew < lo {
					skew = lo
				}
				if skew > hi {
					skew = hi
				}
				base := math.Max(ax.w.AL, ay.w.AL)
				for _, tx := range [2]core.Rooted{ax.ts, ax.tl} {
					for _, ty := range [2]core.Rooted{ay.ts, ay.tl} {
						d := cell.DelayNonCtrl2Rooted(ax.pin, ay.pin, tx, ty, skew, extraLoad)
						if v := base + d; v > out.AL {
							out.AL = v
						}
						if tv := cell.TransNonCtrl2Rooted(ax.pin, ay.pin, tx, ty, skew, extraLoad); tv > out.TL {
							out.TL = tv
						}
					}
				}
			}
		}
	}
	return out, nil
}
