package twindow

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"sstiming/internal/core"
	"sstiming/internal/netlist"
	"sstiming/internal/nineval"
)

// Required is the per-direction required-time window of a line: the output
// must not be reached before QS (hold-style lower bound) and must be reached
// by QL (setup-style upper bound).
type Required struct {
	QS, QL float64
}

// unconstrained is the required window of a line direction no arc reaches.
var unconstrained = Required{QS: math.Inf(-1), QL: math.Inf(1)}

// tighten narrows a required window: QS may only grow, QL may only shrink.
func (q *Required) tighten(qs, ql float64) {
	if qs > q.QS {
		q.QS = qs
	}
	if ql < q.QL {
		q.QL = ql
	}
}

// LineRequired pairs the directional required windows of one line.
type LineRequired struct {
	Rise Required
	Fall Required
}

// dir selects one direction's required window.
func (lr *LineRequired) dir(rising bool) *Required {
	if rising {
		return &lr.Rise
	}
	return &lr.Fall
}

// dir returns one direction's transition state and window.
func (li *LineInfo) dir(rising bool) (nineval.State, Window) {
	if rising {
		return li.SRise, li.Rise
	}
	return li.SFall, li.Fall
}

// Constraint is the timing requirement applied at every primary output.
type Constraint struct {
	// MinTime is the earliest permitted PO arrival (hold check).
	MinTime float64
	// MaxTime is the latest permitted PO arrival (setup check).
	MaxTime float64
}

// Violation reports one timing check failure.
type Violation struct {
	// Net is the failing line.
	Net string
	// Rising selects the failing direction.
	Rising bool
	// Setup is true for a setup-style (too late) failure, false for a
	// hold-style (too early) failure.
	Setup bool
	// Slack is the (negative) margin in seconds.
	Slack float64
}

// compareViolations is the total order CheckViolations returns: most
// negative slack first, then net name, rising before falling, setup before
// hold.
func compareViolations(a, b Violation) int {
	if c := cmp.Compare(a.Slack, b.Slack); c != 0 {
		return c
	}
	if c := strings.Compare(a.Net, b.Net); c != 0 {
		return c
	}
	if a.Rising != b.Rising {
		if a.Rising {
			return -1
		}
		return 1
	}
	if a.Setup != b.Setup {
		if a.Setup {
			return -1
		}
		return 1
	}
	return 0
}

// Gate is one gate's timing binding as the timing graph resolved it: the
// gate kind, its library cell and the load its fan-out adds beyond the
// cell's characterisation load.
type Gate struct {
	Kind      netlist.GateKind
	Cell      *core.CellModel
	ExtraLoad float64
}

// Snapshot is a settled forward pass, as the backward traversal of
// Section 4 and path extraction read it: every line's timing indexed by
// net ID (netlist.Circuit.NetID) and every gate's binding indexed by gate.
// Pure STA supplies lines whose transition states are all SMaybe; ITR
// supplies the refined states, so arcs through impossible transitions drop
// out. A snapshot owns its slices and reads only the circuit's topology,
// which graph edits leave unchanged (the gate kinds SwapGate changes are
// copied into Gates), so later edits to the graph do not reach it.
type Snapshot struct {
	Circuit *netlist.Circuit
	Mode    Mode
	Lines   []LineInfo // per net ID
	Gates   []Gate     // per gate index
}

// LineMap returns a name-keyed view of the snapshot's lines; its pointers
// point into Lines.
func (s *Snapshot) LineMap() map[string]*LineInfo {
	m := make(map[string]*LineInfo, len(s.Lines))
	for id := range s.Lines {
		m[s.Circuit.NetName(id)] = &s.Lines[id]
	}
	return m
}

// Arc is one input-to-output timing arc of a gate: the input direction,
// the output direction it produces, and whether it is the to-controlling
// arc (the cell's CtrlPins table).
type Arc struct {
	InRise, OutRise, Ctrl bool
}

var (
	// Buffers borrow the inverter cell's timing with non-inverting
	// direction mapping (library approximation, see package sta doc).
	invArcs = []Arc{{false, true, true}, {true, false, false}}
	bufArcs = []Arc{{true, true, true}, {false, false, false}}
	norArcs = []Arc{{true, false, true}, {false, true, false}}
)

// Arcs lists the timing arcs from each input pin of a gate kind, the
// to-controlling arc first (nil for an unsupported kind).
func Arcs(kind netlist.GateKind) []Arc {
	switch kind {
	case netlist.Inv, netlist.Nand:
		return invArcs
	case netlist.Buf:
		return bufArcs
	case netlist.Nor:
		return norArcs
	}
	return nil
}

// Pin returns the timing of input pin x along arc a.
func (gb *Gate) Pin(a Arc, x int) *core.PinTiming { return &arcPins(gb.Cell, a)[x] }

// arcPins returns the cell's per-pin timing table arc a uses.
func arcPins(cell *core.CellModel, a Arc) []core.PinTiming {
	if a.Ctrl {
		return cell.CtrlPins
	}
	return cell.NonCtrlPins
}

// Required performs the backward traversal and returns the required-time
// window of every line, indexed by net ID (TopoOrder in reverse, each
// gate's inputs from GateInputIDs and its cell and load from the
// snapshot's binding). It uses the settled arrival and transition windows
// to evaluate the delay bounds along each input-to-output arc, under
// transition states (the paper defers the ITR details to its technical
// report [9], so this follows the forward pass's worst-case corner rules):
//
//   - required windows propagate only along arcs whose input and output
//     transitions are both still possible (state != SNo), so a line
//     direction with state SNo keeps the unconstrained window;
//   - under ModeProposed the minimum arc delay exploits zero-skew
//     simultaneous switching with each partner input that can still
//     transition in the same direction.
func (s *Snapshot) Required(cons Constraint) []LineRequired {
	c := s.Circuit
	nPI := len(c.PIs)
	req := make([]LineRequired, len(s.Lines))
	for id := range req {
		req[id] = LineRequired{Rise: unconstrained, Fall: unconstrained}
	}
	for _, po := range c.POs {
		id, _ := c.NetID(po)
		if s.Lines[id].HasRise() {
			req[id].Rise.tighten(cons.MinTime, cons.MaxTime)
		}
		if s.Lines[id].HasFall() {
			req[id].Fall.tighten(cons.MinTime, cons.MaxTime)
		}
	}

	order := c.TopoOrder()
	var pins [maxPins]*LineInfo
	var buf [maxPins]core.Candidate
	for i := len(order) - 1; i >= 0; i-- {
		gi := order[i]
		gb := &s.Gates[gi]
		z, zReq := &s.Lines[nPI+gi], &req[nPI+gi]
		inIDs := c.GateInputIDs(gi)
		ins := pins[:0]
		for _, id := range inIDs {
			ins = append(ins, &s.Lines[id])
		}
		// A gate kind's arcs differ in input direction, so each input
		// direction is still tightened in input order.
		for _, a := range Arcs(gb.Kind) {
			if outState, _ := z.dir(a.OutRise); outState == nineval.SNo {
				continue
			}
			out := zReq.dir(a.OutRise)
			allowed := s.arcBounds(&buf, gb, a, ins)
			for k := range allowed {
				in := &allowed[k]
				req[inIDs[in.Pin]].dir(a.InRise).tighten(out.QS-in.DMin, out.QL-in.DMax)
			}
		}
	}
	return req
}

// RequiredMap returns the name-keyed view of required windows req (as
// Required returns them) for every gate output and every primary input
// that feeds a gate or is a primary output. Its pointers point into req.
func (s *Snapshot) RequiredMap(req []LineRequired) map[string]*LineRequired {
	c := s.Circuit
	nPI := len(c.PIs)
	out := make(map[string]*LineRequired, len(req))
	for id := range req {
		if id >= nPI || len(c.NetFanout(id)) > 0 {
			out[c.NetName(id)] = &req[id]
		}
	}
	for _, po := range c.POs {
		id, _ := c.NetID(po)
		out[po] = &req[id]
	}
	return out
}

// arcBounds returns the inputs of gate gb that can transition along arc a,
// each with [DMin, DMax] of its delay to the gate output, in buf's storage.
// Under ModeProposed the minimum of a to-controlling arc additionally
// considers zero-skew simultaneous switching with each other such input
// (the fastest achievable corner, core's FastestCtrl).
func (s *Snapshot) arcBounds(buf *[maxPins]core.Candidate, gb *Gate, a Arc, ins []*LineInfo) []core.Candidate {
	allowed := collect(buf, ins, a.InRise, arcPins(gb.Cell, a), gb.ExtraLoad, true)
	if a.Ctrl && s.Mode == ModeProposed && len(allowed) >= 2 {
		gb.Cell.FastestCtrl(allowed)
	}
	return allowed
}

// Violations compares the settled arrival windows against required
// windows req (as Required returns them) and returns every failing defined
// (state != SNo) line direction, in the total order of compareViolations.
// It only reads req.
func (s *Snapshot) Violations(req []LineRequired) []Violation {
	var out []Violation
	check := func(id int, w Window, q Required, rising bool) {
		if q == unconstrained {
			return
		}
		if sl := q.QL - w.AL; sl < 0 {
			out = append(out, Violation{Net: s.Circuit.NetName(id), Rising: rising, Setup: true, Slack: sl})
		}
		if sl := w.AS - q.QS; sl < 0 {
			out = append(out, Violation{Net: s.Circuit.NetName(id), Rising: rising, Setup: false, Slack: sl})
		}
	}
	for id := range req {
		li := &s.Lines[id]
		if li.HasRise() {
			check(id, li.Rise, req[id].Rise, true)
		}
		if li.HasFall() {
			check(id, li.Fall, req[id].Fall, false)
		}
	}
	slices.SortFunc(out, compareViolations)
	return out
}
