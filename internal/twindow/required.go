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

// Backward is a settled forward pass, as the backward traversal of
// Section 4 reads it. Pure STA supplies lines whose transition states are
// all SMaybe; ITR supplies the refined states, so arcs through impossible
// transitions drop out.
type Backward struct {
	Circuit *netlist.Circuit
	Lib     *core.Library
	Mode    Mode
	// Line returns the settled LineInfo of a net.
	Line func(net string) (LineInfo, bool)
}

// arc is one input-to-output timing arc of a gate: the input direction,
// the output direction it produces, and whether it is the to-controlling
// arc (the cell's CtrlPins table).
type arc struct {
	inRise, outRise, ctrl bool
}

var (
	// Buffers borrow the inverter cell's timing with non-inverting
	// direction mapping, as in PropagateGate.
	invArcs = []arc{{false, true, true}, {true, false, false}}
	bufArcs = []arc{{true, true, true}, {false, false, false}}
	norArcs = []arc{{true, false, true}, {false, true, false}}
)

// gateArcs lists the timing arcs from each input pin of a gate kind.
func gateArcs(kind netlist.GateKind) []arc {
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

// RequiredTimes performs the backward traversal and returns the
// required-time windows of every line. It uses the settled arrival and
// transition windows to evaluate the delay bounds along each
// input-to-output arc, under transition states (the paper defers the ITR
// details to its technical report [9], so this follows the forward pass's
// worst-case corner rules):
//
//   - required windows propagate only along arcs whose input and output
//     transitions are both still possible (state != SNo), so a line
//     direction with state SNo keeps the unconstrained window;
//   - under ModeProposed the minimum arc delay exploits zero-skew
//     simultaneous switching with each partner input that can still
//     transition in the same direction.
func (b Backward) RequiredTimes(cons Constraint) map[string]*LineRequired {
	c := b.Circuit
	req := make(map[string]*LineRequired, len(c.PIs)+len(c.Gates))
	get := func(net string) *LineRequired {
		lr, ok := req[net]
		if !ok {
			lr = &LineRequired{Rise: unconstrained, Fall: unconstrained}
			req[net] = lr
		}
		return lr
	}

	for _, po := range c.POs {
		li, ok := b.Line(po)
		if !ok {
			continue
		}
		lr := get(po)
		if li.HasRise() {
			lr.Rise.tighten(cons.MinTime, cons.MaxTime)
		}
		if li.HasFall() {
			lr.Fall.tighten(cons.MinTime, cons.MaxTime)
		}
	}

	var ins []LineInfo
	var have []bool
	order := c.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		g := &c.Gates[order[i]]
		cell, ok := b.Lib.Cell(g.CellName())
		if !ok {
			continue
		}
		extraLoad := float64(c.FanoutCount(g.Output)-1) * cell.RefLoad
		zReq := get(g.Output)
		z, ok := b.Line(g.Output)
		if !ok {
			continue
		}
		ins, have = ins[:0], have[:0]
		for _, in := range g.Inputs {
			li, ok := b.Line(in)
			ins, have = append(ins, li), append(have, ok)
		}

		for x, in := range g.Inputs {
			if !have[x] {
				continue
			}
			xReq := get(in)
			for _, a := range gateArcs(g.Kind) {
				outState, _ := z.dir(a.outRise)
				inState, inWin := ins[x].dir(a.inRise)
				if outState == nineval.SNo || inState == nineval.SNo {
					continue
				}
				dMin, dMax := b.arcBounds(cell, x, a, inWin, ins, have, extraLoad)
				out := zReq.dir(a.outRise)
				xReq.dir(a.inRise).tighten(out.QS-dMin, out.QL-dMax)
			}
		}
	}
	return req
}

// arcBounds returns [dMin, dMax] of the delay from input pin x to the gate
// output along arc a. Under ModeProposed the minimum of a to-controlling arc
// additionally considers zero-skew simultaneous switching with each other
// input that can transition in the same direction (the fastest achievable
// corner).
func (b Backward) arcBounds(cell *core.CellModel, x int, a arc, inWin Window, ins []LineInfo, have []bool, extraLoad float64) (dMin, dMax float64) {
	pins := cell.NonCtrlPins
	if a.ctrl {
		pins = cell.CtrlPins
	}
	p := &pins[x]
	loadD := p.DelayLoadSlope * extraLoad
	_, dMin = p.Delay.MinOver(inWin.TS, inWin.TL)
	_, dMax = p.Delay.MaxOver(inWin.TS, inWin.TL)
	dMin += loadD
	dMax += loadD

	if a.ctrl && b.Mode == ModeProposed && cell.N >= 2 {
		for y := 0; y < cell.N; y++ {
			if y == x || !have[y] {
				continue
			}
			yState, yWin := ins[y].dir(a.inRise)
			if yState == nineval.SNo {
				continue
			}
			if d := cell.DelayCtrl2(x, y, inWin.TS, yWin.TS, 0, extraLoad); d < dMin {
				dMin = d
			}
		}
	}
	return dMin, dMax
}

// CheckViolations compares the settled arrival windows against the
// required windows derived from the PO constraint and returns every
// failing defined (state != SNo) line direction, in the total order of
// compareViolations.
func (b Backward) CheckViolations(cons Constraint) []Violation {
	req := b.RequiredTimes(cons)
	var out []Violation
	check := func(net string, w Window, q Required, rising bool) {
		if q == unconstrained {
			return
		}
		if s := q.QL - w.AL; s < 0 {
			out = append(out, Violation{Net: net, Rising: rising, Setup: true, Slack: s})
		}
		if s := w.AS - q.QS; s < 0 {
			out = append(out, Violation{Net: net, Rising: rising, Setup: false, Slack: s})
		}
	}
	for net, lr := range req {
		li, ok := b.Line(net)
		if !ok {
			continue
		}
		if li.HasRise() {
			check(net, li.Rise, lr.Rise, true)
		}
		if li.HasFall() {
			check(net, li.Fall, lr.Fall, false)
		}
	}
	slices.SortFunc(out, compareViolations)
	return out
}
