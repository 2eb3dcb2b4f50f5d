package sta

import (
	"fmt"
	"math"
	"strings"

	"sstiming/internal/netlist"
)

// PathStep is one node of an extracted worst path.
type PathStep struct {
	// Net is the line name.
	Net string
	// Rising is the transition direction at this line.
	Rising bool
	// Arrival is the latest arrival (AL) of this transition.
	Arrival float64
}

// CriticalPath extracts the latest-arrival path ending at the given net and
// direction by greedy backtrace: at every gate it follows the input whose
// worst-case candidate realises the output's latest arrival. The returned
// slice runs from a primary input to the requested endpoint.
func (r *Result) CriticalPath(net string, rising bool) ([]PathStep, error) {
	c := r.Circuit
	var path []PathStep
	curNet, curRising := net, rising

	for hop := 0; hop <= len(c.Gates)+1; hop++ {
		lt := r.Lines[curNet]
		if lt == nil {
			return nil, fmt.Errorf("sta: no timing for net %q", curNet)
		}
		w := lt.Rise
		if !curRising {
			w = lt.Fall
		}
		path = append(path, PathStep{Net: curNet, Rising: curRising, Arrival: w.AL})

		gi, driven := c.Driver(curNet)
		if !driven {
			// Reached a primary input; reverse into PI->PO order.
			for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
				path[i], path[j] = path[j], path[i]
			}
			return path, nil
		}
		g := &c.Gates[gi]
		cell, ok := r.lib.Cell(g.CellName())
		if !ok {
			return nil, fmt.Errorf("sta: no cell for gate %q", g.Output)
		}
		extraLoad := float64(c.FanoutCount(g.Output)-1) * cell.RefLoad

		// Which input direction and pin table feed this output
		// transition?
		var inRising, ctrl bool
		switch g.Kind {
		case netlist.Inv:
			inRising, ctrl = !curRising, curRising
		case netlist.Buf:
			inRising, ctrl = curRising, curRising
		case netlist.Nand:
			inRising, ctrl = !curRising, curRising
		case netlist.Nor:
			inRising, ctrl = !curRising, !curRising
		default:
			return nil, fmt.Errorf("sta: unsupported gate kind %v", g.Kind)
		}

		pins := cell.NonCtrlPins
		if ctrl {
			pins = cell.CtrlPins
		}

		// Find the input whose worst-case candidate realises (or comes
		// closest to) the output's latest arrival.
		bestPin := -1
		bestGap := math.Inf(1)
		var bestCand float64
		for x, in := range g.Inputs {
			inLT := r.Lines[in]
			if inLT == nil {
				continue
			}
			iw := inLT.Rise
			if !inRising {
				iw = inLT.Fall
			}
			libPin := x
			if g.Kind == netlist.Inv || g.Kind == netlist.Buf {
				libPin = 0
			}
			p := &pins[libPin]
			_, dMax := p.Delay.MaxOver(iw.TS, iw.TL)
			cand := iw.AL + dMax + p.DelayLoadSlope*extraLoad
			if gap := math.Abs(cand - w.AL); gap < bestGap {
				bestGap = gap
				bestPin = x
				bestCand = cand
			}
		}
		if bestPin < 0 {
			return nil, fmt.Errorf("sta: gate %q has no timed inputs", g.Output)
		}
		_ = bestCand
		curNet = g.Inputs[bestPin]
		curRising = inRising
	}
	return nil, fmt.Errorf("sta: path extraction did not terminate (cycle?)")
}

// WorstPath returns the critical path to the latest-arriving primary output
// transition.
func (r *Result) WorstPath() ([]PathStep, error) {
	var worstNet string
	worstRising := false
	worst := math.Inf(-1)
	for _, po := range r.Circuit.POs {
		lt := r.Lines[po]
		if lt == nil {
			continue
		}
		if lt.Rise.AL > worst {
			worst, worstNet, worstRising = lt.Rise.AL, po, true
		}
		if lt.Fall.AL > worst {
			worst, worstNet, worstRising = lt.Fall.AL, po, false
		}
	}
	if worstNet == "" {
		return nil, fmt.Errorf("sta: circuit has no timed primary outputs")
	}
	return r.CriticalPath(worstNet, worstRising)
}

// FormatPath renders a path as a one-line report, e.g.
// "1(R@0.00) -> 10(F@0.18) -> 22(R@0.51)".
func FormatPath(path []PathStep) string {
	parts := make([]string, len(path))
	for i, st := range path {
		dir := "F"
		if st.Rising {
			dir = "R"
		}
		parts[i] = fmt.Sprintf("%s(%s@%.3fns)", st.Net, dir, st.Arrival*1e9)
	}
	return strings.Join(parts, " -> ")
}
