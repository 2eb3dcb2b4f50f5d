package sta

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"sstiming/internal/twindow"
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
// worst-case candidate realises the output's latest arrival, among the
// inputs whose transition along the arc is still possible. The returned
// slice runs from a primary input to the requested endpoint.
func (r *Result) CriticalPath(net string, rising bool) ([]PathStep, error) {
	c, s := r.Circuit, r.snap
	nPI := len(c.PIs)
	id, ok := c.NetID(net)
	if !ok {
		return nil, fmt.Errorf("sta: no timing for net %q", net)
	}
	if _, ok := r.Window(net, rising); !ok {
		return nil, fmt.Errorf("sta: net %q cannot make that transition", net)
	}
	var path []PathStep
	curRising := rising

	for hop := 0; hop <= len(c.Gates)+1; hop++ {
		w := s.Lines[id].Fall
		if curRising {
			w = s.Lines[id].Rise
		}
		path = append(path, PathStep{Net: c.NetName(id), Rising: curRising, Arrival: w.AL})

		if id < nPI {
			// Reached a primary input; reverse into PI->PO order.
			slices.Reverse(path)
			return path, nil
		}
		gi := id - nPI
		gb := &s.Gates[gi]
		// The arc producing this output transition.
		arcs := twindow.Arcs(gb.Kind)
		ai := slices.IndexFunc(arcs, func(a twindow.Arc) bool { return a.OutRise == curRising })
		if ai < 0 {
			return nil, fmt.Errorf("sta: unsupported gate kind %v", gb.Kind)
		}
		a := arcs[ai]

		// Find the input whose worst-case candidate realises (or comes
		// closest to) the output's latest arrival.
		bestPin := -1
		bestGap := math.Inf(1)
		inIDs := c.GateInputIDs(gi)
		for x, in := range inIDs {
			li := &s.Lines[in]
			iw, defined := li.Fall, li.HasFall()
			if a.InRise {
				iw, defined = li.Rise, li.HasRise()
			}
			if !defined {
				continue
			}
			p := gb.Pin(a, x)
			_, dMax, _, _ := p.Range(iw.TS, iw.TL)
			cand := iw.AL + dMax + p.DelayLoadSlope*gb.ExtraLoad
			if gap := math.Abs(cand - w.AL); gap < bestGap {
				bestGap = gap
				bestPin = x
			}
		}
		if bestPin < 0 {
			return nil, fmt.Errorf("sta: gate %q has no timed inputs", c.NetName(id))
		}
		id = int(inIDs[bestPin])
		curRising = a.InRise
	}
	return nil, fmt.Errorf("sta: path extraction did not terminate (cycle?)")
}

// WorstPath returns the critical path to the latest-arriving defined
// primary output transition.
func (r *Result) WorstPath() ([]PathStep, error) {
	var worstNet string
	worstRising := false
	worst := math.Inf(-1)
	r.eachPOWindow(func(po string, rising bool, w Window) {
		if w.AL > worst {
			worst, worstNet, worstRising = w.AL, po, rising
		}
	})
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
