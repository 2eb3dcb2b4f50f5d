package logicsim

import (
	"fmt"

	"sstiming/internal/netlist"
)

// FaultInjection models a crosstalk delay fault at simulation time (the
// paper's Section 7 fault model): when the aggressor line carries a
// transition whose arrival falls within Window of the victim's transition,
// the victim's transition is slowed by ExtraDelay and its transition time
// stretched by ExtraTrans. The slowdown then propagates downstream through
// the ordinary delay model.
type FaultInjection struct {
	// Aggressor and Victim are the coupled nets.
	Aggressor, Victim string
	// AggRising/VicRising select the transition directions that couple
	// (opposite directions slow the victim down).
	AggRising, VicRising bool
	// Window is the alignment window in seconds.
	Window float64
	// ExtraDelay is added to the victim's arrival when the fault is
	// excited.
	ExtraDelay float64
	// ExtraTrans is added to the victim's transition time when excited.
	ExtraTrans float64
}

// SimulateFaulty runs the two-pattern timing simulation with the crosstalk
// fault injected. It returns the fault-free result, the faulty result, and
// whether the fault was excited (transitions present, directions matching,
// and aligned within the window). When the fault is not excited the faulty
// result aliases the clean one.
//
// The fault-free pass gives the victim and aggressor transitions and so
// decides excitation; an excited fault then runs the same forward pass
// again with the victim's event displaced, so that the slowdown propagates
// downstream through the ordinary delay model.
func SimulateFaulty(c *netlist.Circuit, v1, v2 Vector, f FaultInjection, opts Options) (clean, faulty *Result, excited bool, err error) {
	if f.Aggressor == f.Victim {
		return nil, nil, false, fmt.Errorf("logicsim: fault couples a net to itself: %q", f.Victim)
	}
	clean, err = Simulate(c, v1, v2, opts)
	if err != nil {
		return nil, nil, false, err
	}
	agg, okA := clean.Event(f.Aggressor)
	vic, okV := clean.Event(f.Victim)
	if !okA || !okV {
		return clean, clean, false, nil
	}
	if agg.Rising != f.AggRising || vic.Rising != f.VicRising {
		return clean, clean, false, nil
	}
	if d := agg.Arrival - vic.Arrival; d > f.Window || d < -f.Window {
		return clean, clean, false, nil
	}

	victim, _ := c.NetID(f.Victim)
	faulty, err = simulate(c, v1, v2, opts, victim, Event{
		Rising:  vic.Rising,
		Arrival: vic.Arrival + f.ExtraDelay,
		Trans:   vic.Trans + f.ExtraTrans,
	})
	if err != nil {
		return nil, nil, false, err
	}
	return clean, faulty, true, nil
}
