package core

import (
	"math"
	"sort"
)

// This file implements the paper's announced future work (Section 3.6):
// "we are currently developing a delay model for simultaneous
// to-non-controlling transitions for STA and ITR". Simultaneous
// to-non-controlling transitions (both NAND inputs rising together) *slow*
// the gate down — the series stack turns on with both devices in partial
// conduction and the Miller coupling opposes the output — a second-order
// effect with the opposite sign of the to-controlling speed-up.
//
// The model mirrors the V-shape construction upside down: the gate delay,
// measured from the LATEST input arrival (the paper's to-non-controlling
// delay convention), is a Λ-shaped piecewise-linear function of the skew
// δ = Ay − Ax, peaking at zero skew:
//
//	(0,    NCD0(Tx,Ty))   — the maximal delay, at zero skew
//	(+SNC, dNCy(Ty))      — beyond +SNC the earlier input no longer matters
//	(−SNC', dNCx(Tx))     — symmetrically for negative skew
//
// The same fitted families are reused: NCD0 uses the Cross form and the
// skew thresholds the Quad2 form (stored in a PairTiming under
// CellModel.NCPairs). The model is characterised by charlib when
// Options.NCPairs is enabled and consumed by sta/logicsim behind their
// NCExtension flags, keeping the paper's published-scope results unchanged
// by default.

// NCPair returns the simultaneous to-non-controlling surfaces for ordered
// pair (x, y), or nil if not characterised.
func (m *CellModel) NCPair(x, y int) *PairTiming { return lookup(m.NCPairs, x, y) }

// DelayNonCtrl2 evaluates the Λ-shape model for ordered pair (x, y): the
// to-non-controlling gate delay measured from the LATEST input arrival,
// with skewSec = Ay − Ax. Falls back to the pin-to-pin delay of the later
// input when the pair was not characterised.
func (m *CellModel) DelayNonCtrl2(x, y int, txSec, tySec, skewSec, extraLoad float64) float64 {
	return m.evalPair(ncDelay, x, y, txSec, tySec, skewSec, extraLoad)
}

// TransNonCtrl2 evaluates the output transition time of the
// to-non-controlling response under the same conventions (Λ-shaped, peak T0
// at zero skew).
func (m *CellModel) TransNonCtrl2(x, y int, txSec, tySec, skewSec, extraLoad float64) float64 {
	return m.evalPair(ncTrans, x, y, txSec, tySec, skewSec, extraLoad)
}

// NonCtrlResponseExt computes the output response for simultaneous
// to-non-controlling transitions using the Λ-shape extension: the two
// latest-arriving transitions are combined through the pair surfaces
// (earlier inputs have already settled their stack devices). With a single
// event, or without characterised NC pairs, it degrades to the pin-to-pin
// NonCtrlResponse.
func (m *CellModel) NonCtrlResponseExt(events []InputEvent, extraLoad float64) (Response, error) {
	if err := m.validate("NonCtrlResponseExt", events); err != nil {
		return Response{}, err
	}
	// The pin-to-pin (max-combine) answer; with one event or no NC pairs
	// it is the response.
	base := pinToPin(m.NonCtrlPins, events, extraLoad, true)
	if len(events) == 1 || len(m.NCPairs) == 0 {
		return base, nil
	}

	evs := append([]InputEvent(nil), events...)
	sort.Slice(evs, func(i, j int) bool { return evs[i].Arrival < evs[j].Arrival })
	x := evs[len(evs)-2] // second-latest
	y := evs[len(evs)-1] // latest
	skew := y.Arrival - x.Arrival
	latest := math.Max(x.Arrival, y.Arrival)
	// One resolution serves the delay and the transition time.
	xy, yx := resolve(m.NCPairs, x.Pin, y.Pin)
	var sxXY, sxYX, rx, ry float64
	if xy != nil {
		sxXY, sxYX, rx, ry = xy.SX.Eval(x.Trans, y.Trans), yx.SX.Eval(y.Trans, x.Trans), root(x.Trans), root(y.Trans)
	}
	px, py := &m.NonCtrlPins[x.Pin], &m.NonCtrlPins[y.Pin]
	d := pairAt(ncDelay, xy, sxXY, sxYX, rx, ry, 0, px.DelayAt(x.Trans, extraLoad), py.DelayAt(y.Trans, extraLoad), px.DelayLoadSlope*extraLoad, skew)
	tr := pairAt(ncTrans, xy, sxXY, sxYX, rx, ry, 0, px.TransAt(x.Trans, extraLoad), py.TransAt(y.Trans, extraLoad), px.TransLoadSlope*extraLoad, skew)

	// The pin-to-pin answer is a lower bound; the Λ model can only add
	// the simultaneous-switching penalty on top of it.
	arr := latest + d
	if arr < base.Arrival {
		arr = base.Arrival
	}
	if tr < base.Trans {
		tr = base.Trans
	}
	return Response{Arrival: arr, Trans: tr}, nil
}
