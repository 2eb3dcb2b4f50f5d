// Package core implements the paper's primary contribution: an empirical
// gate-delay model for simultaneous to-controlling transitions (Chen, Gupta,
// Breuer — DAC 2001, Section 3).
//
// # Model structure
//
// For a pair of gate inputs X and Y receiving to-controlling transitions with
// transition times Tx, Ty and skew δ = Ay − Ax, the to-controlling gate delay
// (measured from the earliest input arrival) is a V-shaped piecewise-linear
// function of δ anchored at three points (Figure 2):
//
//	(0,   D0R(Tx,Ty))   — the minimal delay, at zero skew (Claim 1)
//	(SXR, DXR(Tx))      — beyond skew SXR, Y no longer matters
//	(SYR, DYR(Ty))      — symmetrically for negative skew
//
// with the empirical coefficient formulas of Section 3.4:
//
//	DR(T)       = K10·T² + K11·T + K12
//	D0R(Tx,Ty)  = (K20·Tx^⅓ + K21)(K22·Ty^⅓ + K23) + K24
//	SR(Tx,Ty)   = K30·Tx² + K31·Ty² + K32·Tx·Ty + K33·Tx + K34·Ty + K35
//
// The output transition time uses the same construction, except that its
// minimum may occur at a non-zero skew SKmin (Section 3.4's note that "S0R
// for t may be non-zero").
//
// Every timing function of the model is monotonic or bi-tonic with respect to
// each input variable — the paper's sufficient condition for worst-case
// corner identification in STA and ITR — and the Quad type exposes the
// interior-extremum helpers STA needs (Figure 9).
//
// # One skew shape
//
// The four pair timing functions are one piecewise-linear shape in δ
// (skewShape): an apex and two arms at the pair's SX thresholds, flat
// beyond them at the pin-to-pin values. DelayCtrl2 is the V with its
// minimum at zero skew; TransCtrl2 is the same V with its apex at SKmin;
// DelayNonCtrl2 and TransNonCtrl2 are the Λ of the Section 3.6 extension,
// peaking at zero skew. The V is evaluated by CtrlResponse (timing
// simulation), by STA/ITR's earliest-arrival and shortest-transition corners
// and by the backward pass's fastest arc; the Λ by NonCtrlResponseExt and
// the NCExtension latest corners. The pin-to-pin rules are written here
// once too: PinTiming.Range is Figure 9's extremum over a transition-time
// range, and one earliest-or-latest combine backs CtrlResponse's
// single-event case, NonCtrlResponse and PinToPinCtrlResponse. The timing
// layers (twindow, tgraph, sta, logicsim) call these and read no surface
// themselves; make vet enforces it.
//
// # Cube roots once per input
//
// The zero-skew surfaces D0 and T0 read the cube roots of both transition
// times, and nothing else in the model does. Root takes a transition
// time's root once; Cross.EvalRoots and the pair evaluators' Rooted forms
// (DelayCtrl2Rooted and its three siblings) read roots the caller holds,
// so a gate evaluation roots each input's bounds once for every pair and
// corner that reads them. DelayCtrl2, TransCtrl2, DelayNonCtrl2,
// TransNonCtrl2 and Cross.Eval root per call and give the same bits: the
// root of one float64 is one float64, and the arithmetic after it is
// unchanged. Without pair surfaces (NAND4) a pair evaluation is the
// pin-to-pin step, which reads no root, so none is taken.
//
// All public methods take and return SI seconds; coefficients are stored in
// nanosecond units for numerical conditioning of the fits.
package core

import (
	"fmt"
	"math"
	"sort"
)

const ns = 1e-9

// Quad is a single-variable quadratic timing function K0·t² + K1·t + K2 with
// t in nanoseconds; Eval converts from and to seconds.
type Quad struct {
	K [3]float64
}

// Eval evaluates the quadratic at tSec seconds and returns seconds.
func (q Quad) Eval(tSec float64) float64 {
	t := tSec / ns
	return (q.K[0]*t*t + q.K[1]*t + q.K[2]) * ns
}

// PeakT returns the location (in seconds) of the interior maximum of the
// quadratic, which exists when the curvature is negative (the bi-tonic case
// of Section 3.3). ok is false for convex or linear shapes.
func (q Quad) PeakT() (tSec float64, ok bool) {
	if q.K[0] >= 0 {
		return 0, false
	}
	return -q.K[1] / (2 * q.K[0]) * ns, true
}

// MaxOver returns the maximum of the quadratic over [loSec, hiSec] and the
// argument where it occurs. Per Figure 9 this is an endpoint or, for the
// bi-tonic case, the interior peak when it falls inside the range.
func (q Quad) MaxOver(loSec, hiSec float64) (argSec, valSec float64) {
	argSec, valSec = loSec, q.Eval(loSec)
	if v := q.Eval(hiSec); v > valSec {
		argSec, valSec = hiSec, v
	}
	if p, ok := q.PeakT(); ok && p > loSec && p < hiSec {
		if v := q.Eval(p); v > valSec {
			argSec, valSec = p, v
		}
	}
	return argSec, valSec
}

// MinOver returns the minimum of the quadratic over [loSec, hiSec] and the
// argument where it occurs (an endpoint, or the interior valley for convex
// shapes).
func (q Quad) MinOver(loSec, hiSec float64) (argSec, valSec float64) {
	argSec, valSec = loSec, q.Eval(loSec)
	if v := q.Eval(hiSec); v < valSec {
		argSec, valSec = hiSec, v
	}
	if q.K[0] > 0 {
		valley := -q.K[1] / (2 * q.K[0]) * ns
		if valley > loSec && valley < hiSec {
			if v := q.Eval(valley); v < valSec {
				argSec, valSec = valley, v
			}
		}
	}
	return argSec, valSec
}

// Cross is the D0R formula family: the paper's product form
// (K20·x+K21)(K22·y+K23)+K24 with x = Tx^⅓, y = Ty^⅓, stored expanded as
// Kxy·x·y + Kx·x + Ky·y + K1, plus optional quadratic correction terms in
// cube-root space (Kxx·x² + Kyy·y² + Kxxy·x²y + Kxyy·xy²) that this
// reproduction fits by default — the square-law simulator's zero-skew
// surface saturates in the weaker input in a way the pure product form
// cannot express. All correction coefficients zero recovers the paper's
// exact formula. Times are in nanoseconds.
type Cross struct {
	Kxy, Kx, Ky, K1 float64
	// Correction terms (zero in the paper's exact form).
	Kxx, Kyy, Kxxy, Kxyy float64
}

// Eval evaluates the surface at (txSec, tySec) and returns seconds.
func (c Cross) Eval(txSec, tySec float64) float64 {
	return c.EvalRoots(Root(txSec).Root, Root(tySec).Root)
}

// EvalRoots evaluates the surface at x = Tx^⅓ and y = Ty^⅓ (Tx, Ty in
// nanoseconds), the roots Root takes, and returns seconds.
func (c Cross) EvalRoots(x, y float64) float64 {
	v := c.Kxy*x*y + c.Kx*x + c.Ky*y + c.K1
	v += c.Kxx*x*x + c.Kyy*y*y + c.Kxxy*x*x*y + c.Kxyy*x*y*y
	return v * ns
}

// Rooted is an input transition time, Sec in seconds, beside its cube root
// in nanoseconds, Root = (Sec/1 ns)^⅓: the argument the zero-skew surfaces
// D0 and T0 read. A caller that evaluates one transition time at several
// pairs or corners takes the root once, through Root, and passes it on.
type Rooted struct {
	Sec, Root float64
}

// Root returns transition time tSec with its cube root taken.
func Root(tSec float64) Rooted { return Rooted{Sec: tSec, Root: math.Cbrt(tSec / ns)} }

// rooted returns tSec with its cube root taken when pairs holds surfaces
// that read it. Without them (NAND4) every pair evaluation is the
// pin-to-pin step, which reads no root.
func rooted(pairs []PairEntry, tSec float64) Rooted {
	if len(pairs) == 0 {
		return Rooted{Sec: tSec}
	}
	return Root(tSec)
}

// Quad2 is the paper's SR formula family: a full two-variable quadratic
// K30·Tx² + K31·Ty² + K32·Tx·Ty + K33·Tx + K34·Ty + K35 (nanoseconds).
type Quad2 struct {
	Kxx, Kyy, Kxy, Kx, Ky, K1 float64
}

// Eval evaluates the surface at (txSec, tySec) and returns seconds.
func (s Quad2) Eval(txSec, tySec float64) float64 {
	x := txSec / ns
	y := tySec / ns
	return (s.Kxx*x*x + s.Kyy*y*y + s.Kxy*x*y + s.Kx*x + s.Ky*y + s.K1) * ns
}

// PinTiming holds the per-pin single-transition ("pin-to-pin") timing
// functions of one cell for one output response direction, plus the linear
// load-dependence slopes of Section 3.6.
type PinTiming struct {
	// Delay is the pin-to-pin delay versus input transition time.
	Delay Quad
	// Trans is the output transition time versus input transition time.
	Trans Quad
	// DelayLoadSlope and TransLoadSlope are the additional seconds of
	// delay / output transition per farad of load beyond the reference
	// load ("we treat the delay as increasing linearly as load
	// increases").
	DelayLoadSlope float64
	TransLoadSlope float64
}

// DelayAt evaluates the pin-to-pin delay at input transition time tSec with
// extraLoad farads beyond the characterisation reference load.
func (p *PinTiming) DelayAt(tSec, extraLoad float64) float64 {
	return p.Delay.Eval(tSec) + p.DelayLoadSlope*extraLoad
}

// TransAt evaluates the output transition time analogously.
func (p *PinTiming) TransAt(tSec, extraLoad float64) float64 {
	return p.Trans.Eval(tSec) + p.TransLoadSlope*extraLoad
}

// Range returns the extrema of the pin-to-pin delay and output transition
// time over input transition times in [tsSec, tlSec] at the reference load
// (Figure 9: an endpoint, or the interior peak or valley when it falls
// inside the range). Callers add the load terms.
func (p *PinTiming) Range(tsSec, tlSec float64) (dMin, dMax, tMin, tMax float64) {
	_, dMin = p.Delay.MinOver(tsSec, tlSec)
	_, dMax = p.Delay.MaxOver(tsSec, tlSec)
	_, tMin = p.Trans.MinOver(tsSec, tlSec)
	_, tMax = p.Trans.MaxOver(tsSec, tlSec)
	return dMin, dMax, tMin, tMax
}

// PairTiming holds the simultaneous-switching timing surfaces for one
// ordered input pair (X, Y) of a cell.
type PairTiming struct {
	// D0 is the minimal gate delay at zero skew.
	D0 Cross
	// SX is the skew threshold SR(Tx,Ty): the smallest δ = Ay−Ax beyond
	// which the transition on Y no longer affects the gate delay.
	SX Quad2
	// T0 is the minimal output transition time (attained at skew SKmin).
	T0 Cross
	// SKmin is the skew minimising the output transition time, which may
	// be non-zero (the paper's "S0R for t may be non-zero").
	SKmin Quad2
}

// PairEntry binds a PairTiming to its ordered pin pair for serialisation.
type PairEntry struct {
	X, Y   int
	Timing PairTiming
}

// CellModel is the complete characterised timing model of one library cell.
type CellModel struct {
	// Name is the cell name, e.g. "NAND2".
	Name string
	// Kind is "NAND", "NOR" or "INV".
	Kind string
	// N is the number of inputs.
	N int
	// CtrlOutRising reports whether the to-controlling response is a
	// rising output transition (true for NAND/INV, false for NOR).
	CtrlOutRising bool
	// RefLoad is the output load (farads) at characterisation.
	RefLoad float64
	// CtrlPins are the per-pin timing functions for the to-controlling
	// response (inputs transitioning to the controlling value).
	CtrlPins []PinTiming
	// NonCtrlPins are the per-pin timing functions for the
	// to-non-controlling response.
	NonCtrlPins []PinTiming
	// Pairs holds the simultaneous-switching surfaces for every ordered
	// input pair (to-controlling response, the paper's primary scope).
	Pairs []PairEntry
	// NCPairs holds the Λ-shaped simultaneous to-non-controlling surfaces
	// (the paper's Section 3.6 future work; see noncontrolling.go). Empty
	// unless characterised with charlib.Options.NCPairs.
	NCPairs []PairEntry
	// MultiFactor[k-3] scales the winning pairwise delay when k >= 3
	// inputs switch δ-simultaneously: the extended model's n-way
	// speed-up, characterised at equal transition times and zero skew.
	// Empty means no additional speed-up beyond pairwise.
	MultiFactor []float64
	// Quality records the goodness of fit of each characterised surface,
	// keyed e.g. "pin0/ctrl/delay" or "pair0:1/D0". Values are in the
	// nanosecond fitting domain. Optional characterisation metadata.
	Quality map[string]FitQuality `json:",omitempty"`
	// Health records the resilience outcome of characterisation (retries,
	// degraded points). Nil when characterisation was fully clean, so
	// healthy artefacts are unchanged byte for byte.
	Health *CellHealth `json:",omitempty"`
}

// FitQuality summarises one surface fit (nanosecond domain).
type FitQuality struct {
	// RMS is the root-mean-square residual.
	RMS float64
	// Max is the largest absolute residual.
	Max float64
	// R2 is the coefficient of determination.
	R2 float64
}

// Pair returns the timing surfaces for ordered pair (x, y), or nil if the
// pair was not characterised.
func (m *CellModel) Pair(x, y int) *PairTiming { return lookup(m.Pairs, x, y) }

// lookup returns the surfaces of ordered pair (x, y) in pairs, or nil.
func lookup(pairs []PairEntry, x, y int) *PairTiming {
	for i := range pairs {
		if pairs[i].X == x && pairs[i].Y == y {
			return &pairs[i].Timing
		}
	}
	return nil
}

// Validate checks structural consistency of the model.
func (m *CellModel) Validate() error {
	if m.N < 1 {
		return fmt.Errorf("core: cell %q: invalid input count %d", m.Name, m.N)
	}
	if len(m.CtrlPins) != m.N {
		return fmt.Errorf("core: cell %q: %d ctrl pins, want %d", m.Name, len(m.CtrlPins), m.N)
	}
	if len(m.NonCtrlPins) != m.N {
		return fmt.Errorf("core: cell %q: %d non-ctrl pins, want %d", m.Name, len(m.NonCtrlPins), m.N)
	}
	for _, p := range m.Pairs {
		if p.X < 0 || p.X >= m.N || p.Y < 0 || p.Y >= m.N || p.X == p.Y {
			return fmt.Errorf("core: cell %q: invalid pair (%d,%d)", m.Name, p.X, p.Y)
		}
	}
	for _, p := range m.NCPairs {
		if p.X < 0 || p.X >= m.N || p.Y < 0 || p.Y >= m.N || p.X == p.Y {
			return fmt.Errorf("core: cell %q: invalid NC pair (%d,%d)", m.Name, p.X, p.Y)
		}
	}
	return nil
}

// minSkewWidth guards the V-shape arms against degenerate fitted thresholds.
const minSkewWidth = 1e-12 // 1 ps

// quantity selects which of a pair's four timing functions a skewShape
// evaluates.
type quantity int

const (
	ctrlDelay quantity = iota // DelayCtrl2: V, apex at zero skew
	ctrlTrans                 // TransCtrl2: V, apex at SKmin
	ncDelay                   // DelayNonCtrl2: Λ, apex at zero skew
	ncTrans                   // TransNonCtrl2: Λ, apex at zero skew
)

// skewShape is one timing function of an ordered input pair as a
// piecewise-linear function of the skew δ = Ay − Ax: atApex at skew apex,
// linear out to atLo at skew lo < apex and to atHi at skew hi > apex, and
// flat beyond either arm. Without pair surfaces it is a step at zero skew
// (the pin-to-pin answer).
type skewShape struct {
	lo, apex, hi       float64
	atLo, atApex, atHi float64
	step               bool
}

// at evaluates the shape at skewSec.
func (s skewShape) at(skewSec float64) float64 {
	switch {
	case skewSec >= s.hi:
		return s.atHi
	case skewSec <= s.lo, s.step:
		return s.atLo
	case skewSec >= s.apex:
		return s.atApex + (s.atHi-s.atApex)*(skewSec-s.apex)/(s.hi-s.apex)
	default:
		return s.atApex + (s.atLo-s.atApex)*(skewSec-s.apex)/(s.lo-s.apex)
	}
}

// pairAt evaluates quantity q of ordered pair (x, y) at input transition
// times tx and ty, skew skewSec and extraLoad farads beyond the reference
// load: it builds the pair's skew shape and reads it at the skew. The
// zero-skew surface reads the roots tx.Root and ty.Root, and nothing else
// does, so a step (no pair surfaces) needs none.
// The arms are the pair's SX thresholds, at least minSkewWidth from zero;
// beyond them the earlier input alone sets a to-controlling response and
// the later one a to-non-controlling response, so each arm settles to that
// input's pin-to-pin value. The apex value is the pair's zero-skew surface,
// clamped to be the V's minimum (Claim 1) or the Λ's peak. The shape is
// built and read in one frame: returned to the caller, it was copied
// through memory and the evaluators ran about 20% slower (go test -bench,
// 2-vCPU x86-64 host).
func (m *CellModel) pairAt(q quantity, x, y int, tx, ty Rooted, skewSec, extraLoad float64) float64 {
	nc, trans := q >= ncDelay, q == ctrlTrans || q == ncTrans
	pins, pairs := m.CtrlPins, m.Pairs
	if nc {
		pins, pairs = m.NonCtrlPins, m.NCPairs
	}
	px, py := &pins[x], &pins[y]
	var vx, vy, slope float64
	if trans {
		vx, vy, slope = px.TransAt(tx.Sec, extraLoad), py.TransAt(ty.Sec, extraLoad), px.TransLoadSlope
	} else {
		vx, vy, slope = px.DelayAt(tx.Sec, extraLoad), py.DelayAt(ty.Sec, extraLoad), px.DelayLoadSlope
	}
	atLo, atHi := vy, vx
	if nc {
		atLo, atHi = vx, vy
	}
	pXY, pYX := lookup(pairs, x, y), lookup(pairs, y, x)
	if pXY == nil || pYX == nil {
		return skewShape{atLo: atLo, atHi: atHi, step: true}.at(skewSec)
	}

	hi := pXY.SX.Eval(tx.Sec, ty.Sec)
	if hi < minSkewWidth {
		hi = minSkewWidth
	}
	lo := -pYX.SX.Eval(ty.Sec, tx.Sec)
	if lo > -minSkewWidth {
		lo = -minSkewWidth
	}
	surf := &pXY.D0
	if trans {
		surf = &pXY.T0
	}
	v0 := surf.EvalRoots(tx.Root, ty.Root) + slope*extraLoad
	if nc {
		if v0 < vx {
			v0 = vx
		}
		if v0 < vy {
			v0 = vy
		}
	} else {
		if v0 > vx {
			v0 = vx
		}
		if v0 > vy {
			v0 = vy
		}
	}
	apex := 0.0
	if q == ctrlTrans {
		// The transition-time minimum sits at SKmin, kept strictly inside
		// the arms, and stays positive.
		apex = pXY.SKmin.Eval(tx.Sec, ty.Sec)
		if apex > hi-minSkewWidth {
			apex = hi - minSkewWidth
		}
		if apex < lo+minSkewWidth {
			apex = lo + minSkewWidth
		}
		if v0 <= 0 {
			v0 = minSkewWidth
		}
	}
	return skewShape{lo: lo, apex: apex, hi: hi, atLo: atLo, atApex: v0, atHi: atHi}.at(skewSec)
}

// DelayCtrl2 evaluates the V-shape model for the ordered pair (x, y): the
// to-controlling gate delay, measured from the earliest input arrival, when
// input x has transition time txSec, input y has transition time tySec, and
// the skew is skewSec = Ay − Ax. extraLoad is additional output load beyond
// the reference (farads).
//
// If the pair was not characterised the result degrades to the pin-to-pin
// delay of the earlier input (the pin-to-pin model's answer).
func (m *CellModel) DelayCtrl2(x, y int, txSec, tySec, skewSec, extraLoad float64) float64 {
	return m.pairAt(ctrlDelay, x, y, rooted(m.Pairs, txSec), rooted(m.Pairs, tySec), skewSec, extraLoad)
}

// DelayCtrl2Rooted is DelayCtrl2 at transition times whose roots the
// caller took (Root), bit for bit. A cell without pair surfaces reads no
// root, so tx and ty may then carry Sec alone.
func (m *CellModel) DelayCtrl2Rooted(x, y int, tx, ty Rooted, skewSec, extraLoad float64) float64 {
	return m.pairAt(ctrlDelay, x, y, tx, ty, skewSec, extraLoad)
}

// TransCtrl2 evaluates the output transition time of the to-controlling
// response for the ordered pair (x, y) under the same conventions as
// DelayCtrl2. The V-shape minimum T0 sits at skew SKmin, which may be
// non-zero.
func (m *CellModel) TransCtrl2(x, y int, txSec, tySec, skewSec, extraLoad float64) float64 {
	return m.pairAt(ctrlTrans, x, y, rooted(m.Pairs, txSec), rooted(m.Pairs, tySec), skewSec, extraLoad)
}

// TransCtrl2Rooted is TransCtrl2 at rooted transition times, under
// DelayCtrl2Rooted's conventions.
func (m *CellModel) TransCtrl2Rooted(x, y int, tx, ty Rooted, skewSec, extraLoad float64) float64 {
	return m.pairAt(ctrlTrans, x, y, tx, ty, skewSec, extraLoad)
}

// SKminAt returns the transition-time-minimising skew for pair (x, y) as
// fitted, or 0 if the pair was not characterised. Unlike TransCtrl2's apex
// it is not clamped inside the V-shape arms: the STA shortest-transition
// rule (Section 4.2's SK_t,R,min) clamps it only to the achievable skew
// range.
func (m *CellModel) SKminAt(x, y int, txSec, tySec float64) float64 {
	pXY := m.Pair(x, y)
	if pXY == nil {
		return 0
	}
	return pXY.SKmin.Eval(txSec, tySec)
}

// InputEvent describes one switching input of a gate: which pin, when its
// transition arrives (50% crossing, seconds) and its transition time.
type InputEvent struct {
	Pin     int
	Arrival float64
	Trans   float64
}

// Response is the computed output transition of a gate.
type Response struct {
	// Arrival is the output 50% crossing time, seconds.
	Arrival float64
	// Trans is the output 10%-90% transition time, seconds.
	Trans float64
}

// CtrlResponse computes the output response when the given inputs all make
// to-controlling transitions (and all remaining inputs hold the
// non-controlling value). Implements the extended model's handling of more
// than two simultaneous transitions by pairwise reduction with the
// characterised multi-input speed-up factor.
func (m *CellModel) CtrlResponse(events []InputEvent, extraLoad float64) (Response, error) {
	if err := m.validate("CtrlResponse", events); err != nil {
		return Response{}, err
	}
	if len(events) == 1 {
		return pinToPin(m.CtrlPins, events, extraLoad, false), nil
	}

	// Each event's transition time is rooted once for all its pairs.
	type rootedEvent struct {
		InputEvent
		t Rooted
	}
	evs := make([]rootedEvent, len(events))
	for i, e := range events {
		evs[i] = rootedEvent{e, rooted(m.Pairs, e.Trans)}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Arrival < evs[j].Arrival })

	// Pairwise minimum over all ordered pairs: each pair's candidate
	// output arrival is min(Ax,Ay) + dpair. Track the winning pair for
	// the output transition time.
	bestArr := math.Inf(1)
	bestTrans := 0.0
	var bestDelay float64
	var bestBase float64
	for i := 0; i < len(evs); i++ {
		for j := i + 1; j < len(evs); j++ {
			x, y := &evs[i], &evs[j]
			skew := y.Arrival - x.Arrival
			d := m.pairAt(ctrlDelay, x.Pin, y.Pin, x.t, y.t, skew, extraLoad)
			base := math.Min(x.Arrival, y.Arrival)
			if cand := base + d; cand < bestArr {
				bestArr = cand
				bestDelay = d
				bestBase = base
				bestTrans = m.pairAt(ctrlTrans, x.Pin, y.Pin, x.t, y.t, skew, extraLoad)
			}
		}
	}

	// Extended model: k >= 3 δ-simultaneous controlling transitions open
	// additional charge paths beyond the best pair.
	if k := len(evs); k >= 3 && len(m.MultiFactor) >= k-2 {
		f := m.MultiFactor[k-3]
		if f > 0 && f < 1 {
			bestArr = bestBase + bestDelay*f
		}
	}
	return Response{Arrival: bestArr, Trans: bestTrans}, nil
}

// NonCtrlResponse computes the output response when the given inputs all
// make to-non-controlling transitions. Per Section 3 the paper keeps the
// pin-to-pin model here: the output switches only after the *last* input
// reaches the non-controlling value, so the arrival is the max over
// pin-to-pin candidates.
func (m *CellModel) NonCtrlResponse(events []InputEvent, extraLoad float64) (Response, error) {
	if err := m.validate("NonCtrlResponse", events); err != nil {
		return Response{}, err
	}
	return pinToPin(m.NonCtrlPins, events, extraLoad, true), nil
}

// PinToPinCtrlResponse computes the to-controlling output response under
// the conventional pin-to-pin model: the earliest single-input candidate
// wins and simultaneous switching is ignored.
func (m *CellModel) PinToPinCtrlResponse(events []InputEvent, extraLoad float64) (Response, error) {
	if err := m.validate("PinToPinCtrlResponse", events); err != nil {
		return Response{}, err
	}
	return pinToPin(m.CtrlPins, events, extraLoad, false), nil
}

// validate checks that events is non-empty and names only pins of the
// cell; fn names the calling response in the error.
func (m *CellModel) validate(fn string, events []InputEvent) error {
	if len(events) == 0 {
		return fmt.Errorf("core: %s: %s with no events", m.Name, fn)
	}
	for _, e := range events {
		if e.Pin < 0 || e.Pin >= m.N {
			return fmt.Errorf("core: %s: invalid pin %d", m.Name, e.Pin)
		}
	}
	return nil
}

// pinToPin combines the single-input candidates of validated events on
// pins: the earliest output arrival wins, or the latest when latest is
// set; the first of equal candidates wins.
func pinToPin(pins []PinTiming, events []InputEvent, extraLoad float64, latest bool) Response {
	var out Response
	for i, e := range events {
		arr := e.Arrival + pins[e.Pin].DelayAt(e.Trans, extraLoad)
		if i == 0 || (latest && arr > out.Arrival) || (!latest && arr < out.Arrival) {
			out = Response{Arrival: arr, Trans: pins[e.Pin].TransAt(e.Trans, extraLoad)}
		}
	}
	return out
}

// Library is a characterised cell library.
type Library struct {
	// TechName identifies the process technology.
	TechName string
	// Vdd is the supply voltage used during characterisation.
	Vdd float64
	// Cells maps cell name to model.
	Cells map[string]*CellModel
}

// Cell returns the named cell model.
func (l *Library) Cell(name string) (*CellModel, bool) {
	m, ok := l.Cells[name]
	return m, ok
}

// MustCell returns the named cell model or panics; for use in tests and
// examples where absence is a programming error.
func (l *Library) MustCell(name string) *CellModel {
	m, ok := l.Cells[name]
	if !ok {
		panic(fmt.Sprintf("core: library has no cell %q", name))
	}
	return m
}

// Validate checks every cell in the library.
func (l *Library) Validate() error {
	for name, m := range l.Cells {
		if name != m.Name {
			return fmt.Errorf("core: library key %q does not match cell name %q", name, m.Name)
		}
		if err := m.Validate(); err != nil {
			return err
		}
	}
	return nil
}
