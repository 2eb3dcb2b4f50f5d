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
// peaking at zero skew. pairAt builds and reads the shape, and nothing else
// does. The V is evaluated by CtrlResponse (timing simulation) and by the
// Figure 8 corner rules written here, one function each: EarliestCtrl
// (STA/ITR's earliest-arrival and shortest-transition corners) and
// FastestCtrl (the backward pass's fastest arc); the Λ by
// NonCtrlResponseExt and LatestNonCtrl (the NCExtension latest corners).
// The pin-to-pin rules are written here once too: PinTiming.Bounds and
// Range are Figure 9's extrema over a transition-time range, and one
// earliest-or-latest combine backs CtrlResponse's single-event case,
// NonCtrlResponse and PinToPinCtrlResponse. The timing layers (twindow,
// tgraph, sta, logicsim) call these and read no surface themselves; make
// vet enforces it.
//
// # Cube roots once per input
//
// The zero-skew surfaces D0 and T0 read the cube roots of both transition
// times, and nothing else in the model does. A corner rule roots each
// candidate's transition-time bounds once for every pair and corner that
// reads them; CtrlResponse roots each event's transition time once. The
// per-call evaluators (DelayCtrl2 and its three siblings) and Cross.Eval
// root per call and give the same bits: the root of one float64 is one
// float64, and the arithmetic after it is unchanged. Without pair surfaces
// a pair evaluation is the pin-to-pin step, which reads no root, so none
// is taken.
//
// # Each surface once per gate
//
// A corner rule evaluates each surface once per gate evaluation and no
// more. It resolves each ordered pair once (a scan of the cell's pairs).
// The candidates carry their pin-to-pin values at both transition-time
// bounds, which PinTiming.Bounds evaluates once per pin beside Figure 9's
// extrema; these are the arm values of every pair shape the pin takes part
// in. SX is evaluated once per ordered pair and corner, and the mirror
// pair (y, x) at the mirrored corner reads the same two values. SKmin is
// evaluated once per ordered pair, for both the clamped skew and the apex.
// At zero skew the V returns its apex value, so FastestCtrl reads D0 and
// the two arm values and no threshold. Per evaluation of a NAND2
// to-controlling arc under ModeProposed, both inputs switching:
//
//	                     Quad.Eval  Quad2.Eval  pair lookups
//	forward, before          36         24          22
//	forward, after            8         10           2
//	backward, before         20          4           4
//	backward, after           4          0           2
//
// Every float is unchanged at finite transition times. Each value is
// computed by the same expression from the same operands as before, and
// the min and max over pairs and corners see the same set of values, in
// another order that a strict comparison cannot tell apart (no NaN wins
// it, and no two candidates are zeros of opposite sign). FastestCtrl's
// apex value is what the shape returned at zero skew, atApex plus a zero.
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
	return c.EvalRoots(root(txSec), root(tySec))
}

// EvalRoots evaluates the surface at x = Tx^⅓ and y = Ty^⅓ (Tx, Ty in
// nanoseconds) and returns seconds.
func (c Cross) EvalRoots(x, y float64) float64 {
	v := c.Kxy*x*y + c.Kx*x + c.Ky*y + c.K1
	v += c.Kxx*x*x + c.Kyy*y*y + c.Kxxy*x*x*y + c.Kxyy*x*y*y
	return v * ns
}

// root returns the cube root of transition time tSec in nanoseconds,
// (tSec/1 ns)^⅓: the argument the zero-skew surfaces D0 and T0 read.
func root(tSec float64) float64 { return math.Cbrt(tSec / ns) }

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

// extrema returns the quadratic's values at loSec and hiSec and its
// minimum and maximum over [loSec, hiSec]: MinOver's and MaxOver's values,
// bit for bit, with each endpoint evaluated once.
func (q Quad) extrema(loSec, hiSec float64) (atLo, atHi, min, max float64) {
	atLo, atHi = q.Eval(loSec), q.Eval(hiSec)
	min, max = atLo, atLo
	if atHi < min {
		min = atHi
	}
	if atHi > max {
		max = atHi
	}
	if q.K[0] != 0 {
		// The interior valley (convex) or peak (concave, PeakT).
		if t := -q.K[1] / (2 * q.K[0]) * ns; t > loSec && t < hiSec {
			if v := q.Eval(t); q.K[0] > 0 && v < min {
				min = v
			} else if q.K[0] < 0 && v > max {
				max = v
			}
		}
	}
	return atLo, atHi, min, max
}

// Range returns the extrema of the pin-to-pin delay and output transition
// time over input transition times in [tsSec, tlSec] at the reference load
// (Figure 9: an endpoint, or the interior peak or valley when it falls
// inside the range). Callers add the load terms.
func (p *PinTiming) Range(tsSec, tlSec float64) (dMin, dMax, tMin, tMax float64) {
	_, _, dMin, dMax = p.Delay.extrema(tsSec, tlSec)
	_, _, tMin, tMax = p.Trans.extrema(tsSec, tlSec)
	return dMin, dMax, tMin, tMax
}

// PinBounds is one pin's timing over an input transition-time range
// [TS, TL] at one load, the load terms included: Figure 9's extrema, and
// the values at TS and TL, which are the arm values of every pair shape
// the pin takes part in (DelayAt and TransAt there, bit for bit).
type PinBounds struct {
	DMin, DMax, TMin, TMax             float64
	DelayTS, DelayTL, TransTS, TransTL float64
	// LoadD and LoadT are the load terms included in every delay and
	// every transition time above.
	LoadD, LoadT float64
}

// Bounds sets *b to the pin's bounds over input transition times in
// [tsSec, tlSec] with extraLoad farads beyond the reference load, in one
// pass: each quadratic is evaluated once at each end. It writes through b
// because a returned PinBounds was copied through memory, at about 12% of
// a c7552 build (go test -bench, 2-vCPU x86-64 host).
func (p *PinTiming) Bounds(b *PinBounds, tsSec, tlSec, extraLoad float64) {
	p.DelayBounds(b, tsSec, tlSec, extraLoad)
	b.LoadT = p.TransLoadSlope * extraLoad
	tS, tL, tMin, tMax := p.Trans.extrema(tsSec, tlSec)
	b.TMin, b.TMax, b.TransTS, b.TransTL = tMin+b.LoadT, tMax+b.LoadT, tS+b.LoadT, tL+b.LoadT
}

// DelayBounds is Bounds for the delays alone; it leaves the transition
// times in *b as they were. The backward pass reads delays only.
func (p *PinTiming) DelayBounds(b *PinBounds, tsSec, tlSec, extraLoad float64) {
	b.LoadD = p.DelayLoadSlope * extraLoad
	dS, dL, dMin, dMax := p.Delay.extrema(tsSec, tlSec)
	b.DMin, b.DMax, b.DelayTS, b.DelayTL = dMin+b.LoadD, dMax+b.LoadD, dS+b.LoadD, dL+b.LoadD
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

// resolve returns the surfaces of ordered pair (x, y) in pairs and of its
// mirror (y, x), or two nils unless both orders were characterised: the
// pair is then the pin-to-pin step.
func resolve(pairs []PairEntry, x, y int) (xy, yx *PairTiming) {
	xy, yx = lookup(pairs, x, y), lookup(pairs, y, x)
	if xy == nil || yx == nil {
		return nil, nil
	}
	return xy, yx
}

// pairAt evaluates quantity q of ordered pair (x, y) at skew skewSec: it
// builds the pair's skew shape and reads it. xy holds the pair's surfaces,
// or nil for the pin-to-pin step (either order not characterised), which
// reads nothing but vx and vy. The caller evaluates everything else once
// for every shape that reads it: vx and vy, the two pins' pin-to-pin values
// of q at their transition times tx and ty (the arm values); load, x's load
// term for q; sxXY = SX_xy(tx, ty) and sxYX = SX_yx(ty, tx), the two
// orders' raw thresholds, which the mirror pair (y, x) at (ty, tx) reads
// swapped; rx and ry, the roots of tx and ty; and skm = SKmin_xy(tx, ty),
// read by ctrlTrans only. They are arguments, not a struct, so they stay
// in registers.
// The arms are the pair's SX thresholds, at least minSkewWidth from zero;
// beyond them the earlier input alone sets a to-controlling response and
// the later one a to-non-controlling response, so each arm settles to that
// input's pin-to-pin value. The apex value is the pair's zero-skew surface,
// clamped to be the V's minimum (Claim 1) or the Λ's peak. The shape is
// built and read in one frame: returned to the caller, it was copied
// through memory and the evaluators ran about 20% slower (go test -bench,
// 2-vCPU x86-64 host).
func pairAt(q quantity, xy *PairTiming, sxXY, sxYX, rx, ry, skm, vx, vy, load, skewSec float64) float64 {
	nc := q >= ncDelay
	atLo, atHi := vy, vx
	if nc {
		atLo, atHi = vx, vy
	}
	if xy == nil {
		return skewShape{atLo: atLo, atHi: atHi, step: true}.at(skewSec)
	}

	hi := sxXY
	if hi < minSkewWidth {
		hi = minSkewWidth
	}
	lo := -sxYX
	if lo > -minSkewWidth {
		lo = -minSkewWidth
	}
	surf := &xy.D0
	if q == ctrlTrans || q == ncTrans {
		surf = &xy.T0
	}
	v0 := apexValue(nc, surf, rx, ry, load, vx, vy)
	apex := 0.0
	if q == ctrlTrans {
		// The transition-time minimum sits at SKmin, kept strictly inside
		// the arms, and stays positive.
		apex = skm
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

// apexValue is a pair shape's value at its apex: the zero-skew surface at
// roots rx and ry plus load, clamped to be at most both arm values (the
// V's minimum, Claim 1) or, for a Λ (nc), at least both (its peak).
func apexValue(nc bool, surf *Cross, rx, ry, load, vx, vy float64) float64 {
	v0 := surf.EvalRoots(rx, ry) + load
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
	return v0
}

// evalPair is the per-call evaluation of quantity q of ordered pair (x, y)
// at input transition times tx and ty, skew skewSec and extraLoad farads
// beyond the reference load: it resolves the pair, evaluates both arm
// values and reads the shape.
func (m *CellModel) evalPair(q quantity, x, y int, tx, ty, skewSec, extraLoad float64) float64 {
	pins, pairs := m.CtrlPins, m.Pairs
	if q >= ncDelay {
		pins, pairs = m.NonCtrlPins, m.NCPairs
	}
	px, py := &pins[x], &pins[y]
	xy, yx := resolve(pairs, x, y)
	var sxXY, sxYX, rx, ry float64
	if xy != nil {
		sxXY, sxYX, rx, ry = xy.SX.Eval(tx, ty), yx.SX.Eval(ty, tx), root(tx), root(ty)
	}
	if q == ctrlTrans || q == ncTrans {
		skm := 0.0
		if q == ctrlTrans && xy != nil {
			skm = xy.SKmin.Eval(tx, ty)
		}
		return pairAt(q, xy, sxXY, sxYX, rx, ry, skm, px.TransAt(tx, extraLoad), py.TransAt(ty, extraLoad), px.TransLoadSlope*extraLoad, skewSec)
	}
	return pairAt(q, xy, sxXY, sxYX, rx, ry, 0, px.DelayAt(tx, extraLoad), py.DelayAt(ty, extraLoad), px.DelayLoadSlope*extraLoad, skewSec)
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
	return m.evalPair(ctrlDelay, x, y, txSec, tySec, skewSec, extraLoad)
}

// TransCtrl2 evaluates the output transition time of the to-controlling
// response for the ordered pair (x, y) under the same conventions as
// DelayCtrl2. The V-shape minimum T0 sits at skew SKmin, which may be
// non-zero.
func (m *CellModel) TransCtrl2(x, y int, txSec, tySec, skewSec, extraLoad float64) float64 {
	return m.evalPair(ctrlTrans, x, y, txSec, tySec, skewSec, extraLoad)
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
		root float64
	}
	evs := make([]rootedEvent, len(events))
	for i, e := range events {
		evs[i].InputEvent = e
		if len(m.Pairs) > 0 {
			evs[i].root = root(e.Trans)
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Arrival < evs[j].Arrival })

	// Pairwise minimum over all ordered pairs: each pair's candidate
	// output arrival is min(Ax,Ay) + dpair. Track the winning pair for
	// the output transition time. Each pair is resolved once, for its
	// delay and its transition time.
	bestArr := math.Inf(1)
	bestTrans := 0.0
	var bestDelay float64
	var bestBase float64
	for i := 0; i < len(evs); i++ {
		for j := i + 1; j < len(evs); j++ {
			x, y := &evs[i], &evs[j]
			px, py := &m.CtrlPins[x.Pin], &m.CtrlPins[y.Pin]
			xy, yx := resolve(m.Pairs, x.Pin, y.Pin)
			var sxXY, sxYX float64
			if xy != nil {
				sxXY, sxYX = xy.SX.Eval(x.Trans, y.Trans), yx.SX.Eval(y.Trans, x.Trans)
			}
			skew := y.Arrival - x.Arrival
			d := pairAt(ctrlDelay, xy, sxXY, sxYX, x.root, y.root, 0, px.DelayAt(x.Trans, extraLoad), py.DelayAt(y.Trans, extraLoad), px.DelayLoadSlope*extraLoad, skew)
			base := math.Min(x.Arrival, y.Arrival)
			if cand := base + d; cand < bestArr {
				bestArr = cand
				bestDelay = d
				bestBase = base
				skm := 0.0
				if xy != nil {
					skm = xy.SKmin.Eval(x.Trans, y.Trans)
				}
				bestTrans = pairAt(ctrlTrans, xy, sxXY, sxYX, x.root, y.root, skm, px.TransAt(x.Trans, extraLoad), py.TransAt(y.Trans, extraLoad), px.TransLoadSlope*extraLoad, skew)
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
