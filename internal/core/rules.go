package core

import "math"

// This file holds the Figure 8 corner rules over a gate's candidate
// inputs, as STA, ITR and the backward pass evaluate them once per gate:
// each resolves every pair once, evaluates each SX once per ordered pair
// and corner (shared by the mirror pair) and SKmin once per ordered pair,
// and takes its arm values from the candidates' PinBounds (see the
// package doc, "Each surface once per gate").

// Candidate is one gate input that can make a transition in the direction
// a corner rule evaluates: its pin, its arrival and transition-time
// bounds, and its pin-to-pin bounds over [TS, TL] on the rule's pin table
// at the gate's load (PinTiming.Bounds, or DelayBounds for FastestCtrl).
type Candidate struct {
	Pin int
	// Definite is set when the input certainly transitions (state SYes).
	// The corner rules do not read it; the window combiners of the timing
	// layers do.
	Definite       bool
	AS, AL, TS, TL float64
	PinBounds
	// rs and rl are the roots of TS and TL, taken by the rules that read
	// pair surfaces.
	rs, rl float64
}

// rootAll takes the roots of the candidates' shortest transition times,
// and of their longest too when tl is set, once for every pair and corner
// that reads them. Only pair surfaces read them, so a cell without any
// (pairs empty) takes none.
func rootAll(pairs []PairEntry, ins []Candidate, tl bool) {
	if len(pairs) == 0 {
		return
	}
	for i := range ins {
		in := &ins[i]
		in.rs = root(in.TS)
		if tl {
			in.rl = root(in.TL)
		}
	}
}

// cornerTable holds one ordered pair's thresholds at the four corners of
// its transition-time box: [a][b] is SX_uv at (u's bound a, v's bound b),
// bound 0 the shortest and 1 the longest.
type cornerTable [2][2]float64

// thresholds resolves the unordered pair {u, v} of pairs: it returns the
// surfaces of (u, v) and (v, u), nil where an order was not characterised,
// and, when both were, each order's SX at the four corners.
func thresholds(pairs []PairEntry, u, v *Candidate) (uv, vu *PairTiming, suv, svu cornerTable) {
	uv, vu = lookup(pairs, u.Pin, v.Pin), lookup(pairs, v.Pin, u.Pin)
	if uv == nil || vu == nil {
		return uv, vu, suv, svu
	}
	tu, tv := [2]float64{u.TS, u.TL}, [2]float64{v.TS, v.TL}
	for a := range tu {
		for b := range tv {
			suv[a][b] = uv.SX.Eval(tu[a], tv[b])
			svu[b][a] = vu.SX.Eval(tv[b], tu[a])
		}
	}
	return uv, vu, suv, svu
}

// shape returns the surfaces pairAt reads for ordered pair (u, v), with
// uv and vu as thresholds returned them: nil, the pin-to-pin step, unless
// both orders were characterised.
func shape(uv, vu *PairTiming) *PairTiming {
	if vu == nil {
		return nil
	}
	return uv
}

// EarliestCtrl applies Figure 8's earliest-arrival and shortest-transition
// rules (A_R,S and T_R,S) to every ordered pair of to-controlling
// candidates ins and returns as and ts lowered by them. The earliest
// arrival is the pair's earlier arrival plus the V's delay at the
// earliest-arrival skew, minimised over the four transition-time corners;
// with k >= 3 candidates the extended model's n-way speed-up factor scales
// that delay. The shortest transition is the V at both shortest transition
// times, at the achievable skew closest to SKmin.
func (m *CellModel) EarliestCtrl(ins []Candidate, as, ts float64) (float64, float64) {
	multi := 1.0
	if k := len(ins); k >= 3 && len(m.MultiFactor) >= k-2 {
		if f := m.MultiFactor[k-3]; f > 0 && f < 1 {
			multi = f
		}
	}
	rootAll(m.Pairs, ins, true)
	for i := range ins {
		for j := i + 1; j < len(ins); j++ {
			x, y := &ins[i], &ins[j]
			xy, yx, sxy, syx := thresholds(m.Pairs, x, y)
			as, ts = earliestPair(xy, yx, &sxy, &syx, x, y, multi, as, ts)
			as, ts = earliestPair(yx, xy, &syx, &sxy, y, x, multi, as, ts)
		}
	}
	return as, ts
}

// earliestPair is EarliestCtrl for ordered pair (u, v), with uv, vu, suv
// and svu as thresholds returned them. The corners are written out, not
// looped over: indexed, the candidates' bounds went through memory.
func earliestPair(uv, vu *PairTiming, suv, svu *cornerTable, u, v *Candidate, multi, as, ts float64) (float64, float64) {
	p := shape(uv, vu)
	skew := v.AS - u.AS
	base := math.Min(u.AS, v.AS)
	for _, d := range [4]float64{
		pairAt(ctrlDelay, p, suv[0][0], svu[0][0], u.rs, v.rs, 0, u.DelayTS, v.DelayTS, u.LoadD, skew),
		pairAt(ctrlDelay, p, suv[0][1], svu[1][0], u.rs, v.rl, 0, u.DelayTS, v.DelayTL, u.LoadD, skew),
		pairAt(ctrlDelay, p, suv[1][0], svu[0][1], u.rl, v.rs, 0, u.DelayTL, v.DelayTS, u.LoadD, skew),
		pairAt(ctrlDelay, p, suv[1][1], svu[1][1], u.rl, v.rl, 0, u.DelayTL, v.DelayTL, u.LoadD, skew),
	} {
		if t := base + d*multi; t < as {
			as = t
		}
	}
	// SK_t,min of (u, v) as fitted (SKminAt), whether or not the mirror
	// order was characterised, clamped to the achievable skew range.
	skm := 0.0
	if uv != nil {
		skm = uv.SKmin.Eval(u.TS, v.TS)
	}
	skew = skm
	if lo := v.AS - u.AL; skew < lo {
		skew = lo
	}
	if hi := v.AL - u.AS; skew > hi {
		skew = hi
	}
	if t := pairAt(ctrlTrans, p, suv[0][0], svu[0][0], u.rs, v.rs, skm, u.TransTS, v.TransTS, u.LoadT, skew); t < ts {
		ts = t
	}
	return as, ts
}

// LatestNonCtrl applies the Section 3.6 extension's latest corners to
// every ordered pair of to-non-controlling candidates ins and returns al
// and tl raised by them: both transitions at their latest arrivals, the
// skew as close to the Λ's peak (zero) as the windows allow, over the four
// transition-time corners. Without characterised NC pairs it returns al
// and tl unchanged.
func (m *CellModel) LatestNonCtrl(ins []Candidate, al, tl float64) (float64, float64) {
	if len(m.NCPairs) == 0 {
		return al, tl
	}
	rootAll(m.NCPairs, ins, true)
	for i := range ins {
		for j := i + 1; j < len(ins); j++ {
			x, y := &ins[i], &ins[j]
			xy, yx, sxy, syx := thresholds(m.NCPairs, x, y)
			al, tl = latestPair(shape(xy, yx), &sxy, &syx, x, y, al, tl)
			al, tl = latestPair(shape(yx, xy), &syx, &sxy, y, x, al, tl)
		}
	}
	return al, tl
}

// latestPair is LatestNonCtrl for ordered pair (u, v), with p =
// shape(uv, vu) and suv, svu as thresholds returned them.
func latestPair(p *PairTiming, suv, svu *cornerTable, u, v *Candidate, al, tl float64) (float64, float64) {
	skew := 0.0
	if lo := v.AS - u.AL; skew < lo {
		skew = lo
	}
	if hi := v.AL - u.AS; skew > hi {
		skew = hi
	}
	base := math.Max(u.AL, v.AL)
	for _, d := range [4]float64{
		pairAt(ncDelay, p, suv[0][0], svu[0][0], u.rs, v.rs, 0, u.DelayTS, v.DelayTS, u.LoadD, skew),
		pairAt(ncDelay, p, suv[0][1], svu[1][0], u.rs, v.rl, 0, u.DelayTS, v.DelayTL, u.LoadD, skew),
		pairAt(ncDelay, p, suv[1][0], svu[0][1], u.rl, v.rs, 0, u.DelayTL, v.DelayTS, u.LoadD, skew),
		pairAt(ncDelay, p, suv[1][1], svu[1][1], u.rl, v.rl, 0, u.DelayTL, v.DelayTL, u.LoadD, skew),
	} {
		if t := base + d; t > al {
			al = t
		}
	}
	for _, t := range [4]float64{
		pairAt(ncTrans, p, suv[0][0], svu[0][0], u.rs, v.rs, 0, u.TransTS, v.TransTS, u.LoadT, skew),
		pairAt(ncTrans, p, suv[0][1], svu[1][0], u.rs, v.rl, 0, u.TransTS, v.TransTL, u.LoadT, skew),
		pairAt(ncTrans, p, suv[1][0], svu[0][1], u.rl, v.rs, 0, u.TransTL, v.TransTS, u.LoadT, skew),
		pairAt(ncTrans, p, suv[1][1], svu[1][1], u.rl, v.rl, 0, u.TransTL, v.TransTL, u.LoadT, skew),
	} {
		if t > tl {
			tl = t
		}
	}
	return al, tl
}

// FastestCtrl lowers each to-controlling candidate's DMin to its delay
// with each other candidate switching at zero skew, both at their shortest
// transition times: the backward pass's fastest arc. At zero skew the V
// reads its apex, the zero-skew surface clamped by the two arm values, so
// no threshold is evaluated; without both pair orders it is the step's
// value there, the candidate's own pin-to-pin delay. ins need only
// DelayBounds.
func (m *CellModel) FastestCtrl(ins []Candidate) {
	rootAll(m.Pairs, ins, false)
	for i := range ins {
		for j := i + 1; j < len(ins); j++ {
			x, y := &ins[i], &ins[j]
			dxy, dyx := x.DelayTS, y.DelayTS
			if xy, yx := resolve(m.Pairs, x.Pin, y.Pin); xy != nil {
				dxy = apexValue(false, &xy.D0, x.rs, y.rs, x.LoadD, x.DelayTS, y.DelayTS)
				dyx = apexValue(false, &yx.D0, y.rs, x.rs, y.LoadD, y.DelayTS, x.DelayTS)
			}
			if dxy < x.DMin {
				x.DMin = dxy
			}
			if dyx < y.DMin {
				y.DMin = dyx
			}
		}
	}
}
