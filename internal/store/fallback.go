package store

import (
	"fmt"
	"strconv"
	"strings"

	"sstiming/internal/alphapower"
	"sstiming/internal/core"
	"sstiming/internal/device"
	"sstiming/internal/fit"
)

// This file is the bottom rung of the load-time fallback ladder: when a
// characterised table is quarantined, the cell is served from a closed-form
// analytic model instead of failing the whole analysis.
//
// The model is built from the Sakurai–Newton alpha-power-law delay calculator
// (internal/alphapower) — the paper's Section 2 "analytical delay function"
// class — evaluated over the default characterisation grid and fitted with
// the same K-coefficient bases (internal/fit) the real characterisation
// uses, so consumers see an ordinary core.CellModel:
//
//   - per-pin delay DR(T): collapsed-inverter alpha-power delay, quadratic
//     fit (position-blind — all pins share one curve, the known limitation
//     of this model class the paper's Figure 10 quantifies);
//   - output transition: drive-limited slew 0.8·CL·Vdd/ID0;
//   - zero-skew pair delay D0R(Tx,Ty): two collapsed parallel devices
//     (ID0 doubled) at the mean transition time, cube-root product fit;
//   - skew threshold SR(Tx,Ty): the lagging input stops helping once the
//     single-input response (plus half the output slew) has completed;
//   - k-way speed-up factors: collapsed k-wide drive ratios.
//
// Accuracy is that of the analytic class (tens of percent), which is the
// point: a degraded-but-sane answer with explicit provenance beats both a
// crash and a silently-wrong table.

// analyticGrid is the transition-time grid the fallback formulas are fitted
// over (the default characterisation grid).
var analyticGrid = []float64{0.1e-9, 0.25e-9, 0.5e-9, 0.9e-9, 1.5e-9}

// ParseCellName splits a library cell name into kind ("INV", "NAND", "NOR")
// and input count.
func ParseCellName(name string) (kind string, n int, err error) {
	if name == "INV" {
		return "INV", 1, nil
	}
	for _, k := range []string{"NAND", "NOR"} {
		if strings.HasPrefix(name, k) {
			n, err := strconv.Atoi(name[len(k):])
			if err != nil || n < 2 || n > 8 {
				return "", 0, fmt.Errorf("store: unsupported cell name %q", name)
			}
			return k, n, nil
		}
	}
	return "", 0, fmt.Errorf("store: unsupported cell name %q", name)
}

// analyticCell carries the per-cell drive/load quantities of the fallback.
type analyticCell struct {
	tech *device.Tech
	kind string
	n    int
	// refLoad is the characterisation reference load (one inverter input).
	refLoad float64
	// outDiff is the gate's own output diffusion capacitance.
	outDiff float64
}

func newAnalyticCell(kind string, n int, tech *device.Tech) analyticCell {
	nDiff := tech.NMOS.DiffCap(tech.MinGeom(device.NMOS))
	pDiff := tech.PMOS.DiffCap(tech.MinGeom(device.PMOS))
	var outDiff float64
	switch kind {
	case "NAND":
		// n PMOS drains plus the top of the NMOS stack.
		outDiff = float64(n)*pDiff + nDiff
	case "NOR":
		outDiff = float64(n)*nDiff + pDiff
	default:
		outDiff = nDiff + pDiff
	}
	return analyticCell{tech: tech, kind: kind, n: n, refLoad: tech.InverterInputCap(), outDiff: outDiff}
}

// drive returns the alpha-power parameters and total switched load for k
// simultaneously switching inputs of the given response direction.
// ctrl selects the to-controlling response (parallel devices, drive ×k);
// the to-non-controlling response discharges through the series stack
// (drive ÷n) and k is ignored.
func (a analyticCell) drive(ctrl bool, k int) (alphapower.Params, float64) {
	nGeom := a.tech.MinGeom(device.NMOS)
	pGeom := a.tech.MinGeom(device.PMOS)
	load := a.refLoad + a.outDiff
	switch {
	case a.kind == "NAND" && ctrl, a.kind == "INV" && ctrl:
		// Falling inputs, rising output via parallel PMOS; the pull-up
		// also charges the internal nodes of the off NMOS stack.
		p := alphapower.FromDevice(a.tech, device.PMOS, pGeom).Scale(float64(k))
		stack := float64(a.n-1) * a.tech.NMOS.DiffCap(nGeom) * 2
		return p, load + stack
	case a.kind == "NOR" && ctrl:
		// Rising inputs, falling output via parallel NMOS.
		p := alphapower.FromDevice(a.tech, device.NMOS, nGeom).Scale(float64(k))
		stack := float64(a.n-1) * a.tech.PMOS.DiffCap(pGeom) * 2
		return p, load + stack
	case a.kind == "NOR":
		// Non-controlling: rising output through the series PMOS stack.
		p := alphapower.FromDevice(a.tech, device.PMOS, pGeom).Scale(1 / float64(a.n))
		return p, load
	default:
		// NAND/INV non-controlling: falling output through the series
		// NMOS stack.
		p := alphapower.FromDevice(a.tech, device.NMOS, nGeom).Scale(1 / float64(a.n))
		return p, load
	}
}

// delay is the analytic gate delay for k simultaneous inputs with
// transition time tt and extra load beyond the reference.
func (a analyticCell) delay(ctrl bool, k int, tt, extraLoad float64) (float64, error) {
	p, load := a.drive(ctrl, k)
	return p.Delay(load+extraLoad, tt)
}

// trans is the drive-limited 10-90% output slew for k simultaneous inputs.
func (a analyticCell) trans(ctrl bool, k int, extraLoad float64) float64 {
	p, load := a.drive(ctrl, k)
	return 0.8 * (load + extraLoad) * p.Vdd / p.ID0
}

// AnalyticModel builds the closed-form fallback core.CellModel for the
// named cell in the given technology. The returned model validates and is
// position-blind: every pin and ordered pair shares the collapsed-inverter
// curves.
func AnalyticModel(name string, tech *device.Tech) (*core.CellModel, error) {
	kind, n, err := ParseCellName(name)
	if err != nil {
		return nil, err
	}
	a := newAnalyticCell(kind, n, tech)

	model := &core.CellModel{
		Name:          name,
		Kind:          kind,
		N:             n,
		CtrlOutRising: kind != "NOR",
		RefLoad:       a.refLoad,
	}

	pinCtrl, err := a.fitPin(true)
	if err != nil {
		return nil, err
	}
	pinNC, err := a.fitPin(false)
	if err != nil {
		return nil, err
	}
	for pin := 0; pin < n; pin++ {
		model.CtrlPins = append(model.CtrlPins, pinCtrl)
		model.NonCtrlPins = append(model.NonCtrlPins, pinNC)
	}
	if n >= 2 {
		pt, err := a.fitPairTiming()
		if err != nil {
			return nil, err
		}
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				if x != y {
					model.Pairs = append(model.Pairs, core.PairEntry{X: x, Y: y, Timing: pt})
				}
			}
		}
	}
	// k-way speed-up: ratio of the collapsed k-wide to the collapsed
	// pairwise delay at the middle grid point, clamped and non-increasing
	// (the STA lower bound relies on monotonicity).
	if n >= 3 {
		ttMid := analyticGrid[len(analyticGrid)/2]
		d2, err := a.delay(true, 2, ttMid, 0)
		if err != nil {
			return nil, err
		}
		prev := 1.0
		for k := 3; k <= n; k++ {
			dk, err := a.delay(true, k, ttMid, 0)
			if err != nil {
				return nil, err
			}
			f := 1.0
			if d2 > 0 {
				f = dk / d2
			}
			if f > prev {
				f = prev
			}
			if f < 0.1 {
				f = 0.1
			}
			if f > 1 {
				f = 1
			}
			model.MultiFactor = append(model.MultiFactor, f)
			prev = f
		}
	}
	if err := model.Validate(); err != nil {
		return nil, fmt.Errorf("store: analytic fallback for %s invalid: %w", name, err)
	}
	return model, nil
}

// fitPin fits the single-input delay/transition quadratics from the
// analytic samples, plus the closed-form load slopes.
func (a analyticCell) fitPin(ctrl bool) (core.PinTiming, error) {
	var tsNs, dNs, trNs []float64
	for _, tt := range analyticGrid {
		d, err := a.delay(ctrl, 1, tt, 0)
		if err != nil {
			return core.PinTiming{}, fmt.Errorf("store: analytic delay: %w", err)
		}
		tsNs = append(tsNs, tt/1e-9)
		dNs = append(dNs, d/1e-9)
		trNs = append(trNs, a.trans(ctrl, 1, 0)/1e-9)
	}
	delay, _, err := fit.FitQuad(tsNs, dNs)
	if err != nil {
		return core.PinTiming{}, fmt.Errorf("store: analytic delay fit: %w", err)
	}
	trans, _, err := fit.FitQuad(tsNs, trNs)
	if err != nil {
		return core.PinTiming{}, fmt.Errorf("store: analytic transition fit: %w", err)
	}
	p, _ := a.drive(ctrl, 1)
	return core.PinTiming{
		Delay: delay,
		Trans: trans,
		// d(drive term)/d(CL) of the alpha-power delay and slew formulas.
		DelayLoadSlope: p.Vdd / (2 * p.ID0),
		TransLoadSlope: 0.8 * p.Vdd / p.ID0,
	}, nil
}

// fitPairTiming fits the simultaneous-switching surfaces from the
// closed-form samples: D0/T0 with doubled drive at the mean transition
// time, SR as the completed single-input response, SKmin at zero.
func (a analyticCell) fitPairTiming() (core.PairTiming, error) {
	var txNs, tyNs, d0Ns, t0Ns, srNs []float64
	for _, tx := range analyticGrid {
		for _, ty := range analyticGrid {
			teq := (tx + ty) / 2
			d0, err := a.delay(true, 2, teq, 0)
			if err != nil {
				return core.PairTiming{}, fmt.Errorf("store: analytic pair delay: %w", err)
			}
			d1, err := a.delay(true, 1, tx, 0)
			if err != nil {
				return core.PairTiming{}, fmt.Errorf("store: analytic pair delay: %w", err)
			}
			txNs = append(txNs, tx/1e-9)
			tyNs = append(tyNs, ty/1e-9)
			d0Ns = append(d0Ns, d0/1e-9)
			t0Ns = append(t0Ns, a.trans(true, 2, 0)/1e-9)
			srNs = append(srNs, (d1+0.5*a.trans(true, 1, 0))/1e-9)
		}
	}
	// The analytic class has no skew structure for the transition minimum;
	// SKmin stays zero.
	var pt core.PairTiming
	var err error
	if pt.D0, _, err = fit.FitCrossPaper(txNs, tyNs, d0Ns); err != nil {
		return core.PairTiming{}, fmt.Errorf("store: analytic D0 fit: %w", err)
	}
	if pt.T0, _, err = fit.FitCrossPaper(txNs, tyNs, t0Ns); err != nil {
		return core.PairTiming{}, fmt.Errorf("store: analytic T0 fit: %w", err)
	}
	if pt.SX, _, err = fit.FitQuad2(txNs, tyNs, srNs); err != nil {
		return core.PairTiming{}, fmt.Errorf("store: analytic SR fit: %w", err)
	}
	return pt, nil
}
