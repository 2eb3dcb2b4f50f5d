package conformance

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"sstiming/internal/baseline"
	"sstiming/internal/core"
	"sstiming/internal/engine"
	"sstiming/internal/flatsim"
	"sstiming/internal/logicsim"
	"sstiming/internal/netlist"
	"sstiming/internal/nineval"
	"sstiming/internal/spice"
	"sstiming/internal/sta"
)

// Check is one cross-model invariant: a name for selection and reporting, a
// description for the CLI listing, and a run function that examines one
// seed's artefacts, recording violations (shrunk to minimal counterexamples)
// on the seedEnv. The run function returns an error only for harness
// failures — an oracle that cannot run at all — never for disagreements.
type Check struct {
	Name string
	Desc string
	run  func(e *seedEnv) error
}

// AllChecks returns every check in canonical execution order.
func AllChecks() []Check {
	return []Check{
		{
			Name: "logic-flat",
			Desc: "gate-level event times track the flattened transistor-level simulation within tolerance",
			run:  checkLogicFlat,
		},
		{
			Name: "flat-sta",
			Desc: "STA windows contain every transistor-level event (with model-error slack)",
			run:  checkFlatSTA,
		},
		{
			Name: "sta-sound",
			Desc: "STA min-max windows are valid and contain every simulated event (both delay models)",
			run:  checkSTASound,
		},
		{
			Name: "itr-subset",
			Desc: "ITR windows equal STA for the empty cube and shrink to subsets under full cubes",
			run:  checkITRSubset,
		},
		{
			Name: "itr-sound",
			Desc: "ITR-refined windows still contain the simulated event of the refining vector pair",
			run:  checkITRSound,
		},
		{
			Name: "model-vshape",
			Desc: "dR(δ) is V-shaped piecewise-linear in skew: minimum at zero, linear arms, pin-to-pin saturation",
			run:  checkModelVShape,
		},
		{
			Name: "model-corners",
			Desc: "timing functions are monotonic or bi-tonic per argument and MinOver/MaxOver find the true extrema",
			run:  checkModelCorners,
		},
		{
			Name: "model-ss-min",
			Desc: "simultaneous switching never predicts slower than the pin-to-pin baseline (to-controlling)",
			run:  checkModelSSMin,
		},
		{
			Name: "delta-full",
			Desc: "incremental timing-graph edits stay byte-identical to from-scratch recomputation after every step of a random edit/retract script",
			run:  checkDeltaFull,
		},
	}
}

// selectChecks resolves a name filter against AllChecks.
func selectChecks(names []string) ([]Check, error) {
	all := AllChecks()
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]Check, len(all))
	for _, ck := range all {
		byName[ck.Name] = ck
	}
	var out []Check
	for _, n := range names {
		ck, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("conformance: unknown check %q", n)
		}
		out = append(out, ck)
	}
	return out, nil
}

// flatStimulus is the PI stimulus flatsim applies by default; the gate-level
// runs compared against it must match.
var flatStimulus = sta.PITiming{
	ArrivalEarly: 1e-9, ArrivalLate: 1e-9,
	TransShort: 0.2e-9, TransLong: 0.2e-9,
}

// flat runs (once) the flattened transistor-level oracle on the first
// FlatTrials vector pairs. A nil entry with a nil error marks a trial
// skipped because the circuit exceeds the dense-solver limit.
func (e *seedEnv) flat() ([]*flatsim.Result, []error, error) {
	if e.flatDone {
		return e.flats, e.flatErrs, nil
	}
	c, err := e.circuit()
	if err != nil {
		return nil, nil, err
	}
	vecs, err := e.vectors()
	if err != nil {
		return nil, nil, err
	}
	n := e.opts.FlatTrials
	if n > len(vecs) {
		n = len(vecs)
	}
	if n < 0 {
		n = 0
	}
	e.flats = make([]*flatsim.Result, n)
	e.flatErrs = make([]error, n)
	for i := 0; i < n; i++ {
		fo := flatsim.Options{Ctx: e.ctx, Metrics: e.opts.Metrics}
		if e.opts.NewFaultHook != nil {
			fo.FaultHook = e.opts.NewFaultHook()
		}
		res, err := flatsim.Simulate(c, vecs[i][0], vecs[i][1], fo)
		if errors.Is(err, engine.ErrCancelled) {
			return nil, nil, err
		}
		if err != nil && spice.IsRecoverable(err) {
			// The solver never converged even through its recovery
			// ladder: the trial yields no oracle data, so the checks
			// count a skip (nil result, nil error) instead of blaming
			// the timing model for a numerical failure.
			continue
		}
		if errors.Is(err, flatsim.ErrTooLarge) {
			// Oversized generated circuit: the campaign counts the
			// skip instead of failing (satellite of the MaxNodes
			// hard-error path).
			continue
		}
		e.flats[i], e.flatErrs[i] = res, err
	}
	e.flatDone = true
	return e.flats, e.flatErrs, nil
}

// gateLevelFlat runs the gate-level simulation under flatsim's stimulus.
func (e *seedEnv) gateLevelFlat(c *netlist.Circuit, v1, v2 logicsim.Vector) (*logicsim.Result, error) {
	return logicsim.Simulate(c, v1, v2, logicsim.Options{
		Lib:         e.lib,
		Mode:        sta.ModeProposed,
		PIArrival:   flatStimulus.ArrivalEarly,
		PITrans:     flatStimulus.TransShort,
		NCExtension: e.opts.NCExtension,
	})
}

// checkLogicFlat cross-checks the two simulators: every transistor-level
// event must exist at gate level with the same direction, and the arrival
// disagreement must stay inside the (abs, rel) tolerance pair — the paper's
// accuracy claim on random topologies instead of fixed benches.
func checkLogicFlat(e *seedEnv) error {
	st := e.stat("logic-flat")
	c, err := e.circuit()
	if err != nil {
		return err
	}
	vecs, err := e.vectors()
	if err != nil {
		return err
	}
	flats, flatErrs, err := e.flat()
	if err != nil {
		return err
	}
	for trial := range flats {
		v1, v2 := vecs[trial][0], vecs[trial][1]
		if flatErrs[trial] != nil {
			// The analogue simulation disagreed with the expected
			// logic (or a transition failed to complete): that is a
			// conformance violation, not a harness error.
			sv1, sv2 := formatVectors(c, v1, v2)
			e.report(Violation{
				Check:  "logic-flat",
				Detail: fmt.Sprintf("transistor-level simulation rejected the gate-level expectation: %v", flatErrs[trial]),
				Bench:  benchText(c),
				V1:     sv1,
				V2:     sv2,
			})
			st.Checked++
			continue
		}
		if flats[trial] == nil {
			e.skip("logic-flat", 1)
			continue
		}
		gate, err := e.gateLevelFlat(c, v1, v2)
		if err != nil {
			return err
		}
		for _, net := range sortedEventNets(flats[trial].Events) {
			fe := flats[trial].Events[net]
			st.Checked++
			ge, ok := gate.Event(net)
			detail := ""
			switch {
			case !ok:
				detail = "transistor level switches but the gate-level model does not"
			case fe.Rising != ge.Rising:
				detail = fmt.Sprintf("direction mismatch: flat %s, gate %s", dir(fe.Rising), dir(ge.Rising))
			default:
				abs := math.Abs(fe.Arrival - ge.Arrival)
				rel := abs / math.Max(fe.Arrival-flatStimulus.ArrivalEarly, 50e-12)
				if abs > e.tol.FlatAbs && rel > e.tol.FlatRel {
					detail = fmt.Sprintf("arrival flat %.4f ns vs gate %.4f ns (abs %.1f ps, rel %.0f%%)",
						fe.Arrival*1e9, ge.Arrival*1e9, abs*1e12, rel*100)
				}
			}
			if detail == "" {
				continue
			}
			net := net
			bench, sv1, sv2 := e.shrink(c, v1, v2, net, func(c *netlist.Circuit, v1, v2 logicsim.Vector) (bool, error) {
				flat, err := flatsim.Simulate(c, v1, v2, flatsim.Options{})
				if err != nil {
					return false, nil // smaller circuit no longer reproduces
				}
				fe, ok := flat.Events[net]
				if !ok {
					return false, nil
				}
				gate, err := e.gateLevelFlat(c, v1, v2)
				if err != nil {
					return false, nil
				}
				ge, ok := gate.Event(net)
				if !ok || fe.Rising != ge.Rising {
					return true, nil
				}
				abs := math.Abs(fe.Arrival - ge.Arrival)
				rel := abs / math.Max(fe.Arrival-flatStimulus.ArrivalEarly, 50e-12)
				return abs > e.tol.FlatAbs && rel > e.tol.FlatRel, nil
			})
			e.report(Violation{Check: "logic-flat", Net: net, Detail: detail, Bench: bench, V1: sv1, V2: sv2})
		}
	}
	return nil
}

// checkFlatSTA checks STA windows against transistor-level reality: the
// windows are computed from the fitted model, so containment holds only up
// to the model's accuracy — the FlatWindow slack.
func checkFlatSTA(e *seedEnv) error {
	st := e.stat("flat-sta")
	c, err := e.circuit()
	if err != nil {
		return err
	}
	vecs, err := e.vectors()
	if err != nil {
		return err
	}
	flats, flatErrs, err := e.flat()
	if err != nil {
		return err
	}
	res, err := sta.Analyze(c, sta.Options{
		Lib: e.lib, Mode: sta.ModeProposed, PI: flatStimulus, NCExtension: e.opts.NCExtension,
	})
	if err != nil {
		return err
	}
	// Slack grows with logic depth: fitted-model error accumulates along a
	// path, and the gate-level buffer approximation adds up to one inverter
	// delay per stage (see Tolerances.FlatPerStage).
	slackAt := func(c *netlist.Circuit, net string) float64 {
		s := e.tol.Window + e.tol.FlatWindow
		if gi, ok := c.Driver(net); ok {
			s += e.tol.FlatPerStage * float64(c.Level(gi))
		}
		return s
	}
	for trial := range flats {
		if flats[trial] == nil {
			if flatErrs[trial] == nil {
				e.skip("flat-sta", 1)
			}
			continue
		}
		v1, v2 := vecs[trial][0], vecs[trial][1]
		for _, net := range sortedEventNets(flats[trial].Events) {
			ev := flats[trial].Events[net]
			st.Checked++
			slack := slackAt(c, net)
			w, ok := res.Window(net, ev.Rising)
			if ok && ev.Arrival >= w.AS-slack && ev.Arrival <= w.AL+slack {
				continue
			}
			detail := fmt.Sprintf("transistor-level arrival %.4f ns outside STA window [%.4f, %.4f] ns (slack %.0f ps)",
				ev.Arrival*1e9, w.AS*1e9, w.AL*1e9, slack*1e12)
			if !ok {
				detail = "no STA window for a net that switches at transistor level"
			}
			net, rising := net, ev.Rising
			bench, sv1, sv2 := e.shrink(c, v1, v2, net, func(c *netlist.Circuit, v1, v2 logicsim.Vector) (bool, error) {
				flat, err := flatsim.Simulate(c, v1, v2, flatsim.Options{})
				if err != nil {
					return false, nil
				}
				ev, ok := flat.Events[net]
				if !ok || ev.Rising != rising {
					return false, nil
				}
				res, err := sta.Analyze(c, sta.Options{
					Lib: e.lib, Mode: sta.ModeProposed, PI: flatStimulus, NCExtension: e.opts.NCExtension,
				})
				if err != nil {
					return false, err
				}
				w, ok := res.Window(net, rising)
				s := slackAt(c, net)
				return !ok || ev.Arrival < w.AS-s || ev.Arrival > w.AL+s, nil
			})
			e.report(Violation{Check: "flat-sta", Net: net, Detail: detail, Bench: bench, V1: sv1, V2: sv2})
		}
	}
	return nil
}

// checkSTASound verifies window soundness: every line's windows are
// structurally valid, and every gate-level simulated event (arrival AND
// transition time) lies inside the matching-mode window.
func checkSTASound(e *seedEnv) error {
	st := e.stat("sta-sound")
	c, err := e.circuit()
	if err != nil {
		return err
	}
	vecs, err := e.vectors()
	if err != nil {
		return err
	}
	for _, mode := range []sta.Mode{sta.ModeProposed, sta.ModePinToPin} {
		res, err := e.staResult(mode)
		if err != nil {
			return err
		}
		for _, net := range c.Nets() {
			lt := res.Lines[net]
			if lt == nil {
				continue
			}
			st.Checked++
			if !lt.Rise.Valid() || !lt.Fall.Valid() {
				e.report(Violation{
					Check:  "sta-sound",
					Net:    net,
					Detail: fmt.Sprintf("%v: structurally invalid window rise=%+v fall=%+v", mode, lt.Rise, lt.Fall),
					Bench:  benchText(c),
				})
			}
		}
		sims, err := e.sim(mode)
		if err != nil {
			return err
		}
		for trial, sim := range sims {
			v1, v2 := vecs[trial][0], vecs[trial][1]
			for _, net := range c.Nets() {
				ev, switched := sim.Event(net)
				if !switched {
					continue
				}
				st.Checked++
				w, ok := res.Window(net, ev.Rising)
				bad := !ok ||
					ev.Arrival < w.AS-e.tol.Window || ev.Arrival > w.AL+e.tol.Window ||
					ev.Trans < w.TS-e.tol.Window || ev.Trans > w.TL+e.tol.Window
				if !bad {
					continue
				}
				detail := fmt.Sprintf("%v: event A=%.4f T=%.4f ns outside window A[%.4f, %.4f] T[%.4f, %.4f] ns",
					mode, ev.Arrival*1e9, ev.Trans*1e9, w.AS*1e9, w.AL*1e9, w.TS*1e9, w.TL*1e9)
				if !ok {
					detail = fmt.Sprintf("%v: no window for a switching net", mode)
				}
				net := net
				bench, sv1, sv2 := e.shrink(c, v1, v2, net, func(c *netlist.Circuit, v1, v2 logicsim.Vector) (bool, error) {
					res, err := sta.Analyze(c, sta.Options{Lib: e.lib, Mode: mode, NCExtension: e.opts.NCExtension})
					if err != nil {
						return false, err
					}
					sim, err := logicsim.Simulate(c, v1, v2, logicsim.Options{Lib: e.lib, Mode: mode, NCExtension: e.opts.NCExtension})
					if err != nil {
						return false, err
					}
					ev, switched := sim.Event(net)
					if !switched {
						return false, nil
					}
					w, ok := res.Window(net, ev.Rising)
					return !ok ||
						ev.Arrival < w.AS-e.tol.Window || ev.Arrival > w.AL+e.tol.Window ||
						ev.Trans < w.TS-e.tol.Window || ev.Trans > w.TL+e.tol.Window, nil
				})
				e.report(Violation{Check: "sta-sound", Net: net, Detail: detail, Bench: bench, V1: sv1, V2: sv2})
			}
		}
	}
	return nil
}

// fullCube encodes a fully specified vector pair as a nineval cube.
func fullCube(c *netlist.Circuit, v1, v2 logicsim.Vector) nineval.Cube {
	cube := nineval.Cube{}
	for _, pi := range c.PIs {
		cube[pi] = nineval.Value{V1: nineval.Frame(v1[pi]), V2: nineval.Frame(v2[pi])}
	}
	return cube
}

// windowSubset reports whether inner ⊆ outer within tol.
func windowSubset(inner, outer sta.Window, tol float64) bool {
	return inner.AS >= outer.AS-tol && inner.AL <= outer.AL+tol &&
		inner.TS >= outer.TS-tol && inner.TL <= outer.TL+tol
}

// checkITRSubset verifies the two halves of the paper's "STA is a special
// case of ITR" statement: refining with the empty cube reproduces the STA
// windows exactly, and refining with a full vector-pair cube only ever
// shrinks them.
func checkITRSubset(e *seedEnv) error {
	st := e.stat("itr-subset")
	c, err := e.circuit()
	if err != nil {
		return err
	}
	vecs, err := e.vectors()
	if err != nil {
		return err
	}
	staRes, err := e.staResult(sta.ModeProposed)
	if err != nil {
		return err
	}

	iopts := sta.Options{Lib: e.lib, Mode: sta.ModeProposed, NCExtension: e.opts.NCExtension}

	// Empty cube: exact equality (float identity up to 1 fs).
	empty, err := sta.Refine(c, nineval.Cube{}, iopts)
	if err != nil {
		return err
	}
	for _, net := range c.Nets() {
		li, lt := empty.Lines[net], staRes.Lines[net]
		if li == nil || lt == nil {
			continue
		}
		st.Checked++
		if !windowSubset(li.Rise, lt.Rise, 1e-15) || !windowSubset(lt.Rise, li.Rise, 1e-15) ||
			!windowSubset(li.Fall, lt.Fall, 1e-15) || !windowSubset(lt.Fall, li.Fall, 1e-15) {
			e.report(Violation{
				Check:  "itr-subset",
				Net:    net,
				Detail: fmt.Sprintf("empty-cube ITR differs from STA: itr rise %+v fall %+v, sta rise %+v fall %+v", li.Rise, li.Fall, lt.Rise, lt.Fall),
				Bench:  benchText(c),
			})
		}
	}

	for trial, vp := range vecs {
		v1, v2 := vp[0], vp[1]
		ref, err := sta.Refine(c, fullCube(c, v1, v2), iopts)
		if err != nil {
			return fmt.Errorf("trial %d: %w", trial, err)
		}
		for _, net := range c.Nets() {
			li, lt := ref.Lines[net], staRes.Lines[net]
			if li == nil || lt == nil {
				continue
			}
			for _, d := range []struct {
				rising bool
				has    bool
				in     sta.Window
				out    sta.Window
			}{
				{true, li.HasRise(), li.Rise, lt.Rise},
				{false, li.HasFall(), li.Fall, lt.Fall},
			} {
				if !d.has {
					continue
				}
				st.Checked++
				if windowSubset(d.in, d.out, e.tol.Window) {
					continue
				}
				detail := fmt.Sprintf("%s: refined window %+v escapes STA window %+v", dir(d.rising), d.in, d.out)
				net, rising := net, d.rising
				bench, sv1, sv2 := e.shrink(c, v1, v2, net, func(c *netlist.Circuit, v1, v2 logicsim.Vector) (bool, error) {
					staR, err := sta.Analyze(c, sta.Options{Lib: e.lib, Mode: sta.ModeProposed, NCExtension: e.opts.NCExtension})
					if err != nil {
						return false, err
					}
					ref, err := sta.Refine(c, fullCube(c, v1, v2), iopts)
					if err != nil {
						return false, nil // shrunk cube may become inconsistent
					}
					in, ok := ref.Window(net, rising)
					if !ok {
						return false, nil
					}
					out, ok := staR.Window(net, rising)
					if !ok {
						return true, nil
					}
					return !windowSubset(in, out, e.tol.Window), nil
				})
				e.report(Violation{Check: "itr-subset", Net: net, Detail: detail, Bench: bench, V1: sv1, V2: sv2})
			}
		}
	}
	return nil
}

// checkITRSound verifies refinement soundness: with the cube fully
// specifying the vector pair, the refined windows must still contain the
// event the timing simulator produces for that exact pair, and a line the
// simulator switches must never carry state SNo.
func checkITRSound(e *seedEnv) error {
	st := e.stat("itr-sound")
	c, err := e.circuit()
	if err != nil {
		return err
	}
	vecs, err := e.vectors()
	if err != nil {
		return err
	}
	sims, err := e.sim(sta.ModeProposed)
	if err != nil {
		return err
	}
	iopts := sta.Options{Lib: e.lib, Mode: sta.ModeProposed, NCExtension: e.opts.NCExtension}
	for trial, sim := range sims {
		v1, v2 := vecs[trial][0], vecs[trial][1]
		ref, err := sta.Refine(c, fullCube(c, v1, v2), iopts)
		if err != nil {
			return fmt.Errorf("trial %d: %w", trial, err)
		}
		for _, net := range c.Nets() {
			ev, switched := sim.Event(net)
			if !switched {
				continue
			}
			st.Checked++
			w, ok := ref.Window(net, ev.Rising)
			bad := !ok ||
				ev.Arrival < w.AS-e.tol.Window || ev.Arrival > w.AL+e.tol.Window ||
				ev.Trans < w.TS-e.tol.Window || ev.Trans > w.TL+e.tol.Window
			if !bad {
				continue
			}
			detail := fmt.Sprintf("event A=%.4f T=%.4f ns outside refined window A[%.4f, %.4f] T[%.4f, %.4f] ns",
				ev.Arrival*1e9, ev.Trans*1e9, w.AS*1e9, w.AL*1e9, w.TS*1e9, w.TL*1e9)
			if !ok {
				detail = "refinement excludes a transition the simulator produces (reachable event excluded)"
			}
			net := net
			bench, sv1, sv2 := e.shrink(c, v1, v2, net, func(c *netlist.Circuit, v1, v2 logicsim.Vector) (bool, error) {
				sim, err := logicsim.Simulate(c, v1, v2, logicsim.Options{Lib: e.lib, Mode: sta.ModeProposed, NCExtension: e.opts.NCExtension})
				if err != nil {
					return false, err
				}
				ev, switched := sim.Event(net)
				if !switched {
					return false, nil
				}
				ref, err := sta.Refine(c, fullCube(c, v1, v2), iopts)
				if err != nil {
					return false, nil
				}
				w, ok := ref.Window(net, ev.Rising)
				return !ok ||
					ev.Arrival < w.AS-e.tol.Window || ev.Arrival > w.AL+e.tol.Window ||
					ev.Trans < w.TS-e.tol.Window || ev.Trans > w.TL+e.tol.Window, nil
			})
			e.report(Violation{Check: "itr-sound", Net: net, Detail: detail, Bench: bench, V1: sv1, V2: sv2})
		}
	}
	return nil
}

// sortedCells returns the library's pair-characterised cells in name order.
func sortedCells(lib *core.Library, minInputs int) []*core.CellModel {
	var names []string
	for name, cell := range lib.Cells {
		if cell.N >= minInputs {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	cells := make([]*core.CellModel, len(names))
	for i, n := range names {
		cells[i] = lib.Cells[n]
	}
	return cells
}

// gridRange is the transition-time domain the model checks sample; it spans
// the characterisation grid.
const (
	gridLo = 0.1e-9
	gridHi = 1.5e-9
)

// checkModelVShape samples the paper's Figure 2 structure for random pairs
// and transition times: the delay-vs-skew curve must saturate exactly at the
// single-input pin-to-pin delays beyond the fitted thresholds, take its
// minimum at zero skew (Claim 1), and be linear on each arm; the output
// transition time must take its minimum at the (clamped) fitted SKmin.
func checkModelVShape(e *seedEnv) error {
	st := e.stat("model-vshape")
	rng := e.rng(3)
	tol := e.tol.Model
	for _, cell := range sortedCells(e.lib, 2) {
		if len(cell.Pairs) == 0 {
			e.skip("model-vshape", 1)
			continue
		}
		for sample := 0; sample < 4; sample++ {
			x := rng.Intn(cell.N)
			y := rng.Intn(cell.N - 1)
			if y >= x {
				y++
			}
			if cell.Pair(x, y) == nil || cell.Pair(y, x) == nil {
				e.skip("model-vshape", 1)
				continue
			}
			tx := gridLo + rng.Float64()*(gridHi-gridLo)
			ty := gridLo + rng.Float64()*(gridHi-gridLo)
			st.Checked++

			sx, sy := armThresholds(cell, x, y, tx, ty)
			dAt := func(skew float64) float64 { return cell.DelayCtrl2(x, y, tx, ty, skew, 0) }
			dx := cell.CtrlPins[x].DelayAt(tx, 0)
			dy := cell.CtrlPins[y].DelayAt(ty, 0)

			fail := func(format string, args ...any) {
				e.report(Violation{
					Check: "model-vshape",
					Net:   cell.Name,
					Detail: fmt.Sprintf("pair (%d,%d) tx=%.3f ns ty=%.3f ns: %s",
						x, y, tx*1e9, ty*1e9, fmt.Sprintf(format, args...)),
				})
			}

			// Saturation: beyond the fitted thresholds the lagging
			// input must not matter at all.
			if got := dAt(sx * 1.5); math.Abs(got-dx) > tol {
				fail("no saturation at skew %.3f ns: d=%.6f ns, pin-to-pin %.6f ns", sx*1.5e9, got*1e9, dx*1e9)
				continue
			}
			if got := dAt(sy * 1.5); math.Abs(got-dy) > tol {
				fail("no saturation at skew %.3f ns: d=%.6f ns, pin-to-pin %.6f ns", sy*1.5e9, got*1e9, dy*1e9)
				continue
			}

			// Claim 1: zero skew is the global minimum.
			d0 := dAt(0)
			bad := false
			for i := 0; i <= 8; i++ {
				s := sy + float64(i)/8*(sx-sy)
				if d := dAt(s); d < d0-tol {
					fail("minimum not at zero skew: d(%.3f ns)=%.6f ns < d(0)=%.6f ns", s*1e9, d*1e9, d0*1e9)
					bad = true
					break
				}
			}
			if bad {
				continue
			}

			// Piecewise linearity on each arm.
			if !linearOn(dAt, 0, sx, tol) {
				fail("positive arm [0, %.3f ns] is not linear", sx*1e9)
				continue
			}
			if !linearOn(dAt, sy, 0, tol) {
				fail("negative arm [%.3f ns, 0] is not linear", sy*1e9)
				continue
			}

			// Output transition time: minimum at the clamped SKmin.
			tAt := func(skew float64) float64 { return cell.TransCtrl2(x, y, tx, ty, skew, 0) }
			skm := clampSkew(cell.SKminAt(x, y, tx, ty), sy, sx)
			t0 := tAt(skm)
			for i := 0; i <= 8; i++ {
				s := sy + float64(i)/8*(sx-sy)
				if tv := tAt(s); tv < t0-tol {
					fail("transition-time minimum not at SKmin=%.3f ns: t(%.3f ns)=%.6f < %.6f ns", skm*1e9, s*1e9, tv*1e9, t0*1e9)
					break
				}
			}
		}
	}
	return nil
}

// armThresholds reproduces the model's clamped V-shape arm endpoints.
func armThresholds(cell *core.CellModel, x, y int, tx, ty float64) (sx, sy float64) {
	const minWidth = 1e-12
	sx = cell.Pair(x, y).SX.Eval(tx, ty)
	if sx < minWidth {
		sx = minWidth
	}
	sy = -cell.Pair(y, x).SX.Eval(ty, tx)
	if sy > -minWidth {
		sy = -minWidth
	}
	return sx, sy
}

// clampSkew clamps a skew strictly inside the arms (the model's convention).
func clampSkew(s, lo, hi float64) float64 {
	const minWidth = 1e-12
	if s > hi-minWidth {
		s = hi - minWidth
	}
	if s < lo+minWidth {
		s = lo + minWidth
	}
	return s
}

// linearOn checks collinearity of f at the quarter points of [lo, hi].
func linearOn(f func(float64) float64, lo, hi, tol float64) bool {
	a, m, b := f(lo+0.25*(hi-lo)), f(lo+0.5*(hi-lo)), f(lo+0.75*(hi-lo))
	return math.Abs(m-(a+b)/2) <= tol
}

// checkModelCorners verifies the corner-identification machinery of Section
// 4.2 / Figure 9: MinOver/MaxOver of every pin timing quadratic must match a
// dense sweep, and every pair surface must be monotonic or bi-tonic along
// each argument (at most one direction change) — the property STA's
// endpoint-or-peak rule depends on.
func checkModelCorners(e *seedEnv) error {
	st := e.stat("model-corners")
	rng := e.rng(4)
	tol := e.tol.Model
	for _, cell := range sortedCells(e.lib, 1) {
		for pin := 0; pin < cell.N; pin++ {
			for _, tbl := range []struct {
				name string
				pins []core.PinTiming
			}{{"ctrl", cell.CtrlPins}, {"nonctrl", cell.NonCtrlPins}} {
				for _, fn := range []struct {
					name string
					q    core.Quad
				}{{"delay", tbl.pins[pin].Delay}, {"trans", tbl.pins[pin].Trans}} {
					lo := gridLo + rng.Float64()*(gridHi-gridLo)*0.5
					hi := lo + (gridHi-lo)*rng.Float64()
					st.Checked++
					_, wantMax := fn.q.MaxOver(lo, hi)
					_, wantMin := fn.q.MinOver(lo, hi)
					denseMax, denseMin := math.Inf(-1), math.Inf(1)
					for i := 0; i <= 40; i++ {
						v := fn.q.Eval(lo + float64(i)/40*(hi-lo))
						denseMax = math.Max(denseMax, v)
						denseMin = math.Min(denseMin, v)
					}
					if denseMax > wantMax+tol || denseMin < wantMin-tol {
						e.report(Violation{
							Check: "model-corners",
							Net:   cell.Name,
							Detail: fmt.Sprintf("pin %d %s/%s over [%.3f, %.3f] ns: MinOver/MaxOver [%.6f, %.6f] misses dense extrema [%.6f, %.6f] ns",
								pin, tbl.name, fn.name, lo*1e9, hi*1e9, wantMin*1e9, wantMax*1e9, denseMin*1e9, denseMax*1e9),
						})
					}
				}
			}
		}
		for pi := range cell.Pairs {
			pe := &cell.Pairs[pi]
			other := gridLo + rng.Float64()*(gridHi-gridLo)
			for _, sf := range []struct {
				name string
				eval func(tx, ty float64) float64
			}{
				{"D0", pe.Timing.D0.Eval},
				{"T0", pe.Timing.T0.Eval},
				{"SX", pe.Timing.SX.Eval},
				{"SKmin", pe.Timing.SKmin.Eval},
			} {
				for axis := 0; axis < 2; axis++ {
					st.Checked++
					f := func(t float64) float64 {
						if axis == 0 {
							return sf.eval(t, other)
						}
						return sf.eval(other, t)
					}
					if n := directionChanges(f, gridLo, gridHi, 24); n > 1 {
						e.report(Violation{
							Check: "model-corners",
							Net:   cell.Name,
							Detail: fmt.Sprintf("pair (%d,%d) surface %s is neither monotonic nor bi-tonic along axis %d (%d direction changes)",
								pe.X, pe.Y, sf.name, axis, n),
						})
					}
				}
			}
		}
	}
	return nil
}

// directionChanges counts strict slope sign changes of f sampled at n+1
// points of [lo, hi], ignoring sub-noise differences.
func directionChanges(f func(float64) float64, lo, hi float64, n int) int {
	const noise = 1e-20
	changes, lastSign := 0, 0
	prev := f(lo)
	for i := 1; i <= n; i++ {
		v := f(lo + float64(i)/float64(n)*(hi-lo))
		d := v - prev
		prev = v
		sign := 0
		if d > noise {
			sign = 1
		} else if d < -noise {
			sign = -1
		}
		if sign != 0 {
			if lastSign != 0 && sign != lastSign {
				changes++
			}
			lastSign = sign
		}
	}
	return changes
}

// checkModelSSMin verifies the defining inequality of the proposed model
// against the pin-to-pin baseline: for any pair of simultaneous
// to-controlling transitions, the simultaneous-switching delay never
// exceeds the pin-to-pin prediction, and the k>=3 extended reduction never
// exceeds the best single-input candidate.
func checkModelSSMin(e *seedEnv) error {
	st := e.stat("model-ss-min")
	rng := e.rng(5)
	tol := e.tol.Model
	p2p := baseline.PinToPin{}
	for _, cell := range sortedCells(e.lib, 2) {
		for sample := 0; sample < 8; sample++ {
			x := rng.Intn(cell.N)
			y := rng.Intn(cell.N - 1)
			if y >= x {
				y++
			}
			tx := gridLo + rng.Float64()*(gridHi-gridLo)
			ty := gridLo + rng.Float64()*(gridHi-gridLo)
			skew := (rng.Float64()*2 - 1) * 2e-9
			st.Checked++
			ss := cell.DelayCtrl2(x, y, tx, ty, skew, 0)
			pp := p2p.CtrlDelay2(cell, x, y, tx, ty, skew)
			if ss > pp+tol {
				e.report(Violation{
					Check: "model-ss-min",
					Net:   cell.Name,
					Detail: fmt.Sprintf("pair (%d,%d) tx=%.3f ty=%.3f skew=%.3f ns: simultaneous delay %.6f ns exceeds pin-to-pin %.6f ns",
						x, y, tx*1e9, ty*1e9, skew*1e9, ss*1e9, pp*1e9),
				})
			}
		}

		// k-input reduction: the response computed from k >= 2 events must
		// not arrive later than the pin-to-pin answer — the earliest
		// event alone driving the output (the baseline's convention).
		for sample := 0; sample < 4; sample++ {
			k := 2 + rng.Intn(cell.N-1)
			pins := rng.Perm(cell.N)[:k]
			events := make([]core.InputEvent, k)
			first := core.InputEvent{Arrival: math.Inf(1)}
			for i, pin := range pins {
				ev := core.InputEvent{
					Pin:     pin,
					Arrival: rng.Float64() * 1e-9,
					Trans:   gridLo + rng.Float64()*(gridHi-gridLo),
				}
				events[i] = ev
				if ev.Arrival < first.Arrival {
					first = ev
				}
			}
			p2pArr := first.Arrival + cell.CtrlPins[first.Pin].DelayAt(first.Trans, 0)
			st.Checked++
			resp, err := cell.CtrlResponse(events, 0)
			if err != nil {
				return err
			}
			if resp.Arrival > p2pArr+tol {
				e.report(Violation{
					Check: "model-ss-min",
					Net:   cell.Name,
					Detail: fmt.Sprintf("%d-event response %.6f ns is slower than the pin-to-pin answer %.6f ns (events %+v)",
						k, resp.Arrival*1e9, p2pArr*1e9, events),
				})
			}
		}
	}
	return nil
}

// sortedEventNets returns the event map's keys in deterministic order.
func sortedEventNets[E any](events map[string]E) []string {
	nets := make([]string, 0, len(events))
	for net := range events {
		nets = append(nets, net)
	}
	sort.Strings(nets)
	return nets
}

func dir(rising bool) string {
	if rising {
		return "rise"
	}
	return "fall"
}
