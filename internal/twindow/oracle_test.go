package twindow_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sstiming/internal/core"
	"sstiming/internal/netlist"
	"sstiming/internal/nineval"
	"sstiming/internal/prechar"
	"sstiming/internal/twindow"
)

// This file holds a differential oracle for the corner rules: a test-only
// copy of the forward and backward per-gate loops written against the
// plain per-call evaluators (DelayCtrl2, TransCtrl2, SKminAt,
// DelayNonCtrl2, TransNonCtrl2) and Quad.MinOver/MaxOver, one call per
// corner and per extremum. PropagateGate and Snapshot.Required must match
// it bit for bit on seeded random gates, beyond what the ISCAS stand-ins
// reach.

// refInput is one candidate input of the reference loops.
type refInput struct {
	pin                    int
	w                      twindow.Window
	definite               bool
	dMin, dMax, tMin, tMax float64
}

func refDir(li *twindow.LineInfo, rising bool) (nineval.State, twindow.Window) {
	if rising {
		return li.SRise, li.Rise
	}
	return li.SFall, li.Fall
}

func refPins(cell *core.CellModel, ctrl bool) []core.PinTiming {
	if ctrl {
		return cell.CtrlPins
	}
	return cell.NonCtrlPins
}

func refCollect(ins []*twindow.LineInfo, rising bool, pins []core.PinTiming, extraLoad float64) []refInput {
	var out []refInput
	for i, li := range ins {
		s, w := refDir(li, rising)
		if s == nineval.SNo {
			continue
		}
		p := &pins[i]
		loadD := p.DelayLoadSlope * extraLoad
		loadT := p.TransLoadSlope * extraLoad
		_, dMin := p.Delay.MinOver(w.TS, w.TL)
		_, dMax := p.Delay.MaxOver(w.TS, w.TL)
		_, tMin := p.Trans.MinOver(w.TS, w.TL)
		_, tMax := p.Trans.MaxOver(w.TS, w.TL)
		out = append(out, refInput{
			pin: i, w: w, definite: s == nineval.SYes,
			dMin: dMin + loadD, dMax: dMax + loadD, tMin: tMin + loadT, tMax: tMax + loadT,
		})
	}
	return out
}

func refAnyDefinite(allowed []refInput) bool {
	for _, a := range allowed {
		if a.definite {
			return true
		}
	}
	return false
}

func refClamp(v, lo, hi float64) float64 {
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

func refSingle(cell *core.CellModel, in *twindow.LineInfo, a twindow.Arc, extraLoad float64) (twindow.Window, error) {
	s, w := refDir(in, a.InRise)
	if s == nineval.SNo {
		return twindow.Window{}, fmt.Errorf("output may transition but input cannot (state inconsistency)")
	}
	p := &refPins(cell, a.Ctrl)[0]
	loadD := p.DelayLoadSlope * extraLoad
	loadT := p.TransLoadSlope * extraLoad
	_, dMin := p.Delay.MinOver(w.TS, w.TL)
	_, dMax := p.Delay.MaxOver(w.TS, w.TL)
	_, tMin := p.Trans.MinOver(w.TS, w.TL)
	_, tMax := p.Trans.MaxOver(w.TS, w.TL)
	return twindow.Window{AS: w.AS + dMin + loadD, AL: w.AL + dMax + loadD, TS: tMin + loadT, TL: tMax + loadT}, nil
}

func refCtrl(cell *core.CellModel, ins []*twindow.LineInfo, rising bool, extraLoad float64, mode twindow.Mode) (twindow.Window, error) {
	allowed := refCollect(ins, rising, cell.CtrlPins, extraLoad)
	if len(allowed) == 0 {
		return twindow.Window{}, fmt.Errorf("to-controlling response possible but no input can transition")
	}
	out := twindow.Window{AS: math.Inf(1), TS: math.Inf(1), TL: math.Inf(-1)}
	if refAnyDefinite(allowed) {
		out.AL = math.Inf(1)
		for _, a := range allowed {
			if v := a.w.AL + a.dMax; a.definite && v < out.AL {
				out.AL = v
			}
		}
	} else {
		out.AL = math.Inf(-1)
		for _, a := range allowed {
			if v := a.w.AL + a.dMax; v > out.AL {
				out.AL = v
			}
		}
	}
	for _, a := range allowed {
		if v := a.w.AS + a.dMin; v < out.AS {
			out.AS = v
		}
		if a.tMin < out.TS {
			out.TS = a.tMin
		}
		if a.tMax > out.TL {
			out.TL = a.tMax
		}
	}
	if mode != twindow.ModeProposed || len(allowed) < 2 {
		return out, nil
	}
	multi := 1.0
	if k := len(allowed); k >= 3 && len(cell.MultiFactor) >= k-2 {
		if f := cell.MultiFactor[k-3]; f > 0 && f < 1 {
			multi = f
		}
	}
	for i, ax := range allowed {
		for j, ay := range allowed {
			if i == j {
				continue
			}
			skew := ay.w.AS - ax.w.AS
			base := math.Min(ax.w.AS, ay.w.AS)
			for _, tx := range []float64{ax.w.TS, ax.w.TL} {
				for _, ty := range []float64{ay.w.TS, ay.w.TL} {
					d := cell.DelayCtrl2(ax.pin, ay.pin, tx, ty, skew, extraLoad)
					if v := base + d*multi; v < out.AS {
						out.AS = v
					}
				}
			}
			skm := refClamp(cell.SKminAt(ax.pin, ay.pin, ax.w.TS, ay.w.TS), ay.w.AS-ax.w.AL, ay.w.AL-ax.w.AS)
			if tv := cell.TransCtrl2(ax.pin, ay.pin, ax.w.TS, ay.w.TS, skm, extraLoad); tv < out.TS {
				out.TS = tv
			}
		}
	}
	return out, nil
}

func refNonCtrl(cell *core.CellModel, ins []*twindow.LineInfo, rising bool, extraLoad float64, mode twindow.Mode, ncExt bool) (twindow.Window, error) {
	allowed := refCollect(ins, rising, cell.NonCtrlPins, extraLoad)
	if len(allowed) == 0 {
		return twindow.Window{}, fmt.Errorf("to-non-controlling response possible but no input can transition")
	}
	out := twindow.Window{AL: math.Inf(-1), TS: math.Inf(1), TL: math.Inf(-1)}
	if refAnyDefinite(allowed) {
		out.AS = math.Inf(-1)
		for _, a := range allowed {
			if v := a.w.AS + a.dMin; a.definite && v > out.AS {
				out.AS = v
			}
		}
	} else {
		out.AS = math.Inf(1)
		for _, a := range allowed {
			if v := a.w.AS + a.dMin; v < out.AS {
				out.AS = v
			}
		}
	}
	for _, a := range allowed {
		if v := a.w.AL + a.dMax; v > out.AL {
			out.AL = v
		}
		if a.tMin < out.TS {
			out.TS = a.tMin
		}
		if a.tMax > out.TL {
			out.TL = a.tMax
		}
	}
	if !ncExt || mode != twindow.ModeProposed || len(allowed) < 2 || len(cell.NCPairs) == 0 {
		return out, nil
	}
	for i, ax := range allowed {
		for j, ay := range allowed {
			if i == j {
				continue
			}
			skew := refClamp(0, ay.w.AS-ax.w.AL, ay.w.AL-ax.w.AS)
			base := math.Max(ax.w.AL, ay.w.AL)
			for _, tx := range []float64{ax.w.TS, ax.w.TL} {
				for _, ty := range []float64{ay.w.TS, ay.w.TL} {
					if v := base + cell.DelayNonCtrl2(ax.pin, ay.pin, tx, ty, skew, extraLoad); v > out.AL {
						out.AL = v
					}
					if tv := cell.TransNonCtrl2(ax.pin, ay.pin, tx, ty, skew, extraLoad); tv > out.TL {
						out.TL = tv
					}
				}
			}
		}
	}
	return out, nil
}

// refPropagate is PropagateGate written against the per-call evaluators.
func refPropagate(cell *core.CellModel, kind netlist.GateKind, ins []*twindow.LineInfo, outV nineval.Value, extraLoad float64, mode twindow.Mode, ncExt bool) (twindow.LineInfo, error) {
	li := twindow.LineInfo{Value: outV, SRise: outV.StateRise(), SFall: outV.StateFall()}
	for _, a := range twindow.Arcs(kind) {
		if s, _ := refDir(&li, a.OutRise); s == nineval.SNo {
			continue
		}
		out := &li.Fall
		if a.OutRise {
			out = &li.Rise
		}
		var err error
		switch {
		case kind == netlist.Inv || kind == netlist.Buf:
			*out, err = refSingle(cell, ins[0], a, extraLoad)
		case a.Ctrl:
			*out, err = refCtrl(cell, ins, a.InRise, extraLoad, mode)
		default:
			*out, err = refNonCtrl(cell, ins, a.InRise, extraLoad, mode, ncExt)
		}
		if err != nil {
			return twindow.LineInfo{}, err
		}
	}
	return li, nil
}

// refArcBounds is the backward pass's per-arc delay bounds: the pin-to-pin
// range, and on a to-controlling arc under ModeProposed the zero-skew pair
// delay with each other candidate.
func refArcBounds(s *twindow.Snapshot, gb *twindow.Gate, a twindow.Arc, ins []*twindow.LineInfo) []refInput {
	allowed := refCollect(ins, a.InRise, refPins(gb.Cell, a.Ctrl), gb.ExtraLoad)
	if !a.Ctrl || s.Mode != twindow.ModeProposed || len(allowed) < 2 {
		return allowed
	}
	for i := range allowed {
		ax := &allowed[i]
		for j, ay := range allowed {
			if i == j {
				continue
			}
			if d := gb.Cell.DelayCtrl2(ax.pin, ay.pin, ax.w.TS, ay.w.TS, 0, gb.ExtraLoad); d < ax.dMin {
				ax.dMin = d
			}
		}
	}
	return allowed
}

// refRequired is Snapshot.Required over refArcBounds.
func refRequired(s *twindow.Snapshot, cons twindow.Constraint) []twindow.LineRequired {
	c := s.Circuit
	nPI := len(c.PIs)
	free := twindow.Required{QS: math.Inf(-1), QL: math.Inf(1)}
	tighten := func(q *twindow.Required, qs, ql float64) {
		if qs > q.QS {
			q.QS = qs
		}
		if ql < q.QL {
			q.QL = ql
		}
	}
	dirOf := func(lr *twindow.LineRequired, rising bool) *twindow.Required {
		if rising {
			return &lr.Rise
		}
		return &lr.Fall
	}
	req := make([]twindow.LineRequired, len(s.Lines))
	for id := range req {
		req[id] = twindow.LineRequired{Rise: free, Fall: free}
	}
	for _, po := range c.POs {
		id, _ := c.NetID(po)
		if s.Lines[id].HasRise() {
			tighten(&req[id].Rise, cons.MinTime, cons.MaxTime)
		}
		if s.Lines[id].HasFall() {
			tighten(&req[id].Fall, cons.MinTime, cons.MaxTime)
		}
	}
	order := c.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		gi := order[i]
		gb := &s.Gates[gi]
		z := &s.Lines[nPI+gi]
		inIDs := c.GateInputIDs(gi)
		var ins []*twindow.LineInfo
		for _, id := range inIDs {
			ins = append(ins, &s.Lines[id])
		}
		for _, a := range twindow.Arcs(gb.Kind) {
			if st, _ := refDir(z, a.OutRise); st == nineval.SNo {
				continue
			}
			out := *dirOf(&req[nPI+gi], a.OutRise)
			for _, in := range refArcBounds(s, gb, a, ins) {
				tighten(dirOf(&req[inIDs[in.pin]], a.InRise), out.QS-in.dMin, out.QL-in.dMax)
			}
		}
	}
	return req
}

// oracleCell is a cell under the oracle with the gate kind that uses it.
type oracleCell struct {
	cell *core.CellModel
	kind netlist.GateKind
}

// oracleCells returns every library cell (INV as both INV and BUF), a
// NAND2 and a NOR2 holding only the (0, 1) pair order, whose pair
// evaluations take the pin-to-pin step, and a five-input NAND, wider than
// the candidate arrays the timing layers keep on the stack.
func oracleCells() []oracleCell {
	lib := prechar.MustLibrary()
	kinds := map[string]netlist.GateKind{"INV": netlist.Inv, "NAND": netlist.Nand, "NOR": netlist.Nor}
	var out []oracleCell
	for _, name := range []string{"INV", "NAND2", "NAND3", "NAND4", "NOR2", "NOR3"} {
		cell := lib.MustCell(name)
		out = append(out, oracleCell{cell, kinds[cell.Kind]})
	}
	out = append(out, oracleCell{lib.MustCell("INV"), netlist.Buf})
	for _, name := range []string{"NAND2", "NOR2"} {
		one := *lib.MustCell(name)
		one.Name += "-one-order"
		keep := func(pairs []core.PairEntry) []core.PairEntry {
			for _, p := range pairs {
				if p.X == 0 && p.Y == 1 {
					return []core.PairEntry{p}
				}
			}
			panic("no (0, 1) pair")
		}
		one.Pairs, one.NCPairs = keep(one.Pairs), keep(one.NCPairs)
		out = append(out, oracleCell{&one, kinds[one.Kind]})
	}
	return append(out, oracleCell{nand5(lib.MustCell("NAND4")), netlist.Nand})
}

// nand5 widens a NAND4 model by a fifth pin that copies pin 3: its pin
// timing, its pairs with every other pin, and (4, 3) and (3, 4) from
// (3, 2) and (2, 3). The 5-way speed-up factor extends the 4-way one.
func nand5(n4 *core.CellModel) *core.CellModel {
	m := *n4
	m.Name, m.N = "NAND5-from-NAND4", 5
	m.CtrlPins = append(append([]core.PinTiming(nil), n4.CtrlPins...), n4.CtrlPins[3])
	m.NonCtrlPins = append(append([]core.PinTiming(nil), n4.NonCtrlPins...), n4.NonCtrlPins[3])
	widen := func(pairs []core.PairEntry) []core.PairEntry {
		out := append([]core.PairEntry(nil), pairs...)
		for _, p := range pairs {
			switch {
			case p.X == 3 && p.Y == 2:
				out = append(out, core.PairEntry{X: 4, Y: 3, Timing: p.Timing})
			case p.X == 2 && p.Y == 3:
				out = append(out, core.PairEntry{X: 3, Y: 4, Timing: p.Timing})
			}
			if p.X == 3 {
				out = append(out, core.PairEntry{X: 4, Y: p.Y, Timing: p.Timing})
			}
			if p.Y == 3 {
				out = append(out, core.PairEntry{X: p.X, Y: 4, Timing: p.Timing})
			}
		}
		return out
	}
	m.Pairs, m.NCPairs = widen(n4.Pairs), widen(n4.NCPairs)
	m.MultiFactor = append(append([]float64(nil), n4.MultiFactor...), 0.6)
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return &m
}

var oracleValues = []nineval.Value{
	nineval.V00, nineval.V01, nineval.V0X, nineval.V10, nineval.V11,
	nineval.V1X, nineval.VX0, nineval.VX1, nineval.VXX,
}

// randWindow draws a window with arrivals in [-0.5, 3] ns and transition
// times in [0.05, 3] ns, beyond the 0.1-1.5 ns characterisation grid, and
// sometimes a point (AS = AL or TS = TL).
func randWindow(r *rand.Rand) twindow.Window {
	as := (r.Float64()*3.5 - 0.5) * 1e-9
	al := as
	if r.Intn(4) != 0 {
		al += r.Float64() * 1e-9
	}
	ts := (0.05 + r.Float64()*2.95) * 1e-9
	tl := ts
	if r.Intn(4) != 0 {
		tl = ts + r.Float64()*(3e-9-ts)
	}
	return twindow.Window{AS: as, AL: al, TS: ts, TL: tl}
}

var oracleStates = []nineval.State{nineval.SNo, nineval.SMaybe, nineval.SYes}

// randLine draws a line with independent random transition states.
func randLine(r *rand.Rand) twindow.LineInfo {
	return twindow.LineInfo{
		Value: oracleValues[r.Intn(len(oracleValues))],
		SRise: oracleStates[r.Intn(3)], SFall: oracleStates[r.Intn(3)],
		Rise: randWindow(r), Fall: randWindow(r),
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameWindow(a, b twindow.Window) bool {
	return sameBits(a.AS, b.AS) && sameBits(a.AL, b.AL) && sameBits(a.TS, b.TS) && sameBits(a.TL, b.TL)
}

// TestCornerRulesMatchOracle holds PropagateGate to refPropagate, bit for
// bit, on seeded random gates of every oracle cell: random input windows
// and transition states, random output values, extra load 0-3x RefLoad,
// both modes, NC extension on and off.
func TestCornerRulesMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	trials := 3000
	if testing.Short() {
		trials = 300
	}
	for _, oc := range oracleCells() {
		cell := oc.cell
		lines := make([]twindow.LineInfo, cell.N)
		ins := make([]*twindow.LineInfo, cell.N)
		for trial := 0; trial < trials; trial++ {
			for i := range lines {
				lines[i] = randLine(r)
				ins[i] = &lines[i]
			}
			outV := oracleValues[r.Intn(len(oracleValues))]
			load := r.Float64() * 3 * cell.RefLoad
			for _, mode := range []twindow.Mode{twindow.ModeProposed, twindow.ModePinToPin} {
				for _, ncExt := range []bool{false, true} {
					got, gotErr := twindow.PropagateGate(cell, oc.kind, ins, outV, load, mode, ncExt)
					want, wantErr := refPropagate(cell, oc.kind, ins, outV, load, mode, ncExt)
					where := fmt.Sprintf("%s/%v trial %d %v nc=%t", cell.Name, oc.kind, trial, mode, ncExt)
					if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
						t.Fatalf("%s: error %v, oracle %v", where, gotErr, wantErr)
					}
					if got.Value != want.Value || got.SRise != want.SRise || got.SFall != want.SFall ||
						!sameWindow(got.Rise, want.Rise) || !sameWindow(got.Fall, want.Fall) {
						t.Fatalf("%s:\ngot    %+v\noracle %+v\ninputs %+v", where, got, want, lines)
					}
				}
			}
		}
	}
}

// oracleCircuit is two gates of kind: z1 on the first n PIs, and z2 on
// z1 and the first n-1 PIs, so the backward pass tightens PIs through
// two gates and one line through both arcs of each.
func oracleCircuit(t *testing.T, kind netlist.GateKind, n int) *netlist.Circuit {
	t.Helper()
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "INPUT(a%d)\n", i)
	}
	b.WriteString("OUTPUT(z2)\n")
	name := kind.String()
	args := func(first string, k int) string {
		parts := []string{}
		if first != "" {
			parts = append(parts, first)
		}
		for i := 0; len(parts) < k; i++ {
			parts = append(parts, fmt.Sprintf("a%d", i))
		}
		return strings.Join(parts, ", ")
	}
	fmt.Fprintf(&b, "z1 = %s(%s)\n", name, args("", n))
	fmt.Fprintf(&b, "z2 = %s(%s)\n", name, args("z1", n))
	c, err := netlist.Parse("oracle", strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("%v\n%s", err, b.String())
	}
	if err := c.EnsureBuilt(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRequiredMatchesOracle holds Snapshot.Required to refRequired, bit
// for bit, over seeded random snapshots of a two-gate circuit per oracle
// cell: random line windows and states, loads and constraints, both modes.
func TestRequiredMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(131))
	trials := 1500
	if testing.Short() {
		trials = 150
	}
	for _, oc := range oracleCells() {
		c := oracleCircuit(t, oc.kind, oc.cell.N)
		for trial := 0; trial < trials; trial++ {
			for _, mode := range []twindow.Mode{twindow.ModeProposed, twindow.ModePinToPin} {
				s := &twindow.Snapshot{Circuit: c, Mode: mode, Lines: make([]twindow.LineInfo, c.NumNets()), Gates: make([]twindow.Gate, c.NumGates())}
				for id := range s.Lines {
					s.Lines[id] = randLine(r)
				}
				for gi := range s.Gates {
					s.Gates[gi] = twindow.Gate{Kind: oc.kind, Cell: oc.cell, ExtraLoad: r.Float64() * 3 * oc.cell.RefLoad}
				}
				lo := r.Float64() * 2e-9
				cons := twindow.Constraint{MinTime: lo, MaxTime: lo + r.Float64()*3e-9}
				got, want := s.Required(cons), refRequired(s, cons)
				for id := range want {
					g, w := got[id], want[id]
					if !sameBits(g.Rise.QS, w.Rise.QS) || !sameBits(g.Rise.QL, w.Rise.QL) ||
						!sameBits(g.Fall.QS, w.Fall.QS) || !sameBits(g.Fall.QL, w.Fall.QL) {
						t.Fatalf("%s/%v trial %d %v net %s: required %+v, oracle %+v",
							oc.cell.Name, oc.kind, trial, mode, c.NetName(id), g, w)
					}
				}
			}
		}
	}
}
