package twindow

import (
	"math"
	"slices"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/core"
	"sstiming/internal/netlist"
	"sstiming/internal/nineval"
	"sstiming/internal/prechar"
)

const ps = 1e-12

// near compares seconds to well below a picosecond: the constant cells
// below round-trip their delays through nanosecond coefficients.
func near(a, b float64) bool { return math.Abs(a-b) < 1e-18 }

func nearWindow(a, b Window) bool {
	return near(a.AS, b.AS) && near(a.AL, b.AL) && near(a.TS, b.TS) && near(a.TL, b.TL)
}

// constPin is a pin whose delay and output transition ignore the input
// transition time.
func constPin(d, t float64) core.PinTiming {
	return core.PinTiming{
		Delay: core.Quad{K: [3]float64{0, 0, d / 1e-9}},
		Trans: core.Quad{K: [3]float64{0, 0, t / 1e-9}},
	}
}

// constCell is an uncharacterised-pair cell of n inputs: pin i's
// to-controlling delay is dCtrl[i] (transition tCtrl), its
// to-non-controlling delay dNC[i] (transition tNC). Without pair surfaces
// the simultaneous-switching rules fall back to pin-to-pin answers, so
// every window below follows by hand from the single-input rules.
func constCell(dCtrl []float64, tCtrl float64, dNC []float64, tNC float64) *core.CellModel {
	c := &core.CellModel{Name: "CONST", N: len(dCtrl)}
	for i := range dCtrl {
		c.CtrlPins = append(c.CtrlPins, constPin(dCtrl[i], tCtrl))
		c.NonCtrlPins = append(c.NonCtrlPins, constPin(dNC[i], tNC))
	}
	return c
}

func line(v nineval.Value, rise, fall Window) *LineInfo {
	return &LineInfo{Value: v, SRise: v.StateRise(), SFall: v.StateFall(), Rise: rise, Fall: fall}
}

func TestModeWindowAndStimulus(t *testing.T) {
	if ModeProposed.String() != "proposed" || ModePinToPin.String() != "pin-to-pin" {
		t.Errorf("mode names: %q, %q", ModeProposed, ModePinToPin)
	}
	if !(Window{AS: 1, AL: 2, TS: 0, TL: 1}).Valid() {
		t.Error("ordered window reported invalid")
	}
	for _, w := range []Window{{AS: 2, AL: 1}, {TS: 2, TL: 1}, {TS: -1, TL: 1}} {
		if w.Valid() {
			t.Errorf("%+v reported valid", w)
		}
	}
	p := DefaultPITiming()
	if got, want := p.Window(), (Window{AS: 0, AL: 0, TS: 200 * ps, TL: 200 * ps}); !nearWindow(got, want) {
		t.Errorf("default stimulus window %+v, want %+v", got, want)
	}
}

// TestPILineStates: a primary input carries its stimulus window in both
// directions, and its states follow its implied value.
func TestPILineStates(t *testing.T) {
	p := PITiming{ArrivalEarly: 10 * ps, ArrivalLate: 30 * ps, TransShort: 50 * ps, TransLong: 70 * ps}
	for _, c := range []struct {
		v                nineval.Value
		hasRise, hasFall bool
		sRise, sFall     nineval.State
	}{
		{nineval.V01, true, false, nineval.SYes, nineval.SNo},
		{nineval.V10, false, true, nineval.SNo, nineval.SYes},
		{nineval.V11, false, false, nineval.SNo, nineval.SNo},
		{nineval.V0X, true, false, nineval.SMaybe, nineval.SNo},
		{nineval.VXX, true, true, nineval.SMaybe, nineval.SMaybe},
	} {
		li := PILine(c.v, p)
		if li.Value != c.v || li.SRise != c.sRise || li.SFall != c.sFall ||
			li.HasRise() != c.hasRise || li.HasFall() != c.hasFall {
			t.Errorf("PILine(%v) = %+v", c.v, li)
		}
		if li.Rise != p.Window() || li.Fall != p.Window() {
			t.Errorf("PILine(%v) windows %+v/%+v, want the stimulus", c.v, li.Rise, li.Fall)
		}
	}
}

// TestPropagateSingleInput: INV maps an input fall to the output rise
// through the to-controlling table and a rise to the fall through the
// other; BUF keeps directions. The fan-out load adds its slope.
func TestPropagateSingleInput(t *testing.T) {
	cell := constCell([]float64{10 * ps}, 20*ps, []float64{30 * ps}, 40*ps)
	cell.CtrlPins[0].DelayLoadSlope = 1 * ps / 1e-15 // 1 ps per fF
	cell.CtrlPins[0].TransLoadSlope = 2 * ps / 1e-15
	const load = 3e-15
	rise := Window{AS: 100 * ps, AL: 200 * ps, TS: 50 * ps, TL: 60 * ps}
	fall := Window{AS: 300 * ps, AL: 400 * ps, TS: 50 * ps, TL: 60 * ps}
	in := line(nineval.VXX, rise, fall)

	inv, err := PropagateGate(cell, netlist.Inv, []*LineInfo{in}, nineval.VXX, load, ModeProposed, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Window{AS: 313 * ps, AL: 413 * ps, TS: 26 * ps, TL: 26 * ps}); !nearWindow(inv.Rise, want) {
		t.Errorf("INV rise %+v, want %+v (input fall + ctrl delay + load)", inv.Rise, want)
	}
	if want := (Window{AS: 130 * ps, AL: 230 * ps, TS: 40 * ps, TL: 40 * ps}); !nearWindow(inv.Fall, want) {
		t.Errorf("INV fall %+v, want %+v (input rise + non-ctrl delay)", inv.Fall, want)
	}

	buf, err := PropagateGate(cell, netlist.Buf, []*LineInfo{in}, nineval.VXX, 0, ModeProposed, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Window{AS: 110 * ps, AL: 210 * ps, TS: 20 * ps, TL: 20 * ps}); !nearWindow(buf.Rise, want) {
		t.Errorf("BUF rise %+v, want %+v", buf.Rise, want)
	}
	if want := (Window{AS: 330 * ps, AL: 430 * ps, TS: 40 * ps, TL: 40 * ps}); !nearWindow(buf.Fall, want) {
		t.Errorf("BUF fall %+v, want %+v", buf.Fall, want)
	}

	// An output value that rules a direction out leaves its window empty.
	quiet, err := PropagateGate(cell, netlist.Inv, []*LineInfo{in}, nineval.V01, 0, ModeProposed, false)
	if err != nil {
		t.Fatal(err)
	}
	if quiet.HasFall() || quiet.Fall != (Window{}) || !quiet.HasRise() {
		t.Errorf("INV under 01: %+v", quiet)
	}
	// An output that may rise over an input that cannot fall is a state
	// inconsistency.
	if _, err := PropagateGate(cell, netlist.Inv, []*LineInfo{line(nineval.V01, rise, fall)}, nineval.VXX, 0, ModeProposed, false); err == nil {
		t.Error("INV rise over an input that cannot fall: no error")
	}
	if _, err := PropagateGate(cell, netlist.GateKind(99), []*LineInfo{in}, nineval.VXX, 0, ModeProposed, false); err == nil {
		t.Error("unknown gate kind: no error")
	}
}

// TestPropagateTwoInputCorners checks the Table 1 corner rules on NAND2
// and NOR2 with constant pins: with no definite switcher the latest
// to-controlling arrival is the slowest single switcher; a definite
// switcher bounds it instead; the to-non-controlling earliest arrival
// waits for every definite switcher.
func TestPropagateTwoInputCorners(t *testing.T) {
	cell := constCell([]float64{10 * ps, 50 * ps}, 20*ps, []float64{30 * ps, 60 * ps}, 40*ps)
	w0 := Window{AS: 0, AL: 100 * ps, TS: 50 * ps, TL: 50 * ps}
	w1 := Window{AS: 20 * ps, AL: 40 * ps, TS: 50 * ps, TL: 50 * ps}
	prop := func(kind netlist.GateKind, a, b nineval.Value, mode Mode) LineInfo {
		t.Helper()
		out := nineval.Eval(kind, []nineval.Value{a, b})
		li, err := PropagateGate(cell, kind, []*LineInfo{line(a, w0, w0), line(b, w1, w1)}, out, 0, mode, false)
		if err != nil {
			t.Fatal(err)
		}
		return li
	}

	for _, mode := range []Mode{ModeProposed, ModePinToPin} {
		// NAND2, both inputs may fall: rise AS = min(0+10, 20+50),
		// AL = max(100+10, 40+50).
		li := prop(netlist.Nand, nineval.VXX, nineval.VXX, mode)
		if want := (Window{AS: 10 * ps, AL: 110 * ps, TS: 20 * ps, TL: 20 * ps}); !nearWindow(li.Rise, want) {
			t.Errorf("%v NAND2 maybe/maybe rise %+v, want %+v", mode, li.Rise, want)
		}
		// Fall (to-non-controlling), no definite switcher: AS is the
		// fastest single, AL the slowest.
		if want := (Window{AS: 30 * ps, AL: 130 * ps, TS: 40 * ps, TL: 40 * ps}); !nearWindow(li.Fall, want) {
			t.Errorf("%v NAND2 maybe/maybe fall %+v, want %+v", mode, li.Fall, want)
		}
	}

	// Pin 1 definitely falls (10), pin 0 may: the output rises no later
	// than pin 1's worst corner, 40+50.
	li := prop(netlist.Nand, nineval.VXX, nineval.V10, ModeProposed)
	if !near(li.Rise.AL, 90*ps) || !near(li.Rise.AS, 10*ps) {
		t.Errorf("NAND2 with a definite fall: rise %+v, want AS 10ps AL 90ps", li.Rise)
	}
	// Both definitely rise (01): the output falls only after both, so AS
	// is the max over them: max(0+30, 20+60).
	li = prop(netlist.Nand, nineval.V01, nineval.V01, ModeProposed)
	if !near(li.Fall.AS, 80*ps) || !near(li.Fall.AL, 130*ps) || li.HasRise() {
		t.Errorf("NAND2 with definite rises: %+v, want fall AS 80ps AL 130ps and no rise", li)
	}

	// NOR2 swaps the directions: the fall is the to-controlling response.
	li = prop(netlist.Nor, nineval.VXX, nineval.VXX, ModeProposed)
	if want := (Window{AS: 10 * ps, AL: 110 * ps, TS: 20 * ps, TL: 20 * ps}); !nearWindow(li.Fall, want) {
		t.Errorf("NOR2 fall %+v, want %+v", li.Fall, want)
	}
	if want := (Window{AS: 30 * ps, AL: 130 * ps, TS: 40 * ps, TL: 40 * ps}); !nearWindow(li.Rise, want) {
		t.Errorf("NOR2 rise %+v, want %+v", li.Rise, want)
	}

	// An output that may switch while no input can: inconsistent.
	steady := []*LineInfo{line(nineval.V11, w0, w0), line(nineval.V11, w1, w1)}
	if _, err := PropagateGate(cell, netlist.Nand, steady, nineval.VXX, 0, ModeProposed, false); err == nil {
		t.Error("NAND2 rise with no input able to fall: no error")
	}
	if _, err := PropagateGate(cell, netlist.Nand, steady, nineval.V10, 0, ModeProposed, false); err == nil {
		t.Error("NAND2 fall with no input able to rise: no error")
	}
}

// TestProposedModeSimultaneousSpeedUp: on the characterised library, two
// simultaneous definite to-controlling transitions give an earlier
// earliest arrival under the proposed model than pin-to-pin (the paper's
// speed-up), three inputs are at least as fast as two, and the Λ-shape
// extension can only widen the to-non-controlling latest corners.
func TestProposedModeSimultaneousSpeedUp(t *testing.T) {
	lib := prechar.MustLibrary()
	w := Window{AS: 0, AL: 20 * ps, TS: 200 * ps, TL: 300 * ps}
	fall := func(n int) []*LineInfo {
		ins := make([]*LineInfo, n)
		for i := range ins {
			ins[i] = line(nineval.V10, w, w)
		}
		return ins
	}
	prop := func(name string, kind netlist.GateKind, ins []*LineInfo, mode Mode, nc bool) LineInfo {
		t.Helper()
		cell, ok := lib.Cell(name)
		if !ok {
			t.Fatalf("library has no %s", name)
		}
		vals := make([]nineval.Value, len(ins))
		for i, in := range ins {
			vals[i] = in.Value
		}
		li, err := PropagateGate(cell, kind, ins, nineval.Eval(kind, vals), 0, mode, nc)
		if err != nil {
			t.Fatal(err)
		}
		return li
	}
	p2p := prop("NAND2", netlist.Nand, fall(2), ModePinToPin, false)
	prop2 := prop("NAND2", netlist.Nand, fall(2), ModeProposed, false)
	if !(prop2.Rise.AS < p2p.Rise.AS) {
		t.Errorf("NAND2 simultaneous falls: proposed AS %g not earlier than pin-to-pin %g", prop2.Rise.AS, p2p.Rise.AS)
	}
	if prop2.Rise.AL != p2p.Rise.AL {
		t.Errorf("NAND2: the latest arrival moved with the model: %g vs %g", prop2.Rise.AL, p2p.Rise.AL)
	}
	if prop3 := prop("NAND3", netlist.Nand, fall(3), ModeProposed, false); prop3.Rise.AS > prop2.Rise.AS {
		t.Errorf("NAND3 three-way AS %g later than NAND2 two-way %g", prop3.Rise.AS, prop2.Rise.AS)
	}

	rise := []*LineInfo{line(nineval.VXX, w, w), line(nineval.VXX, w, w)}
	plain := prop("NAND2", netlist.Nand, rise, ModeProposed, false)
	ext := prop("NAND2", netlist.Nand, rise, ModeProposed, true)
	if ext.Fall.AL < plain.Fall.AL || ext.Fall.TL < plain.Fall.TL {
		t.Errorf("NC extension narrowed the fall window: %+v vs %+v", ext.Fall, plain.Fall)
	}
}

func TestArcsAndPins(t *testing.T) {
	for _, c := range []struct {
		kind netlist.GateKind
		want []Arc
	}{
		{netlist.Inv, []Arc{{InRise: false, OutRise: true, Ctrl: true}, {InRise: true, OutRise: false, Ctrl: false}}},
		{netlist.Nand, []Arc{{InRise: false, OutRise: true, Ctrl: true}, {InRise: true, OutRise: false, Ctrl: false}}},
		{netlist.Buf, []Arc{{InRise: true, OutRise: true, Ctrl: true}, {InRise: false, OutRise: false, Ctrl: false}}},
		{netlist.Nor, []Arc{{InRise: true, OutRise: false, Ctrl: true}, {InRise: false, OutRise: true, Ctrl: false}}},
	} {
		if got := Arcs(c.kind); !slices.Equal(got, c.want) {
			t.Errorf("Arcs(%v) = %+v, want %+v", c.kind, got, c.want)
		}
	}
	if Arcs(netlist.GateKind(99)) != nil {
		t.Error("Arcs of an unknown kind is not nil")
	}
	cell := constCell([]float64{10 * ps, 50 * ps}, 20*ps, []float64{30 * ps, 60 * ps}, 40*ps)
	g := Gate{Kind: netlist.Nand, Cell: cell}
	if g.Pin(Arc{Ctrl: true}, 1) != &cell.CtrlPins[1] || g.Pin(Arc{}, 0) != &cell.NonCtrlPins[0] {
		t.Error("Gate.Pin does not select the arc's table")
	}
}

func TestRequiredTighten(t *testing.T) {
	q := unconstrained
	q.tighten(-5, 10)
	if q != (Required{QS: -5, QL: 10}) {
		t.Fatalf("first tighten: %+v", q)
	}
	q.tighten(-7, 12) // looser on both sides: no change
	if q != (Required{QS: -5, QL: 10}) {
		t.Fatalf("a looser bound widened the window: %+v", q)
	}
	q.tighten(-1, 4)
	if q != (Required{QS: -1, QL: 4}) {
		t.Fatalf("a tighter bound did not narrow the window: %+v", q)
	}
}

func TestCompareViolations(t *testing.T) {
	in := []Violation{
		{Net: "b", Rising: false, Setup: false, Slack: -1},
		{Net: "a", Rising: true, Setup: true, Slack: -1},
		{Net: "b", Rising: true, Setup: false, Slack: -1},
		{Net: "z", Slack: -3},
		{Net: "b", Rising: true, Setup: true, Slack: -1},
		{Net: "a", Slack: -0.5},
	}
	slices.SortFunc(in, compareViolations)
	want := []Violation{
		{Net: "z", Slack: -3},
		{Net: "a", Rising: true, Setup: true, Slack: -1},
		{Net: "b", Rising: true, Setup: true, Slack: -1},
		{Net: "b", Rising: true, Setup: false, Slack: -1},
		{Net: "b", Rising: false, Setup: false, Slack: -1},
		{Net: "a", Slack: -0.5},
	}
	if !slices.Equal(in, want) {
		t.Errorf("order:\n got %+v\nwant %+v", in, want)
	}
	if compareViolations(want[1], want[1]) != 0 {
		t.Error("a violation does not compare equal to itself")
	}
}

// c17Snapshot propagates c17 (all NAND2) forward under STA (every value
// xx) with a constant cell: to-controlling delay 10 ps on both pins,
// to-non-controlling 30 ps.
func c17Snapshot(t *testing.T) *Snapshot {
	t.Helper()
	c := benchgen.C17()
	if err := c.EnsureBuilt(); err != nil {
		t.Fatal(err)
	}
	cell := constCell([]float64{10 * ps, 10 * ps}, 20*ps, []float64{30 * ps, 30 * ps}, 40*ps)
	s := &Snapshot{Circuit: c, Mode: ModeProposed, Lines: make([]LineInfo, c.NumNets()), Gates: make([]Gate, c.NumGates())}
	for id := range c.PIs {
		s.Lines[id] = PILine(nineval.VXX, DefaultPITiming())
	}
	for _, gi := range c.TopoOrder() {
		s.Gates[gi] = Gate{Kind: c.Gates[gi].Kind, Cell: cell}
		var ins []*LineInfo
		for _, id := range c.GateInputIDs(gi) {
			ins = append(ins, &s.Lines[id])
		}
		li, err := PropagateGate(cell, c.Gates[gi].Kind, ins, nineval.VXX, 0, s.Mode, false)
		if err != nil {
			t.Fatal(err)
		}
		s.Lines[len(c.PIs)+gi] = li
	}
	return s
}

// TestSnapshotRequiredTimesC17 checks the backward pass on c17 by hand.
// Required windows start at the POs (22, 23) as [0, 1000] ps and step back
// 10 ps through a to-controlling arc (input fall -> output rise) and 30 ps
// through a to-non-controlling one. For example net 3 feeds 10 (-> 22) and
// 11 (-> 16 -> 22/23, 19 -> 23): its fall's tightest path is 3 fall -> 11
// rise -> 16 fall -> 22 rise, QL = 1000-10-30-10 = 950; its rise's is 3 rise
// -> 11 fall -> 16 rise -> 22 fall, QL = 1000-30-10-30 = 930.
func TestSnapshotRequiredTimesC17(t *testing.T) {
	s := c17Snapshot(t)
	cons := Constraint{MinTime: 0, MaxTime: 1000 * ps}
	req := s.RequiredMap(s.Required(cons))
	if len(req) != 11 {
		t.Errorf("%d required entries, want 11 (5 PIs feeding gates + 6 gate outputs)", len(req))
	}
	want := map[string]LineRequired{
		"22": {Rise: Required{0, 1000 * ps}, Fall: Required{0, 1000 * ps}},
		"16": {Rise: Required{-30 * ps, 970 * ps}, Fall: Required{-10 * ps, 990 * ps}},
		"19": {Rise: Required{-30 * ps, 970 * ps}, Fall: Required{-10 * ps, 990 * ps}},
		"11": {Rise: Required{-40 * ps, 960 * ps}, Fall: Required{-40 * ps, 960 * ps}},
		"3":  {Rise: Required{-40 * ps, 930 * ps}, Fall: Required{-40 * ps, 950 * ps}},
	}
	for net, w := range want {
		got, ok := req[net]
		if !ok {
			t.Errorf("no required window for %s", net)
			continue
		}
		if !near(got.Rise.QS, w.Rise.QS) || !near(got.Rise.QL, w.Rise.QL) ||
			!near(got.Fall.QS, w.Fall.QS) || !near(got.Fall.QL, w.Fall.QL) {
			t.Errorf("net %s: required %+v, want %+v", net, *got, w)
		}
	}

	// Refined states: once 16 can no longer switch, arcs through it drop
	// out — 16 and its private input 2 are unconstrained, and 11 is
	// required only through 19.
	s.Lines[7].SRise, s.Lines[7].SFall = nineval.SNo, nineval.SNo // net 16: PIs 0-4, gates 10 11 16 19 22 23
	if s.Circuit.NetName(7) != "16" {
		t.Fatalf("net ID 7 is %s, not 16", s.Circuit.NetName(7))
	}
	req = s.RequiredMap(s.Required(cons))
	for _, net := range []string{"16", "2"} {
		if got := *req[net]; got.Rise != unconstrained || got.Fall != unconstrained {
			t.Errorf("net %s behind a quiet line: required %+v, want unconstrained", net, got)
		}
	}
	if got := req["11"]; !near(got.Rise.QL, 960*ps) || !near(got.Fall.QL, 960*ps) {
		t.Errorf("net 11 through 19 only: required %+v, want QL 960ps both ways", *got)
	}
}

// TestSnapshotViolations: a generous constraint yields none; a tight one
// yields setup and hold failures, all negative, in compareViolations
// order; LineMap views the same lines by name.
func TestSnapshotViolations(t *testing.T) {
	s := c17Snapshot(t)
	if v := s.Violations(s.Required(Constraint{MinTime: -1e-6, MaxTime: 1e-6})); len(v) != 0 {
		t.Errorf("generous constraint: %d violations", len(v))
	}
	v := s.Violations(s.Required(Constraint{MinTime: 50 * ps, MaxTime: 60 * ps}))
	if len(v) == 0 {
		t.Fatal("tight constraint: no violations")
	}
	if !slices.IsSortedFunc(v, compareViolations) {
		t.Error("violations out of order")
	}
	setup, hold := 0, 0
	for _, x := range v {
		if !(x.Slack < 0) {
			t.Errorf("violation with slack %g", x.Slack)
		}
		if x.Setup {
			setup++
		} else {
			hold++
		}
	}
	if setup == 0 || hold == 0 {
		t.Errorf("%d setup and %d hold violations, want both kinds", setup, hold)
	}
	m := s.LineMap()
	if len(m) != len(s.Lines) || m["16"] != &s.Lines[7] {
		t.Errorf("LineMap does not view the snapshot's lines")
	}
}

// TestPropagateGateAllocs: evaluating one gate allocates nothing, for every
// cell the timing layers evaluate, under both modes, with and without the
// NC extension. The inputs' windows differ, so every corner rule runs.
func TestPropagateGateAllocs(t *testing.T) {
	lib := prechar.MustLibrary()
	for _, c := range []struct {
		name string
		kind netlist.GateKind
	}{
		{"INV", netlist.Inv}, {"NAND2", netlist.Nand}, {"NAND3", netlist.Nand},
		{"NAND4", netlist.Nand}, {"NOR2", netlist.Nor}, {"NOR3", netlist.Nor},
	} {
		cell := lib.MustCell(c.name)
		ins := make([]*LineInfo, cell.N)
		for i := range ins {
			w := Window{AS: float64(i) * 30 * ps, AL: float64(i)*30*ps + 120*ps, TS: 150 * ps, TL: float64(i)*200*ps + 300*ps}
			ins[i] = line(nineval.VXX, w, w)
		}
		for _, mode := range []Mode{ModeProposed, ModePinToPin} {
			for _, ncExt := range []bool{false, true} {
				var err error
				n := testing.AllocsPerRun(100, func() {
					_, err = PropagateGate(cell, c.kind, ins, nineval.VXX, cell.RefLoad/2, mode, ncExt)
				})
				if err != nil {
					t.Fatalf("%s %v ncExt=%t: %v", c.name, mode, ncExt, err)
				}
				if n != 0 {
					t.Errorf("%s %v ncExt=%t: %v allocations per PropagateGate, want 0", c.name, mode, ncExt, n)
				}
			}
		}
	}
}
