// Package atpg implements the timing-based ATPG framework of the paper's
// Section 7, targeting crosstalk delay faults.
//
// A crosstalk fault site couples an aggressor line to a victim line: the
// fault is excited when both lines carry transitions of the specified
// directions whose arrival times align within a coupling window (the
// "relative arrival time constraints" of Figure 13). A test must excite the
// fault and propagate the victim's (delayed) transition to a primary output.
//
// The generator contains the four components the paper prescribes:
//
//  1. a delay model able to deal with min-max ranges (package core via
//     packages sta/itr, with worst-case corner identification);
//  2. fault excitation conditions at the site and propagation conditions;
//  3. a PODEM-style search engine that implicitly enumerates the two-frame
//     logic search space over primary input assignments;
//  4. incremental timing refinement (sta.Refine) that recomputes timing
//     windows as values are assigned; branches whose refined windows make
//     the required alignment impossible are pruned.
//
// The Section 7 experiment toggles component 4: with a bounded backtrack
// budget, ITR pruning sharply increases ATPG efficiency (the percentage of
// targeted faults either detected or proven untestable), reproducing the
// paper's 39.63% -> 82.75% result in shape.
package atpg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"

	"sstiming/internal/core"
	"sstiming/internal/engine"
	"sstiming/internal/logicsim"
	"sstiming/internal/netlist"
	"sstiming/internal/nineval"
	"sstiming/internal/sta"
	"sstiming/internal/tgraph"
)

// Fault is one crosstalk delay fault site.
type Fault struct {
	// Aggressor and Victim are the coupled nets.
	Aggressor, Victim string
	// AggRising and VicRising are the transition directions required for
	// excitation (opposite-direction coupling slows the victim).
	AggRising, VicRising bool
	// MaxSkew is the alignment window: |A_agg - A_vic| must not exceed
	// it for the coupling to matter.
	MaxSkew float64
}

// String renders the fault site.
func (f Fault) String() string {
	dir := func(r bool) string {
		if r {
			return "R"
		}
		return "F"
	}
	return fmt.Sprintf("xtalk(%s%s->%s%s,±%.0fps)",
		f.Aggressor, dir(f.AggRising), f.Victim, dir(f.VicRising), f.MaxSkew*1e12)
}

// Outcome classifies one ATPG run.
type Outcome int

const (
	// Detected: a test was found.
	Detected Outcome = iota
	// Untestable: the search space was exhausted without a test.
	Untestable
	// Aborted: the backtrack budget ran out.
	Aborted
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Detected:
		return "detected"
	case Untestable:
		return "untestable"
	default:
		return "aborted"
	}
}

// TwoPattern is a generated two-vector test.
type TwoPattern struct {
	V1, V2 logicsim.Vector
}

const (
	// faultDelay is the slowdown the excited crosstalk fault adds to the
	// victim's transition.
	faultDelay = 150e-12
	// detectThreshold is the smallest primary-output arrival shift that
	// counts as detection.
	detectThreshold = faultDelay / 2
)

// Options configures the generator.
type Options struct {
	// Lib is the characterised cell library (required).
	Lib *core.Library
	// UseITR enables incremental timing refinement pruning (component 4).
	// Each fault's search keeps one persistent timing graph alive over
	// its implication: a decision step re-converges only the cone whose
	// implied values changed, and backtracking is just the undone and
	// sibling values applied as the next delta.
	UseITR bool
	// ITRFullRecompute forces the pre-refactor behaviour: a from-scratch
	// sta.Refine per decision step instead of the persistent graph. The
	// two paths produce byte-identical windows and therefore identical
	// searches (asserted by TestIncrementalITRMatchesFullRefine); this
	// knob exists as the cross-check reference and for the bench harness
	// to quantify the speed-up.
	ITRFullRecompute bool
	// MaxBacktracks bounds the search; zero selects 64.
	MaxBacktracks int
	// PI is the assumed primary input stimulus.
	PI sta.PITiming
	// Ctx, when non-nil, cancels the search; a cancelled fault reports
	// Aborted.
	Ctx context.Context
	// Jobs bounds the engine worker pool RunCampaign uses to target
	// faults concurrently; one runs serially, zero or less selects
	// GOMAXPROCS. Per-fault results are independent of the worker count.
	Jobs int
	// CampaignBudget, when positive, bounds the total backtracks summed
	// over all faults of RunCampaign; once exhausted the remaining
	// faults are aborted (the paper's bounded-effort campaign setup).
	CampaignBudget int
	// Metrics, when non-nil, counts targeted faults, decisions and
	// backtracks.
	Metrics *engine.Metrics
}

// Result is the outcome of one fault's test generation.
type Result struct {
	Outcome    Outcome
	Test       *TwoPattern
	Backtracks int
	// Decisions counts PI value assignments explored.
	Decisions int
	// LeavesTried and LeavesExcited count fully specified candidates
	// validated and those that excited the fault (diagnostics).
	LeavesTried   int
	LeavesExcited int
}

type generator struct {
	c    *netlist.Circuit
	f    Fault
	opts Options

	// imp is the search's implication over net IDs: a decision is Mark,
	// Assign and Imply, a backtrack is Undo.
	imp          *nineval.Implication
	aggID, vicID int

	// tg is the persistent timing graph carrying this fault's ITR state
	// across decision steps (lazily built on the first timingFeasible
	// call). It follows imp. It is private to the fault's search —
	// RunCampaign workers share the circuit but never a graph.
	tg *tgraph.Graph

	// cancelled flags that the search stopped early because opts.Ctx was
	// done; the fault then reports Aborted rather than Untestable.
	cancelled bool

	backtracks    int
	decisions     int
	leavesTried   int
	leavesExcited int
	// conePIs are the decision variables (net IDs): primary inputs in
	// the transitive fanin cone of the fault site (PODEM-style backtrace
	// scope). Remaining PIs are filled heuristically at the leaves.
	conePIs []int
	// conePOs are the primary outputs reachable from the victim (net
	// IDs) — the candidate propagation targets.
	conePOs []int
}

// literal is one net assignment, replayed into the implication.
type literal struct {
	id int
	v  nineval.Value
}

// GenerateTest attempts to generate a two-pattern test for the fault.
func GenerateTest(c *netlist.Circuit, f Fault, opts Options) (Result, error) {
	if opts.Lib == nil {
		return Result{}, fmt.Errorf("atpg: Options.Lib is required")
	}
	if err := c.EnsureBuilt(); err != nil {
		return Result{}, fmt.Errorf("atpg: %w", err)
	}
	if opts.MaxBacktracks <= 0 {
		opts.MaxBacktracks = 64
	}
	if _, okA := driverOrPI(c, f.Aggressor); !okA {
		return Result{}, fmt.Errorf("atpg: unknown aggressor net %q", f.Aggressor)
	}
	if _, okV := driverOrPI(c, f.Victim); !okV {
		return Result{}, fmt.Errorf("atpg: unknown victim net %q", f.Victim)
	}

	g := &generator{c: c, f: f, opts: opts, imp: nineval.NewImplication(c)}
	g.aggID, _ = c.NetID(f.Aggressor)
	g.vicID, _ = c.NetID(f.Victim)
	defer func() {
		opts.Metrics.Add(engine.ATPGFaults, 1)
		opts.Metrics.Add(engine.ATPGDecisions, int64(g.decisions))
		opts.Metrics.Add(engine.ATPGBacktracks, int64(g.backtracks))
	}()
	g.orderPIs()
	cone := g.fanoutCone(g.vicID)
	for _, po := range c.POs {
		if id, ok := c.NetID(po); ok && cone[id] {
			g.conePOs = append(g.conePOs, id)
		}
	}
	if len(g.conePOs) == 0 {
		// The victim reaches no primary output: structurally untestable.
		return Result{Outcome: Untestable}, nil
	}

	// Objective cube: required transitions at the fault site.
	objective := nineval.Cube{
		f.Aggressor: transitionValue(f.AggRising),
		f.Victim:    transitionValue(f.VicRising),
	}
	for net, v := range objective {
		id, _ := c.NetID(net)
		g.imp.Assign(id, v) // a fresh implication holds no value to contradict
	}
	if !g.imp.Imply() {
		return Result{Outcome: Untestable}, nil
	}
	base := g.imp.Mark()

	// Propagation objectives: augment the excitation cube with the
	// side-input conditions of one sensitised victim->PO path (the
	// paper's "propagation conditions in the fault-free sites"). Paths
	// are grown incrementally, checking logical consistency at every
	// gate, so the builder routes around blocked branches. Each distinct
	// consistent path (distinct implied values) yields one root
	// alternative, kept as its side-condition literals; the bare
	// excitation is kept as the final fallback.
	var roots [][]literal
	var seenRoots [][]nineval.Value
	for seed := 0; seed < maxSensitizedPaths; seed++ {
		if lits, ok := g.sensitizedPath(seed); ok {
			vals := g.imp.Values()
			if !slices.ContainsFunc(seenRoots, func(seen []nineval.Value) bool { return slices.Equal(seen, vals) }) {
				seenRoots = append(seenRoots, slices.Clone(vals))
				roots = append(roots, lits)
			}
		}
		g.imp.Undo(base)
	}
	roots = append(roots, nil)

	// Budget slicing: each sensitised root gets an equal share of the
	// backtrack budget; the bare-excitation fallback may spend whatever
	// remains.
	var found bool
	var test *TwoPattern
	total := g.opts.MaxBacktracks
	share := total / len(roots)
	if share < 8 {
		share = 8
	}
	for i, root := range roots {
		if i == len(roots)-1 {
			g.opts.MaxBacktracks = total
		} else {
			cap := g.backtracks + share
			if cap > total {
				cap = total
			}
			g.opts.MaxBacktracks = cap
		}
		g.imp.Undo(base)
		for _, l := range root {
			g.imp.Assign(l.id, l.v)
		}
		g.imp.Imply() // consistent: the root was implied when it was found
		found, test = g.search(0)
		if found || g.cancelled || g.backtracks >= total {
			break
		}
	}
	g.opts.MaxBacktracks = total
	res := Result{
		Backtracks:    g.backtracks,
		Decisions:     g.decisions,
		LeavesTried:   g.leavesTried,
		LeavesExcited: g.leavesExcited,
	}
	switch {
	case found:
		res.Outcome = Detected
		res.Test = test
	case g.cancelled || g.backtracks >= g.opts.MaxBacktracks:
		res.Outcome = Aborted
	default:
		res.Outcome = Untestable
	}
	return res, nil
}

func transitionValue(rising bool) nineval.Value {
	if rising {
		return nineval.V01
	}
	return nineval.V10
}

func driverOrPI(c *netlist.Circuit, net string) (int, bool) {
	if c.IsPI(net) {
		return -1, true
	}
	return c.Driver(net)
}

// orderPIs splits the primary inputs into the decision set (fanin cone of
// the fault site) and the heuristically-filled remainder.
func (g *generator) orderPIs() {
	cone := map[string]bool{}
	var walk func(net string)
	walk = func(net string) {
		if cone[net] {
			return
		}
		cone[net] = true
		if gi, ok := g.c.Driver(net); ok {
			for _, in := range g.c.Gates[gi].Inputs {
				walk(in)
			}
		}
	}
	walk(g.f.Aggressor)
	walk(g.f.Victim)

	for id, pi := range g.c.PIs {
		if cone[pi] {
			g.conePIs = append(g.conePIs, id)
		}
	}
}

// search performs PODEM-style depth-first enumeration over PI two-frame
// values from the implication's current fixpoint, which it leaves as it
// found it. Returns (true, test) on success. It stops expanding once the
// backtrack budget is exhausted.
func (g *generator) search(depth int) (bool, *TwoPattern) {
	if g.opts.Ctx != nil && g.opts.Ctx.Err() != nil {
		g.cancelled = true
		return false, nil
	}
	if g.backtracks >= g.opts.MaxBacktracks {
		return false, nil
	}

	// Objective check: the fault-site transitions must still be possible.
	if g.imp.Value(g.aggID).StateDir(g.f.AggRising) == nineval.SNo ||
		g.imp.Value(g.vicID).StateDir(g.f.VicRising) == nineval.SNo {
		return false, nil
	}
	// Propagation check: some PO in the victim's fanout cone must still
	// be able to switch.
	propagatable := false
	for _, po := range g.conePOs {
		v := g.imp.Value(po)
		if v.StateRise() != nineval.SNo || v.StateFall() != nineval.SNo {
			propagatable = true
			break
		}
	}
	if !propagatable {
		return false, nil
	}

	// ITR pruning at the root: recompute timing windows under the
	// initial objective cube and check that the alignment constraint is
	// satisfiable at all. (Deeper nodes are checked child-by-child
	// below, which also yields the alignment-guided value ordering.)
	if g.opts.UseITR && depth == 0 {
		if ok, _ := g.timingFeasible(); !ok {
			return false, nil
		}
	}

	pi := g.nextPI()
	if pi < 0 {
		return g.searchLeaf()
	}

	// Expand the four candidate values. With ITR enabled, prune children
	// whose refined windows make the alignment impossible and order the
	// survivors by how closely the aggressor and victim windows align
	// (component 4 used as search guidance, not just as a filter).
	type child struct {
		v     nineval.Value
		score float64
	}
	var children []child
	mark := g.imp.Mark()
	for _, v := range valueOrder {
		merged, ok := g.imp.Value(pi).Meet(v)
		if !ok {
			continue
		}
		g.decisions++
		feasible, score := g.decide(pi, merged), 0.0
		if feasible && g.opts.UseITR {
			feasible, score = g.timingFeasible()
		}
		g.imp.Undo(mark)
		if !feasible {
			g.backtracks++
			if g.backtracks >= g.opts.MaxBacktracks {
				return false, nil
			}
			continue
		}
		children = append(children, child{v: merged, score: score})
	}
	if g.opts.UseITR {
		sort.SliceStable(children, func(i, j int) bool { return children[i].score < children[j].score })
	}

	for _, ch := range children {
		g.decide(pi, ch.v) // consistent: implied when the child was scored
		found, test := g.search(depth + 1)
		g.imp.Undo(mark)
		if found {
			return true, test
		}
		g.backtracks++
		if g.backtracks >= g.opts.MaxBacktracks {
			return false, nil
		}
	}
	return false, nil
}

// decide assigns a value to a primary input and implies it. It returns
// false on conflict; the caller undoes either way.
func (g *generator) decide(pi int, v nineval.Value) bool {
	return g.imp.Assign(pi, v) && g.imp.Imply()
}

// searchLeaf handles a node where every cone PI is assigned: the fault-site
// excitation and (when the root carried path objectives) the propagation
// conditions are logically fixed. The remaining primary inputs are completed
// with a few fill patterns — quiet fills first, which preserve any path
// sensitisation — and each fully specified candidate is validated by faulty
// timing simulation. Each failed attempt costs a backtrack.
func (g *generator) searchLeaf() (bool, *TwoPattern) {
	mark := g.imp.Mark()
	// Quiet fills first (they preserve path sensitisation), then
	// transition fills.
	for _, fill := range []nineval.Value{nineval.V11, nineval.V00, nineval.V01, nineval.V10} {
		for pi := range g.c.PIs {
			cur := g.imp.Value(pi)
			if cur.V1 == nineval.FX {
				cur.V1 = fill.V1
			}
			if cur.V2 == nineval.FX {
				cur.V2 = fill.V2
			}
			g.imp.Assign(pi, cur) // only fills unknown frames
		}
		var test *TwoPattern
		if g.imp.Imply() {
			test = g.validate()
		}
		g.imp.Undo(mark)
		if test != nil {
			return true, test
		}
		g.backtracks++
		if g.backtracks >= g.opts.MaxBacktracks {
			return false, nil
		}
	}
	return false, nil
}

// maxSensitizedPaths bounds the number of sensitised-path root alternatives
// tried per fault.
const maxSensitizedPaths = 4

// sensitizedPath grows a sensitised path from the victim to a primary
// output, one gate at a time: at each step it tries the fanout branches (in
// a seed-rotated order) and keeps the first one whose side-input conditions
// — every off-path input steady at the non-controlling value in both frames
// — are logically consistent with the implication so far. It returns the
// side-condition literals it assigned and leaves them implied, or false if
// the walk gets stuck before reaching a primary output. The caller undoes.
func (g *generator) sensitizedPath(seed int) ([]literal, bool) {
	net := g.vicID
	visited := map[int]bool{net: true}

	isPO := map[int]bool{}
	for _, po := range g.c.POs {
		id, _ := g.c.NetID(po)
		isPO[id] = true
	}

	var lits []literal
	nPI := len(g.c.PIs)
	for !isPO[net] {
		fos := g.c.NetFanout(net)
		if len(fos) == 0 {
			return nil, false
		}
		progressed := false
		for k := 0; k < len(fos); k++ {
			gi := fos[(k+seed)%len(fos)]
			if visited[nPI+gi] {
				continue
			}
			var ok bool
			if lits, ok = g.applySideConditions(lits, gi, net); !ok {
				continue
			}
			net = nPI + gi
			visited[net] = true
			progressed = true
			break
		}
		if !progressed {
			return nil, false
		}
	}
	return lits, true
}

// applySideConditions assigns the sensitisation conditions of one gate —
// every input other than pathIn holds the gate's non-controlling value in
// both frames — appends them to lits and implies them. On conflict it
// undoes its own assignments and returns false.
func (g *generator) applySideConditions(lits []literal, gi, pathIn int) ([]literal, bool) {
	var steady nineval.Value
	switch g.c.Gates[gi].Kind {
	case netlist.Nand:
		steady = nineval.V11
	case netlist.Nor:
		steady = nineval.V00
	default:
		// INV/BUF have no side inputs; nothing to constrain.
		return lits, true
	}
	mark, n := g.imp.Mark(), len(lits)
	for _, in := range g.c.GateInputIDs(gi) {
		if int(in) == pathIn {
			continue
		}
		cur := g.imp.Value(int(in))
		merged, ok := cur.Meet(steady)
		if !ok {
			g.imp.Undo(mark)
			return lits[:n], false
		}
		if merged != cur {
			g.imp.Assign(int(in), merged)
			lits = append(lits, literal{int(in), merged})
		}
	}
	if !g.imp.Imply() {
		g.imp.Undo(mark)
		return lits[:n], false
	}
	return lits, true
}

// nextPI returns the first cone PI whose two-frame value is not fully
// specified, or -1.
func (g *generator) nextPI() int {
	for _, pi := range g.conePIs {
		v := g.imp.Value(pi)
		if v.V1 == nineval.FX || v.V2 == nineval.FX {
			return pi
		}
	}
	return -1
}

// valueOrder lists the four fully specified two-frame PI values, transitions
// first (they are more likely to excite and propagate).
var valueOrder = []nineval.Value{nineval.V01, nineval.V10, nineval.V11, nineval.V00}

// timingFeasible refines the windows under the current implication and
// checks the fault's alignment constraint. The returned score (valid when
// feasible) measures how far apart the aggressor and victim window centres
// sit — lower scores make better search candidates.
//
// The implication is always at a fixpoint here (the search implies every
// candidate before scoring it), so the default path hands its changed
// values to the fault's persistent timing graph as a delta: only the cone
// whose implied values changed is re-converged, and stepping back to a
// sibling or an ancestor is the same delta mechanism in reverse. The graph
// and the from-scratch reference produce byte-identical windows, so pruning
// and candidate ordering are unchanged.
func (g *generator) timingFeasible() (bool, float64) {
	wa, wv, okA, okV, err := g.refineWindows()
	if err != nil {
		return false, 0 // logically inconsistent
	}
	if !okA || !okV {
		return false, 0
	}
	// Alignment satisfiable iff the windows can come within MaxSkew.
	if wa.AS > wv.AL+g.f.MaxSkew {
		return false, 0
	}
	if wa.AL < wv.AS-g.f.MaxSkew {
		return false, 0
	}
	ca := (wa.AS + wa.AL) / 2
	cv := (wv.AS + wv.AL) / 2
	score := ca - cv
	if score < 0 {
		score = -score
	}
	return true, score
}

// refineWindows produces the aggressor and victim windows under the
// implication, via the persistent graph (default) or a from-scratch
// sta.Refine of its cube (ITRFullRecompute). A non-nil error means the
// timing state could not be established (inconsistent cube, cancellation,
// poisoned-graph heal failure).
func (g *generator) refineWindows() (wa, wv sta.Window, okA, okV bool, err error) {
	if g.opts.ITRFullRecompute {
		res, rerr := sta.Refine(g.c, g.imp.Cube(nil), sta.Options{
			Lib:  g.opts.Lib,
			Mode: sta.ModeProposed,
			PI:   g.opts.PI,
		})
		if rerr != nil {
			return sta.Window{}, sta.Window{}, false, false, rerr
		}
		wa, okA = res.Window(g.f.Aggressor, g.f.AggRising)
		wv, okV = res.Window(g.f.Victim, g.f.VicRising)
		return wa, wv, okA, okV, nil
	}

	g.opts.Metrics.Add(engine.ITRRefines, 1)
	if g.tg == nil {
		tgr, berr := tgraph.NewOnImplication(g.c, g.imp, tgraph.Options{
			Lib:     g.opts.Lib,
			Mode:    sta.ModeProposed,
			PI:      g.opts.PI,
			Ctx:     g.opts.Ctx,
			Metrics: g.opts.Metrics,
		})
		if berr != nil {
			return sta.Window{}, sta.Window{}, false, false, berr
		}
		g.tg = tgr
	} else if serr := g.tg.SyncImplication(g.opts.Ctx); serr != nil {
		return sta.Window{}, sta.Window{}, false, false, serr
	} else {
		g.opts.Metrics.Add(engine.ITRImplications, int64(g.tg.NumChanged()))
	}
	wa, okA = g.tg.Window(g.f.Aggressor, g.f.AggRising)
	wv, okV = g.tg.Window(g.f.Victim, g.f.VicRising)
	return wa, wv, okA, okV, nil
}

// validate simulates the fully specified implication with the crosstalk fault
// injected and accepts it as a test when the fault is excited (both
// transitions present, directions matching, aligned within the window) and
// its slowdown propagates to a primary output — i.e. some PO arrival shifts
// by at least the detection threshold.
func (g *generator) validate() *TwoPattern {
	v1 := make(logicsim.Vector, len(g.c.PIs))
	v2 := make(logicsim.Vector, len(g.c.PIs))
	for id, pi := range g.c.PIs {
		val := g.imp.Value(id)
		if val.V1 == nineval.FX || val.V2 == nineval.FX {
			return nil
		}
		v1[pi] = int(val.V1)
		v2[pi] = int(val.V2)
	}
	clean, faulty, excited, err := logicsim.SimulateFaulty(g.c, v1, v2, logicsim.FaultInjection{
		Aggressor:  g.f.Aggressor,
		Victim:     g.f.Victim,
		AggRising:  g.f.AggRising,
		VicRising:  g.f.VicRising,
		Window:     g.f.MaxSkew,
		ExtraDelay: faultDelay,
	}, logicsim.Options{
		Lib:       g.opts.Lib,
		Mode:      sta.ModeProposed,
		PIArrival: g.opts.PI.ArrivalEarly,
		PITrans:   g.opts.PI.TransShort,
	})
	g.leavesTried++
	if err != nil || !excited {
		return nil
	}
	g.leavesExcited++
	// Detection: the injected slowdown must reach a primary output.
	for _, po := range g.c.POs {
		fe, okF := faulty.Event(po)
		ce, okC := clean.Event(po)
		if !okF || !okC {
			continue
		}
		if fe.Arrival-ce.Arrival >= detectThreshold {
			return &TwoPattern{V1: v1, V2: v2}
		}
	}
	return nil
}

// fanoutCone marks, by net ID, the transitive fanout cone of a net
// (including itself).
func (g *generator) fanoutCone(id int) []bool {
	nPI := len(g.c.PIs)
	cone := make([]bool, g.c.NumNets())
	cone[id] = true
	stack := []int{id}
	for len(stack) > 0 {
		net := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, gi := range g.c.NetFanout(net) {
			if out := nPI + gi; !cone[out] {
				cone[out] = true
				stack = append(stack, out)
			}
		}
	}
	return cone
}

// RandomFaults samples a deterministic crosstalk fault list over internal
// nets of the circuit: coupled pairs at nearby logic levels (routing
// neighbours in spirit), with random transition directions. The alignment
// window of each fault is drawn log-uniformly from [0.2, 6] x maxSkew,
// giving the campaign a realistic mix of easy, hard and
// alignment-infeasible sites.
func RandomFaults(c *netlist.Circuit, n int, seed int64, maxSkew float64) []Fault {
	rng := rand.New(rand.NewSource(seed))
	// Candidate nets: gate outputs (internal lines carry the coupling).
	type levNet struct {
		net string
		lvl int
	}
	var nets []levNet
	for _, gi := range c.TopoOrder() {
		nets = append(nets, levNet{net: c.Gates[gi].Output, lvl: c.Level(gi)})
	}
	sort.Slice(nets, func(i, j int) bool { return nets[i].net < nets[j].net })
	if len(nets) < 2 {
		return nil
	}

	var out []Fault
	for len(out) < n {
		a := nets[rng.Intn(len(nets))]
		b := nets[rng.Intn(len(nets))]
		// Log-uniform over [0.2, 6] x maxSkew.
		skew := maxSkew * 0.2 * math.Pow(30, rng.Float64())
		if a.net == b.net {
			continue
		}
		if d := a.lvl - b.lvl; d > 3 || d < -3 {
			continue
		}
		out = append(out, Fault{
			Aggressor: a.net,
			Victim:    b.net,
			AggRising: rng.Intn(2) == 1,
			VicRising: rng.Intn(2) == 1,
			MaxSkew:   skew,
		})
	}
	return out
}

// CampaignStats aggregates a fault-list run.
type CampaignStats struct {
	Detected   int
	Untestable int
	Aborted    int
	// Efficiency is the paper's metric: the fraction of targeted faults
	// that are detected or identified undetectable.
	Efficiency float64
	// TotalBacktracks sums backtracks across faults.
	TotalBacktracks int
}

// RunCampaign generates tests for every fault and aggregates the outcome.
// Faults are targeted concurrently on Options.Jobs workers; each fault's
// search is independent, so per-fault results match a serial run. When
// Options.CampaignBudget is positive, the campaign stops once the total
// backtracks across faults exhaust it and the remaining faults count as
// Aborted.
func RunCampaign(c *netlist.Circuit, faults []Fault, opts Options) (CampaignStats, error) {
	if err := c.EnsureBuilt(); err != nil {
		return CampaignStats{}, fmt.Errorf("atpg: %w", err)
	}
	stop := opts.Metrics.StartTimer("atpg/campaign")
	defer stop()

	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	budget := int64(opts.CampaignBudget)
	var spent atomic.Int64

	results := make([]Result, len(faults))
	ran := make([]bool, len(faults))
	jobOpts := opts
	jobOpts.Ctx = ctx
	runErr := engine.Run(ctx, opts.Jobs, len(faults), func(_ context.Context, i int) error {
		r, err := GenerateTest(c, faults[i], jobOpts)
		if err != nil {
			return fmt.Errorf("atpg: fault %s: %w", faults[i], err)
		}
		results[i] = r
		ran[i] = true
		if budget > 0 && spent.Add(int64(r.Backtracks)) >= budget {
			cancel() // budget exhausted: abort the remaining faults
		}
		return nil
	})
	if runErr != nil {
		// A budget-triggered cancellation is the expected end of a
		// bounded campaign, not a failure.
		budgetHit := budget > 0 && spent.Load() >= budget
		if !(budgetHit && errors.Is(runErr, context.Canceled)) {
			return CampaignStats{}, runErr
		}
	}

	var s CampaignStats
	for i := range faults {
		if !ran[i] {
			// Never targeted (dropped after cancellation): the search
			// effort ran out before this fault, so it is aborted.
			s.Aborted++
			continue
		}
		switch results[i].Outcome {
		case Detected:
			s.Detected++
		case Untestable:
			s.Untestable++
		default:
			s.Aborted++
		}
		s.TotalBacktracks += results[i].Backtracks
	}
	total := len(faults)
	if total > 0 {
		s.Efficiency = float64(s.Detected+s.Untestable) / float64(total)
	}
	return s, nil
}
