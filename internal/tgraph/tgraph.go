// Package tgraph is the persistent timing graph behind the incremental
// delta-STA engine: a levelized circuit with per-line timing windows that
// stay alive across calls, plus an edit API whose cost is proportional to
// the edited cone instead of the whole circuit.
//
// A Graph is built once (one serial full window convergence) and then
// mutated through small edits:
//
//   - SetCube assigns or relaxes the nine-valued state of lines; a graph
//     built by NewOnImplication instead follows its caller's
//     nineval.Implication through SyncImplication (the ITR workload: one
//     implication step per ATPG decision);
//   - SetPI changes the stimulus of one primary input;
//   - SwapGate exchanges a gate's cell for its same-arity dual
//     (NAND↔NOR, INV↔BUF — the ECO workload).
//
// The graph keeps its implied values in a nineval.Implication over net IDs.
// An edit drains the nets whose value changed and compares each against
// its line: a primary input's line is refreshed in place, a gate output's
// driving gate is marked dirty. Every edit marks only the affected lines'
// output cones dirty and re-converges windows level by level from the
// dirty frontier, stopping as soon as no dirty gate remains — a gate is
// re-queued only when one of its inputs (or its own implied output value)
// actually changed, so convergence naturally stops at the level where
// windows stop moving.
//
// The load-bearing invariant (asserted by conformance check "incremental")
// is byte-identical equivalence: after any edit sequence, every line's
// LineInfo equals — bit for bit — what a from-scratch sta.Analyze/sta.Refine
// of the current state computes. It holds because per-gate windows are a
// pure function of the gate's inputs and implied output value
// (twindow.PropagateGate), evaluated by exactly the same code on both paths,
// and dirty propagation re-evaluates a gate whenever any of those arguments
// changed (induction over logic levels).
//
// Failure atomicity: an edit that fails (inconsistent cube, cancelled
// context, injected fault mid-convergence) rolls its state edits back
// (the implication's Undo to the mark taken when the edit began) and
// poisons the graph; the next operation — queries included, via Heal —
// re-converges everything from the retained pre-edit state, so a crashed
// delta can never leave partially-propagated windows observable.
package tgraph

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"

	"sstiming/internal/core"
	"sstiming/internal/engine"
	"sstiming/internal/netlist"
	"sstiming/internal/nineval"
	"sstiming/internal/twindow"
)

// ErrInconsistent reports a cube edit that is logically inconsistent with
// the circuit; the graph is left unchanged.
var ErrInconsistent = errors.New("tgraph: cube is logically inconsistent")

// ErrUnknownNet reports a cube that assigns a net the circuit does not
// have; the graph is left unchanged.
var ErrUnknownNet = errors.New("tgraph: cube names a net outside the circuit")

// Options configures a Graph.
type Options struct {
	// Lib is the characterised cell library (required).
	Lib *core.Library
	// Mode selects the delay model.
	Mode twindow.Mode
	// PI is the stimulus applied to every primary input; the zero value
	// selects twindow.DefaultPITiming. SetPI overrides per input later.
	PI twindow.PITiming
	// PerPI optionally overrides the stimulus for specific inputs; names
	// that are not primary inputs are ignored.
	PerPI map[string]twindow.PITiming
	// NCExtension enables the simultaneous to-non-controlling Λ-shape
	// model (the paper's Section 3.6 future work) in the latest-arrival
	// and longest-transition corners of to-non-controlling responses.
	// Requires a library characterised with charlib.Options.NCPairs. Off
	// by default: the paper's published scope keeps pin-to-pin timing for
	// these responses (and Table 2's max-delays identical across models).
	NCExtension bool
	// Ctx, when non-nil, cancels the initial full convergence between
	// logic levels; a cancelled build returns an error wrapping
	// engine.ErrCancelled and the context's own error, and no graph.
	Ctx context.Context
	// Jobs once bounded a level-parallel initial convergence.
	//
	// Deprecated: ignored; convergence is serial.
	Jobs int
	// Metrics, when non-nil, counts propagated gates, arcs and edits.
	Metrics *engine.Metrics
	// LevelHook, when non-nil, runs before each level of every
	// convergence pass; a non-nil error aborts the pass (fault injection
	// for chaos tests — see internal/faultinject).
	LevelHook func(level int) error
}

// Graph is a persistent timing graph. It is not safe for concurrent use;
// callers serialize access (the service layer holds a per-session lock, and
// each ATPG fault worker owns a private Graph).
//
// Per-line state lives in arrays indexed by the circuit's dense net IDs
// (netlist.Circuit.NetID: primary inputs first, then gate outputs), so the
// convergence loop reads inputs and writes outputs without hashing a name;
// names appear only at the API edges — cubes, queries and snapshots.
type Graph struct {
	c    *netlist.Circuit
	opts Options

	cells     []*core.CellModel // per gate
	extraLoad []float64         // per gate
	levels    [][]int           // gate indices per logic level
	gateLevel []int

	raw      nineval.Cube         // caller-supplied assignments
	spare    nineval.Cube         // SetCube's next raw, swapped with raw
	imp      *nineval.Implication // per net ID: implied values of raw
	follows  bool                 // imp is the caller's (NewOnImplication)
	piTiming []twindow.PITiming   // per primary input: effective stimulus
	perPI    []bool               // per primary input: stimulus overrides opts.PI

	lines []twindow.LineInfo // per net ID

	dirty      []bool  // per gate
	dirtyAt    [][]int // per level; capacity fixed to the level's width
	dirtyCount int

	// poisoned marks a graph whose last edit failed mid-convergence:
	// window state may be partially propagated. Heal (run automatically
	// by the next edit) re-converges everything from the retained cube.
	poisoned bool

	// changed and changedIDs record the lines whose LineInfo changed
	// during the last successful edit: a per-net-ID flag plus the list of
	// set flags, so resetting costs the size of the last cone.
	changed    []bool
	changedIDs []int32
}

// New builds a Graph over the circuit and fully converges its windows under
// the empty cube (every line unspecified — pure STA).
func New(c *netlist.Circuit, opts Options) (*Graph, error) {
	return NewWithCube(c, nineval.Cube{}, opts)
}

// newSkeleton builds the structural half of a Graph — levelization, cell
// binding, fan-out loads, per-line storage — with no cube and no timing
// state. NewWithCube seeds and converges it; RestoreSnapshot installs
// checkpointed lines verbatim instead.
func newSkeleton(c *netlist.Circuit, opts Options) (*Graph, error) {
	if opts.Lib == nil {
		return nil, fmt.Errorf("tgraph: Options.Lib is required")
	}
	if err := c.EnsureBuilt(); err != nil {
		return nil, fmt.Errorf("tgraph: %w", err)
	}
	if opts.PI == (twindow.PITiming{}) {
		opts.PI = twindow.DefaultPITiming()
	}
	nG, nPI, nNets := len(c.Gates), len(c.PIs), c.NumNets()
	g := &Graph{
		c:         c,
		opts:      opts,
		cells:     make([]*core.CellModel, nG),
		extraLoad: make([]float64, nG),
		gateLevel: make([]int, nG),
		spare:     nineval.Cube{},
		piTiming:  make([]twindow.PITiming, nPI),
		perPI:     make([]bool, nPI),
		lines:     make([]twindow.LineInfo, nNets),
		dirty:     make([]bool, nG),
		changed:   make([]bool, nNets),
	}
	for i := range g.piTiming {
		g.piTiming[i] = opts.PI
	}
	for name, p := range opts.PerPI {
		if id, ok := c.NetID(name); ok && id < nPI {
			g.piTiming[id], g.perPI[id] = p, true
		}
	}

	// Levels and their dirty lists are windows of two gate-sized arrays:
	// a level's dirty list can never outgrow the level.
	nLevels := 0
	for gi := range c.Gates {
		g.gateLevel[gi] = c.Level(gi)
		nLevels = max(nLevels, g.gateLevel[gi]+1)
	}
	width := make([]int, nLevels)
	for _, lvl := range g.gateLevel {
		width[lvl]++
	}
	levelBuf, dirtyBuf := make([]int, nG), make([]int, nG)
	g.levels, g.dirtyAt = make([][]int, nLevels), make([][]int, nLevels)
	off := 0
	for lvl, w := range width {
		g.levels[lvl] = levelBuf[off : off : off+w]
		g.dirtyAt[lvl] = dirtyBuf[off : off : off+w]
		off += w
	}
	for _, gi := range c.TopoOrder() {
		lvl := g.gateLevel[gi]
		g.levels[lvl] = append(g.levels[lvl], gi)
	}

	for i := range c.Gates {
		gate := &c.Gates[i]
		cell, ok := opts.Lib.Cell(gate.CellName())
		if !ok {
			return nil, fmt.Errorf("tgraph: no library cell %q for gate %q", gate.CellName(), gate.Output)
		}
		g.cells[i] = cell
		g.extraLoad[i] = float64(max(len(c.NetFanout(nPI+i)), 1)-1) * cell.RefLoad
	}
	return g, nil
}

// NewWithCube builds a Graph and fully converges its windows under the
// given cube (one implication + one full window pass — the cost of a single
// from-scratch sta.Refine). A cube naming a net outside the circuit returns
// ErrUnknownNet.
func NewWithCube(c *netlist.Circuit, cube nineval.Cube, opts Options) (*Graph, error) {
	g, err := newSkeleton(c, opts)
	if err != nil {
		return nil, err
	}
	if err := g.checkNets(cube); err != nil {
		return nil, err
	}
	g.imp = nineval.NewImplication(c)
	if !g.assignRaw(cube, nil) {
		return nil, fmt.Errorf("%w: %s", ErrInconsistent, cube.String())
	}
	g.raw = cube.Clone()
	if err := g.build(); err != nil {
		return nil, err
	}
	return g, nil
}

// NewOnImplication builds a Graph whose implied values are imp's, which
// the caller keeps driving (Assign, Imply, Undo) and then hands on with
// SyncImplication. imp must be over the same circuit and at a fixpoint.
// The graph has no raw cube of its own: SetCube and SwapGate refuse it.
func NewOnImplication(c *netlist.Circuit, imp *nineval.Implication, opts Options) (*Graph, error) {
	g, err := newSkeleton(c, opts)
	if err != nil {
		return nil, err
	}
	g.imp, g.follows = imp, true
	if err := g.build(); err != nil {
		return nil, err
	}
	return g, nil
}

// build seeds the PI lines and converges every gate. The initial pass
// records no changed lines: every line is new.
func (g *Graph) build() error {
	g.imp.DrainTouched()
	g.seedPIs()
	g.markAll()
	return g.converge(g.opts.Ctx, false)
}

// Circuit returns the underlying circuit. SwapGate mutates it; callers
// sharing one circuit across graphs must not use SwapGate.
func (g *Graph) Circuit() *netlist.Circuit { return g.c }

// Mode returns the delay model of the graph.
func (g *Graph) Mode() twindow.Mode { return g.opts.Mode }

// checkNets rejects a cube that assigns a net the circuit does not have
// (naming the alphabetically first such net, so the error is stable).
func (g *Graph) checkNets(cube nineval.Cube) error {
	bad := ""
	for net := range cube {
		if _, ok := g.c.NetID(net); !ok && (bad == "" || net < bad) {
			bad = net
		}
	}
	if bad != "" {
		return fmt.Errorf("%w: %q", ErrUnknownNet, bad)
	}
	return nil
}

// assignRaw assigns the literals of raw that prev does not hold verbatim
// (nets the caller has checked) and implies them. It returns false on
// conflict, leaving the implication for the caller to Undo.
func (g *Graph) assignRaw(raw, prev nineval.Cube) bool {
	for net, v := range raw {
		if old, ok := prev[net]; ok && old == v {
			continue
		}
		id, _ := g.c.NetID(net)
		if !g.imp.Assign(id, v) {
			return false
		}
	}
	return g.imp.Imply()
}

// tightens reports whether raw keeps or tightens every literal of prev,
// so that implying raw's new literals on top of prev's fixpoint reaches
// raw's own fixpoint (implication is monotone).
func tightens(prev, raw nineval.Cube) bool {
	for net, old := range prev {
		v := raw.Get(net)
		if m, ok := old.Meet(v); !ok || m != v {
			return false
		}
	}
	return true
}

// seedPIs sets every primary input's line from its value and stimulus.
func (g *Graph) seedPIs() {
	for id := range g.piTiming {
		g.lines[id] = twindow.PILine(g.imp.Value(id), g.piTiming[id])
	}
}

// markAll queues every gate for a full convergence pass.
func (g *Graph) markAll() {
	for lvl, gates := range g.levels {
		g.dirtyAt[lvl] = append(g.dirtyAt[lvl][:0], gates...)
	}
	for gi := range g.dirty {
		g.dirty[gi] = true
	}
	g.dirtyCount = len(g.dirty)
}

// markDirty queues a gate for re-convergence.
func (g *Graph) markDirty(gi int) {
	if g.dirty[gi] {
		return
	}
	g.dirty[gi] = true
	lvl := g.gateLevel[gi]
	g.dirtyAt[lvl] = append(g.dirtyAt[lvl], gi)
	g.dirtyCount++
}

// touch propagates a changed line: its consumers must re-evaluate.
func (g *Graph) touch(id int) {
	for _, gi := range g.c.NetFanout(id) {
		g.markDirty(gi)
	}
}

// markChanged records that a line's LineInfo changed during this edit.
func (g *Graph) markChanged(id int) {
	if !g.changed[id] {
		g.changed[id] = true
		g.changedIDs = append(g.changedIDs, int32(id))
	}
}

// setLine installs a line's new LineInfo; when it differs from the old one
// the change is recorded (if track) and the line's consumers are queued.
func (g *Graph) setLine(id int, li twindow.LineInfo, track bool) {
	if g.lines[id] == li {
		return // converged: the cone stops here
	}
	g.lines[id] = li
	if track {
		g.markChanged(id)
	}
	g.touch(id)
}

// recomputeGate evaluates one gate's output LineInfo from current state.
// The input pointers live in a stack array for the library's cell widths.
func (g *Graph) recomputeGate(gi int) (twindow.LineInfo, error) {
	gate := &g.c.Gates[gi]
	var buf [4]*twindow.LineInfo
	ins := buf[:0]
	for _, id := range g.c.GateInputIDs(gi) {
		ins = append(ins, &g.lines[id])
	}
	out, err := twindow.PropagateGate(g.cells[gi], gate.Kind, ins, g.imp.Value(len(g.c.PIs)+gi),
		g.extraLoad[gi], g.opts.Mode, g.opts.NCExtension)
	if err != nil {
		return twindow.LineInfo{}, fmt.Errorf("tgraph: gate %q: %w", gate.Output, err)
	}
	return out, nil
}

// converge drains the dirty frontier level by level in one serial loop.
// Gates within one level read only earlier levels, so each output is
// installed as soon as it is evaluated. Convergence stops as soon as the
// frontier is empty: a gate is re-queued only when one of its inputs or its
// implied output value changed, so an edit whose effect dies out after k
// levels costs exactly those k frontier levels. track records changed lines (edits and heals; not the initial
// build, where every line is new).
func (g *Graph) converge(ctx context.Context, track bool) error {
	nPI := len(g.c.PIs)
	for lvl := 0; lvl < len(g.dirtyAt) && g.dirtyCount > 0; lvl++ {
		work := g.dirtyAt[lvl]
		if len(work) == 0 {
			continue
		}
		// Consumers sit on later levels, so nothing is queued on this
		// level while its list is being drained.
		g.dirtyAt[lvl] = work[:0]
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("tgraph: %w", engine.Cancelled(err))
			}
		}
		if g.opts.LevelHook != nil {
			if err := g.opts.LevelHook(lvl); err != nil {
				return fmt.Errorf("tgraph: level %d: %w", lvl, err)
			}
		}
		arcs := 0
		for _, gi := range work {
			out, err := g.recomputeGate(gi)
			if err != nil {
				return err
			}
			g.dirty[gi] = false
			g.dirtyCount--
			arcs += len(g.c.Gates[gi].Inputs)
			g.setLine(nPI+gi, out, track)
		}
		g.opts.Metrics.Add(engine.STAGates, int64(len(work)))
		g.opts.Metrics.Add(engine.STAArcs, 2*int64(arcs))
	}
	// A deadline that fired after the last level still voids the pass:
	// callers must never observe windows computed past their cancellation.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("tgraph: %w", engine.Cancelled(err))
		}
	}
	return nil
}

// poison marks every window suspect after a failed pass and empties the
// dirty frontier; the next operation re-converges from scratch. Callers
// roll their state edits back first.
func (g *Graph) poison() {
	g.poisoned = true
	clear(g.dirty)
	for lvl := range g.dirtyAt {
		g.dirtyAt[lvl] = g.dirtyAt[lvl][:0]
	}
	g.dirtyCount = 0
}

// Poisoned reports whether the last edit failed mid-convergence and the
// graph is pending a Heal.
func (g *Graph) Poisoned() bool { return g.poisoned }

// Heal re-converges a poisoned graph from its retained state so that every
// line again equals a from-scratch recomputation. It is a no-op on a
// healthy graph. Edits call it implicitly; queries on a poisoned graph
// return ErrPoisoned-free data only after a successful Heal.
func (g *Graph) Heal(ctx context.Context) error {
	if !g.poisoned {
		return nil
	}
	g.seedPIs()
	g.markAll()
	if err := g.converge(ctx, true); err != nil {
		g.poison()
		return err
	}
	g.poisoned = false
	return nil
}

// beginEdit heals a poisoned graph and resets the changed-line record.
func (g *Graph) beginEdit(ctx context.Context) error {
	if err := g.Heal(ctx); err != nil {
		return err
	}
	for _, id := range g.changedIDs {
		g.changed[id] = false
	}
	g.changedIDs = g.changedIDs[:0]
	g.opts.Metrics.Add(engine.TGraphEdits, 1)
	return nil
}

// applyTouched brings the lines in step with the implication: each net
// whose value changed since the last drain is refreshed in place (primary
// inputs) or has its driving gate marked dirty, which re-derives the
// line's full LineInfo (value, states and windows) during re-convergence.
func (g *Graph) applyTouched() {
	nPI := len(g.c.PIs)
	for _, id32 := range g.imp.DrainTouched() {
		id := int(id32)
		v := g.imp.Value(id)
		if g.lines[id].Value == v {
			continue
		}
		if id >= nPI {
			g.markDirty(id - nPI)
			continue
		}
		g.setLine(id, twindow.PILine(v, g.piTiming[id]), true)
	}
}

// reconverge applies the implication's changes and re-converges the dirty
// frontier. On failure it rewinds the implication to mark and poisons the
// graph.
func (g *Graph) reconverge(ctx context.Context, mark int) error {
	g.applyTouched()
	if err := g.converge(ctx, true); err != nil {
		g.imp.Undo(mark)
		g.poison()
		return err
	}
	g.imp.Commit()
	return nil
}

// errFollows refuses an edit on a graph that follows its caller's
// implication.
var errFollows = errors.New("tgraph: graph follows its caller's implication; edit that and call SyncImplication")

// SetCube replaces the graph's assignment cube and re-converges the
// difference incrementally. When raw keeps or tightens every current
// literal, only its new literals are implied, on top of the current
// fixpoint; a retract or relaxation re-implies raw from scratch, since
// implication does not commute with removal. Relaxing a line is expressed
// by omitting it from the new cube (or mapping it to xx). A logically
// inconsistent cube returns ErrInconsistent, and a cube naming a net
// outside the circuit ErrUnknownNet; either leaves the graph untouched.
func (g *Graph) SetCube(ctx context.Context, raw nineval.Cube) error {
	if g.follows {
		return errFollows
	}
	if err := g.beginEdit(ctx); err != nil {
		return err
	}
	if err := g.checkNets(raw); err != nil {
		return err
	}
	mark := g.imp.Mark()
	prev := g.raw
	if !tightens(prev, raw) {
		g.imp.Reset()
		prev = nil
	}
	if !g.assignRaw(raw, prev) {
		g.imp.Undo(mark)
		return fmt.Errorf("%w: %s", ErrInconsistent, raw.String())
	}
	// The new raw cube is copied into the spare map, whose buckets
	// survive from earlier edits, so a warm edit allocates nothing.
	clear(g.spare)
	maps.Copy(g.spare, raw)
	g.raw, g.spare = g.spare, g.raw
	if err := g.reconverge(ctx, mark); err != nil {
		g.raw, g.spare = g.spare, g.raw
		return err
	}
	return nil
}

// SyncImplication re-converges a graph built by NewOnImplication after its
// caller changed the implication (assignments, Imply, Undo): the nets
// whose value changed since the last sync are the edit. A failed pass
// poisons the graph; the next sync heals it from the implication's values.
func (g *Graph) SyncImplication(ctx context.Context) error {
	if err := g.beginEdit(ctx); err != nil {
		return err
	}
	g.applyTouched()
	if err := g.converge(ctx, true); err != nil {
		g.poison()
		return err
	}
	return nil
}

// SetPI changes the stimulus of one primary input and re-converges its
// fan-out cone.
func (g *Graph) SetPI(ctx context.Context, name string, p twindow.PITiming) error {
	id, ok := g.c.NetID(name)
	if !ok || id >= len(g.c.PIs) {
		return fmt.Errorf("tgraph: %q is not a primary input", name)
	}
	if err := g.beginEdit(ctx); err != nil {
		return err
	}
	prev, hadPrev := g.piTiming[id], g.perPI[id]
	g.piTiming[id], g.perPI[id] = p, true
	g.setLine(id, twindow.PILine(g.imp.Value(id), p), true)
	if err := g.converge(ctx, true); err != nil {
		g.piTiming[id], g.perPI[id] = prev, hadPrev
		g.poison()
		return err
	}
	return nil
}

// SwapGate exchanges the gate driving net for its same-arity dual
// (NAND↔NOR, INV↔BUF), re-implies the raw cube under the new logic and
// re-converges the gate's cone. The underlying circuit is mutated in place
// (topology, fan-out and levels are unchanged by construction). An
// inconsistency under the new logic reverts the swap.
func (g *Graph) SwapGate(ctx context.Context, net string, kind netlist.GateKind) error {
	gi, ok := g.c.Driver(net)
	if !ok {
		return fmt.Errorf("tgraph: net %q has no driving gate", net)
	}
	gate := &g.c.Gates[gi]
	if gate.Kind == kind {
		return nil
	}
	if g.follows {
		return errFollows
	}
	if err := g.beginEdit(ctx); err != nil {
		return err
	}
	prevKind, err := g.c.SwapGateKind(net, kind)
	if err != nil {
		return fmt.Errorf("tgraph: %w", err)
	}
	cell, ok := g.opts.Lib.Cell(gate.CellName())
	if !ok {
		gate.Kind = prevKind
		return fmt.Errorf("tgraph: no library cell %q for swapped gate %q", gate.CellName(), net)
	}
	mark := g.imp.Mark()
	g.imp.Reset()
	if !g.assignRaw(g.raw, nil) {
		g.imp.Undo(mark)
		gate.Kind = prevKind
		return fmt.Errorf("%w under swapped gate %q: %s", ErrInconsistent, net, g.raw.String())
	}
	prevCell, prevLoad := g.cells[gi], g.extraLoad[gi]
	g.cells[gi] = cell
	g.extraLoad[gi] = float64(g.c.FanoutCount(net)-1) * cell.RefLoad
	g.markDirty(gi)
	if err := g.reconverge(ctx, mark); err != nil {
		gate.Kind = prevKind
		g.cells[gi], g.extraLoad[gi] = prevCell, prevLoad
		return err
	}
	return nil
}

// NumChanged returns the number of lines whose LineInfo changed during the
// last successful edit (the re-converged cone size), without allocating.
func (g *Graph) NumChanged() int { return len(g.changedIDs) }

// ChangedIDs returns the net IDs whose LineInfo changed during the last
// successful edit, unsorted (shared; valid until the next edit).
func (g *Graph) ChangedIDs() []int32 { return g.changedIDs }

// Changed returns the nets whose LineInfo changed during the last
// successful edit, sorted.
func (g *Graph) Changed() []string {
	out := make([]string, len(g.changedIDs))
	for i, id := range g.changedIDs {
		out[i] = g.c.NetName(int(id))
	}
	slices.Sort(out)
	return out
}

// Line returns a copy of the net's timing state.
func (g *Graph) Line(net string) (twindow.LineInfo, bool) {
	id, ok := g.c.NetID(net)
	if !ok {
		return twindow.LineInfo{}, false
	}
	return g.lines[id], true
}

// Window returns the directional window of a net and whether it is defined
// (the state is not SNo).
func (g *Graph) Window(net string, rising bool) (twindow.Window, bool) {
	li, ok := g.Line(net)
	if !ok {
		return twindow.Window{}, false
	}
	if rising {
		if !li.HasRise() {
			return twindow.Window{}, false
		}
		return li.Rise, true
	}
	if !li.HasFall() {
		return twindow.Window{}, false
	}
	return li.Fall, true
}

// Lines visits every line's timing state, in net-ID order (primary inputs
// in declaration order, then gate outputs in gate order).
func (g *Graph) Lines(visit func(net string, li twindow.LineInfo)) {
	for id := range g.lines {
		visit(g.c.NetName(id), g.lines[id])
	}
}

// Snapshot copies the graph's current lines and gate bindings (kind, bound
// cell and fan-out load) into a twindow.Snapshot, which later edits do not
// disturb.
func (g *Graph) Snapshot() *twindow.Snapshot {
	gates := make([]twindow.Gate, len(g.cells))
	for gi := range gates {
		gates[gi] = twindow.Gate{Kind: g.c.Gates[gi].Kind, Cell: g.cells[gi], ExtraLoad: g.extraLoad[gi]}
	}
	return &twindow.Snapshot{Circuit: g.c, Mode: g.opts.Mode, Lines: slices.Clone(g.lines), Gates: gates}
}

// NumLines returns the number of lines carrying timing state.
func (g *Graph) NumLines() int { return len(g.lines) }

// ImpliedCube returns the current implication fixpoint as a new cube: the
// raw cube's entries plus every net whose value is not xx.
func (g *Graph) ImpliedCube() nineval.Cube { return g.imp.Cube(g.raw) }

// RawCube returns the caller-supplied assignments (shared; valid until the
// next edit, do not mutate).
func (g *Graph) RawCube() nineval.Cube { return g.raw }
