// Package itr implements Incremental Timing Refinement (the paper's
// Section 5): recomputation of min-max timing windows under a partially
// specified two-frame vector.
//
// STA assumes every line may carry either transition; during test
// generation, logic implications progressively decide which transitions are
// definite (S = 1), potential (S = 0) or impossible (S = -1), and the timing
// windows shrink accordingly:
//
//   - a line with S = -1 for a direction has no window for it (its timing
//     fields are undefined, per Section 5.1);
//   - the earliest to-controlling arrival may only exploit simultaneous
//     switching between inputs that still *can* transition;
//   - the latest to-controlling arrival tightens to the earliest worst-case
//     corner among inputs that *must* transition (a definite faller bounds
//     how late a NAND output can rise);
//   - the earliest to-non-controlling arrival rises to the slowest
//     definite riser (they all must complete before the output can fall).
//
// STA is the special case of ITR in which every line has S = 0 (asserted by
// this package's tests).
//
// Since the incremental-timing refactor, Refine is "build a persistent
// timing graph under the cube" (internal/tgraph): one implication plus one
// full convergence. Callers that refine many related cubes — the ATPG
// search refines one cube per decision — keep a single graph alive and
// apply cube deltas to it instead, paying only for the changed cone; Refine
// remains the from-scratch reference those incremental results are
// cross-checked against. The per-gate window arithmetic is shared with sta
// and tgraph via internal/twindow, so all three produce byte-identical
// floats for the same line states.
package itr

import (
	"context"
	"errors"
	"fmt"

	"sstiming/internal/core"
	"sstiming/internal/engine"
	"sstiming/internal/netlist"
	"sstiming/internal/nineval"
	"sstiming/internal/spice"
	"sstiming/internal/sta"
	"sstiming/internal/tgraph"
	"sstiming/internal/twindow"
)

// Options configures a refinement.
type Options struct {
	// Lib is the characterised cell library (required).
	Lib *core.Library
	// Mode selects the delay model (ModeProposed exploits simultaneous
	// switching).
	Mode sta.Mode
	// PI is the stimulus assumed at primary inputs; zero value selects
	// sta.DefaultPITiming.
	PI sta.PITiming
	// PerPI overrides specific inputs.
	PerPI map[string]sta.PITiming
	// NCExtension enables the simultaneous to-non-controlling Λ-shape
	// model (Section 3.6 future work) in the latest corners, mirroring
	// sta.Options.NCExtension.
	NCExtension bool
	// Ctx, when non-nil, cancels the refinement between gates. A cancelled
	// refinement returns an error wrapping spice.ErrCancelled and the
	// context's own error — never a partial result.
	Ctx context.Context
	// Metrics, when non-nil, counts refinement passes and per-line
	// implications.
	Metrics *engine.Metrics
}

// LineInfo is the refined timing of one line: the implied nine-valued
// value, the transition states, and the directional windows (valid only
// when the corresponding state is not SNo — HasRise/HasFall).
type LineInfo = twindow.LineInfo

// Result is the outcome of a refinement.
type Result struct {
	Circuit *netlist.Circuit
	// Mode is the delay model the windows were refined under.
	Mode sta.Mode
	// Cube is the implied two-frame assignment.
	Cube nineval.Cube
	// Lines is a name-keyed view of the refined timing per net.
	Lines map[string]*LineInfo

	snap *twindow.Snapshot
}

// Window returns the directional window of a net and whether it is defined.
func (r *Result) Window(net string, rising bool) (sta.Window, bool) {
	li, ok := r.Lines[net]
	if !ok {
		return sta.Window{}, false
	}
	if rising {
		if !li.HasRise() {
			return sta.Window{}, false
		}
		return li.Rise, true
	}
	if !li.HasFall() {
		return sta.Window{}, false
	}
	return li.Fall, true
}

// Refine implies the cube over the circuit and recomputes every line's
// timing windows under the resulting transition states. It returns an error
// if the cube is logically inconsistent.
func Refine(c *netlist.Circuit, cube nineval.Cube, opts Options) (*Result, error) {
	if opts.Lib == nil {
		return nil, fmt.Errorf("itr: Options.Lib is required")
	}
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, err
	}
	opts.Metrics.Add(engine.ITRRefines, 1)
	g, err := tgraph.NewWithCube(c, cube, tgraph.Options{
		Lib:         opts.Lib,
		Mode:        opts.Mode,
		PI:          opts.PI,
		PerPI:       opts.PerPI,
		NCExtension: opts.NCExtension,
		Ctx:         opts.Ctx,
		Metrics:     opts.Metrics,
	})
	if err != nil {
		if errors.Is(err, tgraph.ErrInconsistent) {
			return nil, fmt.Errorf("itr: cube is logically inconsistent: %s", cube.String())
		}
		return nil, fmt.Errorf("itr: %w", err)
	}
	opts.Metrics.Add(engine.ITRImplications, int64(c.NumGates()))
	return FromGraph(g), nil
}

// FromGraph snapshots a persistent timing graph's current line states as a
// refinement Result. The snapshot is a copy: later graph edits do not
// disturb it.
func FromGraph(g *tgraph.Graph) *Result {
	snap := g.Snapshot()
	return &Result{Circuit: snap.Circuit, Mode: snap.Mode, Cube: g.ImpliedCube(), Lines: snap.LineMap(), snap: snap}
}

// RequiredTimes performs the state-aware backward traversal — the pass
// shared with sta (twindow.Snapshot), fed the refined transition states:
// required windows propagate only along arcs whose transitions are still
// possible, the minimum arc delay exploits simultaneous switching (under
// ModeProposed) only with partners that can still transition, and a line
// direction with state -1 receives no required window. lib must be the
// library the result was refined with: the traversal reads the cells the
// timing graph bound from it.
func (r *Result) RequiredTimes(cons sta.Constraint, lib *core.Library) map[string]*sta.LineRequired {
	return r.snap.RequiredTimes(cons)
}

// CheckViolations compares the refined arrival windows against the required
// windows under the PO constraint. Only defined (state != -1) directions
// are checked; the order is that of sta.Result.CheckViolations. lib must be
// the library the result was refined with, as for RequiredTimes.
func (r *Result) CheckViolations(cons sta.Constraint, lib *core.Library) []sta.Violation {
	return r.snap.CheckViolations(cons)
}

// ctxErr folds a fired context into the solver error taxonomy.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("itr: %w", spice.Cancelled(err))
	}
	return nil
}
