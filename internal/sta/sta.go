// Package sta implements static timing analysis with min-max timing windows
// (the paper's Section 4).
//
// For every line and both transition directions the analysis maintains the
// earliest/latest arrival times and shortest/longest transition times
// (Figure 7). Forward propagation uses the worst-case corner identification
// rules of Section 4.2:
//
//   - earliest rising arrival (for NAND-class gates) exploits simultaneous
//     to-controlling switching: the minimum over input pairs of the
//     V-shape delay evaluated at the earliest-arrival skew, minimised over
//     the four transition-time corners {S,L}×{S,L};
//   - latest arrivals use only single-input pin-to-pin delays (a lagging
//     simultaneous transition can only speed the output up), with the
//     maximal delay taken at a range endpoint or at the interior peak of
//     the bi-tonic delay-vs-transition-time curve (Figure 9);
//   - shortest output transition times evaluate the pair transition
//     surface at the achievable skew closest to SK_t,min, which may be
//     non-zero.
//
// Incremental Timing Refinement (Section 5) recomputes the windows under
// a partially specified two-frame vector. STA assumes every line may carry
// either transition; during test generation, logic implications
// progressively decide which transitions are definite (S = 1), potential
// (S = 0) or impossible (S = -1), and the windows shrink accordingly:
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
// STA is the special case of ITR in which every line has S = 0, and the
// code says so once: Analyze and Refine both build a persistent timing
// graph (internal/tgraph) — Analyze under the empty cube, Refine under the
// implied cube — and return the same Result, whose Cube is empty for
// Analyze. Callers that refine many related cubes (the ATPG search refines
// one per decision) keep a single graph alive and apply cube deltas to it
// instead; Refine remains the from-scratch reference those incremental
// results are cross-checked against.
//
// A Result holds a twindow.Snapshot — the settled lines by net ID and the
// graph's gate bindings. Backward propagation over it computes
// required-time windows and reports min (hold-style) and max (setup-style)
// violations; required windows and critical paths follow only directions
// that can still transition. The result keeps the required windows of the
// last constraint, so RequiredTimes followed by CheckViolations runs the
// backward pass once.
//
// The same engine runs under the conventional pin-to-pin (SDF-style) model
// for the paper's Table 2 comparison. The window/corner arithmetic lives in
// internal/twindow, so a full analysis, a from-scratch refinement and an
// incremental re-convergence evaluate byte-identical floats per gate.
package sta

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"sstiming/internal/engine"
	"sstiming/internal/netlist"
	"sstiming/internal/nineval"
	"sstiming/internal/tgraph"
	"sstiming/internal/twindow"
)

// Mode selects the delay model used by the analysis.
type Mode = twindow.Mode

const (
	// ModeProposed uses the paper's simultaneous-switching model.
	ModeProposed = twindow.ModeProposed
	// ModePinToPin uses the conventional pin-to-pin model.
	ModePinToPin = twindow.ModePinToPin
)

// Window is the per-direction timing window of one line: earliest/latest
// arrival and shortest/longest transition time, in seconds (Figure 7).
type Window = twindow.Window

// LineTiming is the timing of one line: the implied nine-valued value, the
// transition states (all SMaybe for STA) and the directional windows,
// valid only when the corresponding state is not SNo (HasRise/HasFall).
type LineTiming = twindow.LineInfo

// PITiming describes the assumed stimulus at primary inputs.
type PITiming = twindow.PITiming

// DefaultPITiming is the default stimulus: transitions released at t = 0
// with a 0.2 ns input ramp.
func DefaultPITiming() PITiming { return twindow.DefaultPITiming() }

// Required is the per-direction required-time window of a line: the output
// must not be reached before QS (hold-style lower bound) and must be reached
// by QL (setup-style upper bound).
type Required = twindow.Required

// LineRequired pairs the directional required windows of one line.
type LineRequired = twindow.LineRequired

// Constraint is the timing requirement applied at every primary output.
type Constraint = twindow.Constraint

// Violation reports one timing check failure.
type Violation = twindow.Violation

// Options configures an analysis or a refinement. It is the timing graph's
// own options struct: Analyze and Refine pass it straight to tgraph.
type Options = tgraph.Options

// Result holds the computed windows for every line.
type Result struct {
	Circuit *netlist.Circuit
	Mode    Mode
	// Cube is the implied two-frame assignment; empty for Analyze.
	Cube nineval.Cube
	// Lines is a name-keyed view of the snapshot's lines.
	Lines map[string]*LineTiming

	snap *twindow.Snapshot
	// memo holds the required windows of the last constraint asked for,
	// so RequiredTimes followed by CheckViolations walks the graph once.
	// A memo is never written after it is published.
	memo atomic.Pointer[requiredMemo]
}

type requiredMemo struct {
	cons Constraint
	req  []LineRequired
}

// Analyze runs forward window propagation over the circuit: it builds a
// persistent timing graph and fully converges it (see package tgraph; the
// graph is discarded afterwards — callers wanting to keep it for
// incremental edits build one directly and convert with FromGraph).
func Analyze(c *netlist.Circuit, opts Options) (*Result, error) {
	if opts.Lib == nil {
		return nil, fmt.Errorf("sta: Options.Lib is required")
	}
	stop := opts.Metrics.StartTimer("sta/analyze")
	defer stop()

	g, err := tgraph.New(c, opts)
	if err != nil {
		return nil, fmt.Errorf("sta: %w", err)
	}
	return FromGraph(g), nil
}

// Refine implies the cube over the circuit and recomputes every line's
// timing windows under the resulting transition states (the paper's
// Section 5). It returns an error if the cube is logically inconsistent.
// Its errors keep the "itr:" prefix the refinement has always reported.
func Refine(c *netlist.Circuit, cube nineval.Cube, opts Options) (*Result, error) {
	if opts.Lib == nil {
		return nil, fmt.Errorf("itr: Options.Lib is required")
	}
	if opts.Ctx != nil && opts.Ctx.Err() != nil {
		return nil, fmt.Errorf("itr: %w", engine.Cancelled(opts.Ctx.Err()))
	}
	opts.Metrics.Add(engine.ITRRefines, 1)
	g, err := tgraph.NewWithCube(c, cube, opts)
	if err != nil {
		if errors.Is(err, tgraph.ErrInconsistent) {
			return nil, fmt.Errorf("itr: cube is logically inconsistent: %s", cube.String())
		}
		return nil, fmt.Errorf("itr: %w", err)
	}
	opts.Metrics.Add(engine.ITRImplications, int64(c.NumGates()))
	return FromGraph(g), nil
}

// FromGraph snapshots a persistent timing graph's current windows, implied
// values and transition states as a Result, so graph holders get path
// extraction, required times and violation checks without a fresh
// analysis. The snapshot is a copy: later graph edits do not disturb it.
func FromGraph(g *tgraph.Graph) *Result {
	snap := g.Snapshot()
	return &Result{Circuit: snap.Circuit, Mode: snap.Mode, Cube: g.ImpliedCube(), Lines: snap.LineMap(), snap: snap}
}

// Window returns the directional window of a net and whether it is
// defined: a direction whose transition state is SNo has no window.
func (r *Result) Window(net string, rising bool) (Window, bool) {
	lt, ok := r.Lines[net]
	switch {
	case ok && rising && lt.HasRise():
		return lt.Rise, true
	case ok && !rising && lt.HasFall():
		return lt.Fall, true
	}
	return Window{}, false
}

// eachPOWindow calls f with every defined window of every primary output,
// in declaration order, rising before falling.
func (r *Result) eachPOWindow(f func(po string, rising bool, w Window)) {
	for _, po := range r.Circuit.POs {
		for _, rising := range [2]bool{true, false} {
			if w, ok := r.Window(po, rising); ok {
				f(po, rising, w)
			}
		}
	}
}

// MinPOArrival returns the earliest arrival over all defined primary
// output directions — the paper's Table 2 "min-delay at outputs" metric
// (the lower edge of the union of the PO timing ranges).
func (r *Result) MinPOArrival() float64 {
	min := math.Inf(1)
	r.eachPOWindow(func(_ string, _ bool, w Window) {
		if w.AS < min {
			min = w.AS
		}
	})
	return min
}

// MaxPOArrival returns the latest arrival over all defined primary output
// directions (the classical critical-path delay).
func (r *Result) MaxPOArrival() float64 {
	max := math.Inf(-1)
	r.eachPOWindow(func(_ string, _ bool, w Window) {
		if w.AL > max {
			max = w.AL
		}
	})
	return max
}

// required returns the required windows per net ID under cons, running
// the backward pass only when the memo holds another constraint. Callers
// must not modify the slice.
func (r *Result) required(cons Constraint) []LineRequired {
	if m := r.memo.Load(); m != nil && m.cons == cons {
		return m.req
	}
	req := r.snap.Required(cons)
	r.memo.Store(&requiredMemo{cons: cons, req: req})
	return req
}

// RequiredTimes performs the backward traversal of Section 4 and returns
// the required-time windows of every gate output and of every primary
// input that feeds a gate or is a primary output. Required windows
// propagate only along arcs whose transitions are still possible, so a
// direction with state SNo keeps the unconstrained window. The windows
// are the caller's own copy.
func (r *Result) RequiredTimes(cons Constraint) map[string]*LineRequired {
	return r.snap.RequiredMap(slices.Clone(r.required(cons)))
}

// CheckViolations compares the arrival windows against the required windows
// derived from the PO constraint and returns every failing defined line
// direction, ordered by slack (most negative first), then net, rising
// before falling, setup before hold.
func (r *Result) CheckViolations(cons Constraint) []Violation {
	return r.snap.Violations(r.required(cons))
}
