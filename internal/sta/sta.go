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
// Backward propagation computes required-time windows and reports min
// (hold-style) and max (setup-style) violations.
//
// The same engine runs under the conventional pin-to-pin (SDF-style) model
// for the paper's Table 2 comparison.
//
// Since the incremental-timing refactor, Analyze is a thin shell: it builds
// a persistent timing graph (internal/tgraph) and fully converges it once —
// "full analysis" is literally the everything-dirty special case of
// incremental re-convergence, so full and incremental results are
// byte-identical by construction. The window/corner arithmetic itself lives
// in internal/twindow, shared with itr and tgraph. A Result holds a
// twindow.Snapshot — the settled lines by net ID and the graph's gate
// bindings — and LineTiming is twindow's LineInfo, so required times,
// violations and critical paths read the same arrays as ITR's.
package sta

import (
	"context"
	"fmt"
	"math"

	"sstiming/internal/core"
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

// LineTiming is the timing of one line: its directional windows, plus the
// transition states the backward pass reads, all SMaybe for STA.
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

// Options configures an analysis.
type Options struct {
	// Lib is the characterised cell library (required).
	Lib *core.Library
	// Mode selects the delay model.
	Mode Mode
	// PI is the stimulus applied to every primary input; the zero value
	// selects DefaultPITiming.
	PI PITiming
	// PerPI optionally overrides the stimulus for specific inputs.
	PerPI map[string]PITiming
	// NCExtension enables the simultaneous to-non-controlling Λ-shape
	// model (the paper's Section 3.6 future work) in the latest-arrival
	// and longest-transition corners of to-non-controlling responses.
	// Requires a library characterised with charlib.Options.NCPairs.
	// Off by default: the paper's published scope keeps pin-to-pin
	// timing for these responses (and Table 2's max-delays identical
	// across models).
	NCExtension bool
	// Ctx, when non-nil, cancels the analysis between logic levels (and
	// inside the level-parallel fan-out). A cancelled analysis returns an
	// error wrapping spice.ErrCancelled and the context's own error —
	// never a partial result.
	Ctx context.Context
	// Jobs bounds the engine worker pool used to propagate the gates of
	// one logic level concurrently; zero or one runs serially. Windows
	// are independent of the worker count.
	Jobs int
	// Metrics, when non-nil, counts propagated gates and timing arcs.
	Metrics *engine.Metrics
}

// Result holds the computed windows for every line.
type Result struct {
	Circuit *netlist.Circuit
	Mode    Mode
	// Lines is a name-keyed view of the snapshot's lines.
	Lines map[string]*LineTiming

	snap *twindow.Snapshot
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

	g, err := tgraph.New(c, tgraph.Options{
		Lib:         opts.Lib,
		Mode:        opts.Mode,
		PI:          opts.PI,
		PerPI:       opts.PerPI,
		NCExtension: opts.NCExtension,
		Ctx:         opts.Ctx,
		Jobs:        opts.Jobs,
		Metrics:     opts.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("sta: %w", err)
	}
	return FromGraph(g), nil
}

// FromGraph snapshots a persistent timing graph's current windows as an
// analysis Result, so graph holders get path extraction, required times and
// violation checks without a fresh full analysis. The snapshot is a copy:
// later graph edits do not disturb it. Whatever cube the graph holds, every
// line's transition states read SMaybe — STA as the S = 0 special case of
// ITR.
func FromGraph(g *tgraph.Graph) *Result {
	snap := g.Snapshot()
	for i := range snap.Lines {
		li := &snap.Lines[i]
		li.Value, li.SRise, li.SFall = nineval.VXX, nineval.SMaybe, nineval.SMaybe
	}
	return &Result{Circuit: snap.Circuit, Mode: snap.Mode, Lines: snap.LineMap(), snap: snap}
}

// Window returns the directional window of a net.
func (r *Result) Window(net string, rising bool) (Window, bool) {
	lt, ok := r.Lines[net]
	if !ok {
		return Window{}, false
	}
	if rising {
		return lt.Rise, true
	}
	return lt.Fall, true
}

// MinPOArrival returns the earliest arrival over all primary outputs and
// both directions — the paper's Table 2 "min-delay at outputs" metric (the
// lower edge of the union of the PO timing ranges).
func (r *Result) MinPOArrival() float64 {
	min := math.Inf(1)
	for _, po := range r.Circuit.POs {
		if lt, ok := r.Lines[po]; ok {
			if lt.Rise.AS < min {
				min = lt.Rise.AS
			}
			if lt.Fall.AS < min {
				min = lt.Fall.AS
			}
		}
	}
	return min
}

// MaxPOArrival returns the latest arrival over all primary outputs and both
// directions (the classical critical-path delay).
func (r *Result) MaxPOArrival() float64 {
	max := math.Inf(-1)
	for _, po := range r.Circuit.POs {
		if lt, ok := r.Lines[po]; ok {
			if lt.Rise.AL > max {
				max = lt.Rise.AL
			}
			if lt.Fall.AL > max {
				max = lt.Fall.AL
			}
		}
	}
	return max
}

// RequiredTimes performs the backward traversal of Section 4 and returns
// the required-time windows of every gate output and of every primary
// input that feeds a gate or is a primary output. It runs the backward
// pass shared with itr (twindow.Snapshot) on lines whose transition states
// are all SMaybe.
func (r *Result) RequiredTimes(cons Constraint) map[string]*LineRequired {
	return r.snap.RequiredTimes(cons)
}

// CheckViolations compares the arrival windows against the required windows
// derived from the PO constraint and returns every failing line, ordered by
// slack (most negative first), then net, rising before falling, setup
// before hold.
func (r *Result) CheckViolations(cons Constraint) []Violation {
	return r.snap.CheckViolations(cons)
}
