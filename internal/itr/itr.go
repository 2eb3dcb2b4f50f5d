// Package itr is the former home of Incremental Timing Refinement (the
// paper's Section 5), which now lives in package sta beside STA: sta.Refine
// returns the same sta.Result as sta.Analyze. What remains here forwards to
// sta for existing callers, plus the paper's Table 1 (table1.go). New code
// imports sta.
package itr

import (
	"sstiming/internal/core"
	"sstiming/internal/netlist"
	"sstiming/internal/nineval"
	"sstiming/internal/sta"
	"sstiming/internal/tgraph"
)

// Options configures a refinement.
type Options = sta.Options

// LineInfo is the refined timing of one line.
type LineInfo = sta.LineTiming

// Result is the outcome of a refinement.
type Result struct{ *sta.Result }

// Refine forwards to sta.Refine.
func Refine(c *netlist.Circuit, cube nineval.Cube, opts Options) (*Result, error) {
	r, err := sta.Refine(c, cube, opts)
	if err != nil {
		return nil, err
	}
	return &Result{r}, nil
}

// FromGraph forwards to sta.FromGraph.
func FromGraph(g *tgraph.Graph) *Result { return &Result{sta.FromGraph(g)} }

// RequiredTimes forwards to sta.Result.RequiredTimes; lib is unused.
func (r *Result) RequiredTimes(cons sta.Constraint, lib *core.Library) map[string]*sta.LineRequired {
	return r.Result.RequiredTimes(cons)
}

// CheckViolations forwards to sta.Result.CheckViolations; lib is unused.
func (r *Result) CheckViolations(cons sta.Constraint, lib *core.Library) []sta.Violation {
	return r.Result.CheckViolations(cons)
}
