// Package sstiming is a Go reproduction of "A New Gate Delay Model for
// Simultaneous Switching and Its Applications" (Chen, Gupta, Breuer — DAC
// 2001).
//
// It provides:
//
//   - the paper's empirical gate-delay model for simultaneous
//     to-controlling transitions (a V-shaped delay-versus-skew surface with
//     closed-form fitted coefficient formulas), plus the pin-to-pin
//     baseline;
//   - a transistor-level transient simulator (the reproduction's HSPICE
//     stand-in) and the characterisation harness that fits the model's
//     K-coefficients against it;
//   - static timing analysis with min-max timing windows and worst-case
//     corner identification;
//   - incremental timing refinement (ITR) over a two-frame nine-valued
//     logic with forward/backward implication;
//   - a crosstalk-delay-fault ATPG that uses ITR to prune its search.
//
// This package is the public facade: it re-exports the stable API of the
// internal packages so downstream users need a single import. The full
// benchmark harness reproducing every table and figure of the paper lives
// in bench_test.go at the module root; see EXPERIMENTS.md for results.
//
// Quick start:
//
//	lib, err := sstiming.DefaultLibrary()   // embedded 0.5um library
//	nand2 := lib.MustCell("NAND2")
//	d := nand2.DelayCtrl2(0, 1, 0.5e-9, 0.5e-9, 0 /*skew*/, 0)
//
//	res, err := sstiming.AnalyzeSTA(circuit, sstiming.STAOptions{Lib: lib})
package sstiming

import (
	"io"

	"sstiming/internal/atpg"
	"sstiming/internal/charlib"
	"sstiming/internal/core"
	"sstiming/internal/device"
	"sstiming/internal/engine"
	"sstiming/internal/holdfix"
	"sstiming/internal/logicsim"
	"sstiming/internal/netlist"
	"sstiming/internal/nineval"
	"sstiming/internal/prechar"
	"sstiming/internal/sdf"
	"sstiming/internal/sta"
)

// Delay model (the paper's primary contribution).
type (
	// Library is a characterised cell library.
	Library = core.Library
	// CellModel is one cell's fitted timing model.
	CellModel = core.CellModel
	// PinTiming is a per-pin single-transition timing function set.
	PinTiming = core.PinTiming
	// PairTiming is the simultaneous-switching surface of an input pair.
	PairTiming = core.PairTiming
	// InputEvent is one switching gate input.
	InputEvent = core.InputEvent
	// Response is a computed gate output transition.
	Response = core.Response
)

// Technology and characterisation.
type (
	// Tech is a process technology description.
	Tech = device.Tech
	// CharOptions configures library characterisation.
	CharOptions = charlib.Options
)

// Execution engine: scheduling and instrumentation shared by every layer.
type (
	// Metrics is the instrumentation sink of atomic effort counters and
	// wall-clock timers; pass one through the Metrics field of the layer
	// Options to collect statistics. All methods are nil-safe.
	Metrics = engine.Metrics
	// MetricsSnapshot is a point-in-time copy of a Metrics.
	MetricsSnapshot = engine.Snapshot
)

// NewMetrics returns an empty instrumentation sink.
func NewMetrics() *Metrics { return engine.NewMetrics() }

// Netlists and circuits.
type (
	// Circuit is a gate-level combinational circuit.
	Circuit = netlist.Circuit
	// Gate is one gate instance.
	Gate = netlist.Gate
	// GateKind enumerates the primitive gate types.
	GateKind = netlist.GateKind
)

// Gate kinds.
const (
	Inv  = netlist.Inv
	Buf  = netlist.Buf
	Nand = netlist.Nand
	Nor  = netlist.Nor
)

// Static timing analysis.
type (
	// STAOptions configures static timing analysis.
	STAOptions = sta.Options
	// STAResult holds per-line timing windows.
	STAResult = sta.Result
	// Window is a per-direction min-max timing window.
	Window = sta.Window
	// PITiming is the stimulus assumed at primary inputs.
	PITiming = sta.PITiming
	// Constraint is the PO timing requirement for required-time analysis.
	Constraint = sta.Constraint
	// Violation is one timing check failure.
	Violation = sta.Violation
)

// Analysis modes.
const (
	// ModeProposed uses the paper's simultaneous-switching model.
	ModeProposed = sta.ModeProposed
	// ModePinToPin uses the conventional pin-to-pin model.
	ModePinToPin = sta.ModePinToPin
)

// Nine-valued two-frame logic and ITR.
type (
	// Value is a two-frame nine-valued logic value.
	Value = nineval.Value
	// Cube is a partial two-frame assignment.
	Cube = nineval.Cube
	// ITROptions configures incremental timing refinement.
	ITROptions = sta.Options
	// ITRResult holds refined windows and transition states; it is the
	// STAResult type.
	ITRResult = sta.Result
)

// Timing simulation.
type (
	// SimOptions configures two-pattern timing simulation.
	SimOptions = logicsim.Options
	// SimResult holds per-line logic values and timed events.
	SimResult = logicsim.Result
	// Vector assigns logic values to primary inputs.
	Vector = logicsim.Vector
	// FaultInjection models a crosstalk delay fault at simulation time.
	FaultInjection = logicsim.FaultInjection
)

// Interchange and applications.
type (
	// SDFFile is a parsed or generated Standard Delay Format file
	// (pin-to-pin subset).
	SDFFile = sdf.File
	// HoldFixResult summarises a hold-fix buffer-insertion run.
	HoldFixResult = holdfix.Result
)

// ATPG.
type (
	// Fault is a crosstalk delay fault site.
	Fault = atpg.Fault
	// ATPGOptions configures test generation.
	ATPGOptions = atpg.Options
	// ATPGResult is the outcome of one fault's test generation.
	ATPGResult = atpg.Result
	// CampaignStats aggregates a fault-list run.
	CampaignStats = atpg.CampaignStats
)

// DefaultLibrary returns the embedded pre-characterised 0.5 um library.
func DefaultLibrary() (*Library, error) { return prechar.Library() }

// LoadLibrary reads a library from JSON (as written by Library.WriteJSON or
// cmd/characterize).
func LoadLibrary(r io.Reader) (*Library, error) { return core.LoadLibrary(r) }

// Characterize runs cell characterisation against the built-in
// transistor-level simulator and returns a fitted library.
func Characterize(opts CharOptions) (*Library, error) { return charlib.Characterize(opts) }

// Default05um returns the default 0.5 um process technology.
func Default05um() *Tech { return device.Default05um() }

// ParseBench reads an ISCAS85 ".bench" netlist.
func ParseBench(name string, r io.Reader) (*Circuit, error) { return netlist.Parse(name, r) }

// ParseVerilog reads a structural Verilog netlist (gate primitives only).
func ParseVerilog(name string, r io.Reader) (*Circuit, error) {
	return netlist.ParseVerilog(name, r)
}

// AnalyzeSTA runs static timing analysis.
func AnalyzeSTA(c *Circuit, opts STAOptions) (*STAResult, error) { return sta.Analyze(c, opts) }

// RefineITR runs incremental timing refinement under a partial two-frame
// assignment.
func RefineITR(c *Circuit, cube Cube, opts ITROptions) (*ITRResult, error) {
	return sta.Refine(c, cube, opts)
}

// SimulateTiming runs two-pattern timing simulation.
func SimulateTiming(c *Circuit, v1, v2 Vector, opts SimOptions) (*SimResult, error) {
	return logicsim.Simulate(c, v1, v2, opts)
}

// GenerateTest runs crosstalk-fault test generation for one fault.
func GenerateTest(c *Circuit, f Fault, opts ATPGOptions) (ATPGResult, error) {
	return atpg.GenerateTest(c, f, opts)
}

// RunCampaign runs test generation over a fault list.
func RunCampaign(c *Circuit, faults []Fault, opts ATPGOptions) (CampaignStats, error) {
	return atpg.RunCampaign(c, faults, opts)
}

// SimulateFaulty runs two-pattern timing simulation with a crosstalk fault
// injected, returning the clean and faulty results and whether the fault was
// excited.
func SimulateFaulty(c *Circuit, v1, v2 Vector, f FaultInjection, opts SimOptions) (clean, faulty *SimResult, excited bool, err error) {
	return logicsim.SimulateFaulty(c, v1, v2, f, opts)
}

// ExportSDF builds the SDF annotation of a circuit from a characterised
// library (pin-to-pin delays only — the simultaneous-switching surfaces
// have no SDF representation).
func ExportSDF(c *Circuit, lib *Library) (*SDFFile, error) {
	return sdf.FromLibrary(c, lib)
}

// ParseSDF reads the SDF subset emitted by SDFFile.Write.
func ParseSDF(r io.Reader) (*SDFFile, error) { return sdf.Parse(r) }

// FixHold inserts buffers in front of hold-violating primary outputs until
// the STA min-delay check passes under the given model.
func FixHold(c *Circuit, lib *Library, mode sta.Mode, holdTime float64) (*HoldFixResult, error) {
	return holdfix.Fix(c, lib, mode, holdTime)
}
