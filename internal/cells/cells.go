// Package cells builds transistor-level testbenches for the primitive CMOS
// cells studied in the DAC 2001 paper: inverters and n-input NAND/NOR gates
// with minimum-size transistors, each optionally driving a minimum-size
// inverter as a load (the paper's experimental setup).
//
// Input positions follow the paper's Figure 3 convention: position 0 is the
// transistor of the series stack that is closest to the gate output.
package cells

import (
	"context"
	"fmt"

	"sstiming/internal/device"
	"sstiming/internal/engine"
	"sstiming/internal/spice"
	"sstiming/internal/waveform"
)

// Kind enumerates the supported primitive cell types.
type Kind int

const (
	// Inv is a static CMOS inverter.
	Inv Kind = iota
	// NAND is an n-input static CMOS NAND gate.
	NAND
	// NOR is an n-input static CMOS NOR gate.
	NOR
)

// String returns the conventional cell name ("INV", "NAND3", ...).
func (k Kind) String() string {
	switch k {
	case Inv:
		return "INV"
	case NAND:
		return "NAND"
	case NOR:
		return "NOR"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config describes one cell instance and its load.
type Config struct {
	Kind Kind
	// N is the number of inputs (1 for Inv).
	N int
	// Tech is the process technology; nil selects device.Default05um.
	Tech *device.Tech
	// LoadInverter attaches a minimum-size inverter to the output, the
	// standard load of the paper's experiments.
	LoadInverter bool
	// ExtraLoadCap adds additional capacitance (farads) at the output.
	ExtraLoadCap float64
}

// Name returns the conventional instance name, e.g. "NAND2".
func (c Config) Name() string {
	if c.Kind == Inv {
		return "INV"
	}
	return fmt.Sprintf("%s%d", c.Kind, c.N)
}

// ControllingValue returns the controlling logic value of the cell: 0 for
// NAND/Inv (a low input forces the output), 1 for NOR.
func (c Config) ControllingValue() int {
	if c.Kind == NOR {
		return 1
	}
	return 0
}

// OutputRisesOnControlling reports whether a to-controlling response is a
// rising output transition (true for NAND and Inv, false for NOR).
func (c Config) OutputRisesOnControlling() bool { return c.Kind != NOR }

// Drive describes the stimulus applied to one input pin.
type Drive struct {
	// Steady, when true, holds the pin at Level for the whole simulation.
	Steady bool
	// Level is the steady voltage (used only when Steady).
	Level float64
	// Rising selects the transition direction (used when !Steady).
	Rising bool
	// Arrival is the 50% crossing time of the input ramp, in seconds.
	Arrival float64
	// Trans is the 10%-90% transition time of the input ramp, in seconds.
	Trans float64
}

// SteadyHigh returns a steady drive at Vdd.
func SteadyHigh(tech *device.Tech) Drive { return Drive{Steady: true, Level: tech.Vdd} }

// SteadyLow returns a steady drive at 0 V.
func SteadyLow() Drive { return Drive{Steady: true, Level: 0} }

// Falling returns a falling-ramp drive.
func Falling(arrival, trans float64) Drive {
	return Drive{Rising: false, Arrival: arrival, Trans: trans}
}

// Rising returns a rising-ramp drive.
func Rising(arrival, trans float64) Drive {
	return Drive{Rising: true, Arrival: arrival, Trans: trans}
}

func (c Config) tech() *device.Tech {
	if c.Tech != nil {
		return c.Tech
	}
	return device.Default05um()
}

func (c Config) validate(drives []Drive) error {
	n := c.N
	if c.Kind == Inv {
		n = 1
	}
	if n < 1 {
		return fmt.Errorf("cells: %s: invalid input count %d", c.Kind, c.N)
	}
	if c.Kind != Inv && n > 8 {
		return fmt.Errorf("cells: %s: input count %d exceeds supported stack depth 8", c.Kind, n)
	}
	if len(drives) != n {
		return fmt.Errorf("cells: %s expects %d drives, got %d", c.Name(), n, len(drives))
	}
	return nil
}

// Build constructs the transistor-level testbench circuit for this cell with
// the given per-input drives. The gate output is node "out"; input pins are
// nodes "in0".."in<n-1>" where the suffix is the input position.
func (c Config) Build(drives []Drive) (*spice.Circuit, error) {
	if err := c.validate(drives); err != nil {
		return nil, err
	}
	tech := c.tech()
	n := len(drives)

	ckt := spice.NewCircuit()
	vdd := ckt.Node("vdd")
	ckt.AddDC(vdd, tech.Vdd)
	out := ckt.Node("out")

	// Input sources.
	ins := make([]int, n)
	for i, d := range drives {
		ins[i] = ckt.Node(fmt.Sprintf("in%d", i))
		var wave spice.WaveFunc
		switch {
		case d.Steady:
			wave = waveform.Step(d.Level)
		case d.Rising:
			wave = waveform.Ramp(0, tech.Vdd, d.Arrival, d.Trans)
		default:
			wave = waveform.Ramp(tech.Vdd, 0, d.Arrival, d.Trans)
		}
		ckt.AddVSource(ins[i], 0, wave)
	}

	nmos := &tech.NMOS
	pmos := &tech.PMOS
	ngeo := tech.MinGeom(device.NMOS)
	pgeo := tech.MinGeom(device.PMOS)

	// addMOS adds a transistor plus its parasitics: diffusion capacitance
	// at the drain and source (skipped on rail nodes, where an ideal
	// source makes them irrelevant) and gate-drain / gate-source overlap
	// capacitances (the Miller couplers).
	addMOS := func(d, g, s int, p *device.MOSParams, geo device.Geometry) {
		ckt.AddMOSFET(d, g, s, p, geo)
		if d != vdd && d != 0 {
			ckt.AddCap(d, 0, p.DiffCap(geo))
			ckt.AddCap(g, d, p.OverlapCap(geo))
		}
		if s != vdd && s != 0 {
			ckt.AddCap(s, 0, p.DiffCap(geo))
			ckt.AddCap(g, s, p.OverlapCap(geo))
		}
	}

	switch c.Kind {
	case Inv:
		addMOS(out, ins[0], vdd, pmos, pgeo)
		addMOS(out, ins[0], 0, nmos, ngeo)
	case NAND:
		// Parallel PMOS pull-up.
		for i := 0; i < n; i++ {
			addMOS(out, ins[i], vdd, pmos, pgeo)
		}
		// Series NMOS pull-down: position 0 nearest the output.
		prev := out
		for i := 0; i < n; i++ {
			var next int
			if i == n-1 {
				next = 0 // ground
			} else {
				next = ckt.Node(fmt.Sprintf("nstack%d", i))
			}
			addMOS(prev, ins[i], next, nmos, ngeo)
			prev = next
		}
	case NOR:
		// Parallel NMOS pull-down.
		for i := 0; i < n; i++ {
			addMOS(out, ins[i], 0, nmos, ngeo)
		}
		// Series PMOS pull-up: position 0 nearest the output.
		prev := out
		for i := 0; i < n; i++ {
			var next int
			if i == n-1 {
				next = vdd
			} else {
				next = ckt.Node(fmt.Sprintf("pstack%d", i))
			}
			// For PMOS the stack's "drain" faces the output.
			addMOS(prev, ins[i], next, pmos, pgeo)
			prev = next
		}
	default:
		return nil, fmt.Errorf("cells: unsupported kind %v", c.Kind)
	}

	// Load: a minimum-size inverter (paper setup) and/or extra capacitance.
	if c.LoadInverter {
		lout := ckt.Node("loadout")
		addMOS(lout, out, vdd, pmos, pgeo)
		addMOS(lout, out, 0, nmos, ngeo)
		ckt.AddCap(lout, 0, 2e-15)
		// The load inverter's input (gate) capacitance at "out".
		ckt.AddCap(out, 0, pmos.CoxArea*pgeo.W*pgeo.L+nmos.CoxArea*ngeo.W*ngeo.L)
	}
	if c.ExtraLoadCap > 0 {
		ckt.AddCap(out, 0, c.ExtraLoadCap)
	}
	return ckt, nil
}

// SimOptions tunes a cell simulation.
type SimOptions struct {
	// TStop is the simulation end time; zero lets SimulateOutput choose a
	// window based on the drives.
	TStop float64
	// TStep is the integration step; zero selects 2 ps.
	TStep float64
	// Method selects the integration scheme (default spice.BackwardEuler;
	// the characterisation harness uses spice.Trapezoidal).
	Method spice.Method
	// MaxNewton bounds Newton iterations per time point; zero keeps the
	// solver default. The characterisation retry path raises it.
	MaxNewton int
	// FaultHook, when non-nil, injects deterministic solver faults for
	// chaos testing (see internal/faultinject).
	FaultHook spice.FaultHook
	// Ctx, when non-nil, cancels the underlying transient analysis.
	Ctx context.Context
	// Metrics, when non-nil, receives the simulator effort counters.
	Metrics *engine.Metrics
}

// SimulateOutput builds and simulates the testbench and returns the output
// waveform together with the technology Vdd (for measurements).
func (c Config) SimulateOutput(drives []Drive, opts SimOptions) (*waveform.Waveform, float64, error) {
	ckt, err := c.Build(drives)
	if err != nil {
		return nil, 0, err
	}
	tech := c.tech()

	tstop := opts.TStop
	if tstop <= 0 {
		latest := 0.0
		for _, d := range drives {
			if d.Steady {
				continue
			}
			end := d.Arrival + d.Trans
			if end > latest {
				latest = end
			}
		}
		// Leave generous room for the gate response.
		tstop = latest + 4e-9
	}
	tstep := opts.TStep
	if tstep <= 0 {
		tstep = 2e-12
	}

	res, err := ckt.Transient(spice.TransientOpts{
		TStop:     tstop,
		TStep:     tstep,
		MaxNewton: opts.MaxNewton,
		Method:    opts.Method,
		Record:    []string{"out"},
		Ctx:       opts.Ctx,
		FaultHook: opts.FaultHook,
		Metrics:   opts.Metrics,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("cells: %s simulation: %w", c.Name(), err)
	}
	return res.Wave("out"), tech.Vdd, nil
}

// MeasureResponse simulates the cell and measures the output transition in
// the direction implied by the drives: rising when the active transitions are
// to the controlling value of a NAND (falling inputs), and so on. The caller
// states the expected output direction explicitly.
func (c Config) MeasureResponse(drives []Drive, outRising bool, opts SimOptions) (waveform.Transition, error) {
	w, vdd, err := c.SimulateOutput(drives, opts)
	if err != nil {
		return waveform.Transition{}, err
	}
	return w.MeasureTransition(vdd, outRising)
}
