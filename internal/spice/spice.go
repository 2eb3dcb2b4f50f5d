// Package spice implements a small transistor-level transient circuit
// simulator — the reproduction's stand-in for HSPICE.
//
// It performs modified nodal analysis (MNA) with Newton-Raphson iteration at
// every time point and backward-Euler integration of capacitor currents.
// Supported elements are resistors, two-terminal capacitors, independent
// (time-varying) voltage sources, and square-law MOSFETs from package device.
//
// The simulator is sized for cell characterisation: circuits of a few dozen
// nodes, simulated for a few nanoseconds at picosecond resolution. Matrices
// are dense and solved by partial-pivot LU decomposition.
package spice

import (
	"context"
	"fmt"
	"math"

	"sstiming/internal/device"
	"sstiming/internal/engine"
	"sstiming/internal/waveform"
)

// Ground is the name of the reference node. It is always node index 0.
const Ground = "0"

// gmin is a small conductance from every node to ground that keeps the
// Jacobian non-singular when devices are cut off.
const gmin = 1e-12

// vtol is the Newton convergence tolerance in volts.
const vtol = 1e-6

// Circuit is a netlist under construction. Add elements, then call Transient.
type Circuit struct {
	nodeIndex map[string]int
	nodeNames []string

	mosfets []mosfet
	caps    []capacitor
	ress    []resistor
	vsrcs   []vsource
}

type mosfet struct {
	d, g, s int
	params  *device.MOSParams
	geom    device.Geometry
}

type capacitor struct {
	a, b int
	c    float64
}

type resistor struct {
	a, b int
	g    float64
}

// WaveFunc gives the value of an independent voltage source at time t.
type WaveFunc func(t float64) float64

type vsource struct {
	p, m int
	wave WaveFunc
}

// NewCircuit returns an empty circuit containing only the ground node.
func NewCircuit() *Circuit {
	c := &Circuit{nodeIndex: make(map[string]int)}
	c.nodeIndex[Ground] = 0
	c.nodeNames = append(c.nodeNames, Ground)
	return c
}

// Node returns the index of the named node, creating it if necessary.
// "0" and "gnd" both refer to ground.
func (c *Circuit) Node(name string) int {
	if name == "gnd" || name == "GND" {
		name = Ground
	}
	if idx, ok := c.nodeIndex[name]; ok {
		return idx
	}
	idx := len(c.nodeNames)
	c.nodeIndex[name] = idx
	c.nodeNames = append(c.nodeNames, name)
	return idx
}

// NumNodes returns the number of nodes including ground.
func (c *Circuit) NumNodes() int { return len(c.nodeNames) }

// AddMOSFET adds a MOSFET with the given drain, gate and source node indices.
// The bulk terminal is implicit (tied to the appropriate rail; body effect is
// not modelled).
func (c *Circuit) AddMOSFET(d, g, s int, params *device.MOSParams, geom device.Geometry) {
	c.mosfets = append(c.mosfets, mosfet{d: d, g: g, s: s, params: params, geom: geom})
}

// AddCap adds a linear capacitor of value farads between nodes a and b.
func (c *Circuit) AddCap(a, b int, farads float64) {
	if farads <= 0 {
		return
	}
	c.caps = append(c.caps, capacitor{a: a, b: b, c: farads})
}

// AddRes adds a linear resistor of value ohms between nodes a and b.
func (c *Circuit) AddRes(a, b int, ohms float64) {
	c.ress = append(c.ress, resistor{a: a, b: b, g: 1 / ohms})
}

// AddVSource adds an independent voltage source from node p (positive) to
// node m whose value is wave(t).
func (c *Circuit) AddVSource(p, m int, wave WaveFunc) {
	c.vsrcs = append(c.vsrcs, vsource{p: p, m: m, wave: wave})
}

// AddDC adds a constant voltage source of the given value from p to ground.
func (c *Circuit) AddDC(p int, volts float64) {
	c.AddVSource(p, 0, func(float64) float64 { return volts })
}

// Method selects the numerical integration scheme for capacitor currents.
type Method int

const (
	// BackwardEuler is the first-order implicit scheme: unconditionally
	// stable and non-ringing, the default.
	BackwardEuler Method = iota
	// Trapezoidal is the second-order implicit scheme: more accurate at
	// a given step size, at the cost of possible ringing on stiff
	// discontinuities.
	Trapezoidal
)

// String names the method.
func (m Method) String() string {
	if m == Trapezoidal {
		return "trapezoidal"
	}
	return "backward-euler"
}

// TransientOpts controls a transient analysis.
type TransientOpts struct {
	// TStop is the simulation end time in seconds.
	TStop float64
	// TStep is the fixed integration step in seconds. Zero selects 1 ps.
	TStep float64
	// MaxNewton bounds Newton iterations per time point. Zero selects 60.
	MaxNewton int
	// Method selects the integration scheme (default BackwardEuler).
	Method Method
	// Record lists node names to record. Nil records every node.
	Record []string
	// Ctx, when non-nil, cancels the analysis; it is observed inside the
	// Newton loop of every time point, so even a single large flattened
	// solve cancels promptly. Cancellation returns an error wrapping both
	// engine.ErrCancelled and the context's own error.
	Ctx context.Context
	// MaxStepHalvings bounds the non-convergence recovery ladder: a time
	// point that fails to converge is retried with the step repeatedly
	// halved (sub-stepping to reach the same point) up to this many levels,
	// i.e. down to TStep/2^MaxStepHalvings. Zero selects 4; negative
	// disables recovery. Recovery only activates on failure, so a clean
	// analysis is bit-identical whatever the setting.
	MaxStepHalvings int
	// FaultHook, when non-nil, is consulted before each time-point solve
	// and can force a deterministic failure for chaos testing (see
	// internal/faultinject). Production runs leave it nil.
	FaultHook FaultHook
	// Metrics, when non-nil, receives the simulation effort counters
	// (transients, time steps, Newton iterations, recovery activity).
	Metrics *engine.Metrics
}

// Result holds the recorded waveforms of a transient analysis.
type Result struct {
	byName map[string]*waveform.Waveform
}

// Wave returns the waveform recorded for the named node, or nil if the node
// was not recorded.
func (r *Result) Wave(name string) *waveform.Waveform { return r.byName[name] }

// Transient runs a transient analysis and returns the recorded waveforms.
// The initial state is the DC operating point with all sources at their
// t = 0 values.
func (c *Circuit) Transient(opts TransientOpts) (*Result, error) {
	if opts.TStop <= 0 {
		return nil, fmt.Errorf("spice: TStop must be positive, got %g", opts.TStop)
	}
	h := opts.TStep
	if h <= 0 {
		h = 1e-12
	}
	maxNewton := opts.MaxNewton
	if maxNewton <= 0 {
		maxNewton = 60
	}

	nn := len(c.nodeNames) // includes ground
	nv := len(c.vsrcs)
	dim := (nn - 1) + nv // unknowns: node voltages 1..nn-1, then branch currents

	s := newSolver(dim)
	// x holds node voltages indexed by node (x[0] is ground, always 0)
	// followed by branch currents.
	volt := make([]float64, nn)
	voltPrev := make([]float64, nn)
	branch := make([]float64, nv)

	// Recording setup.
	record := opts.Record
	if record == nil {
		record = append([]string(nil), c.nodeNames...)
	}
	res := &Result{byName: make(map[string]*waveform.Waveform, len(record))}
	recIdx := make([]int, 0, len(record))
	recWaves := make([]*waveform.Waveform, 0, len(record))
	for _, name := range record {
		idx, ok := c.nodeIndex[name]
		if !ok {
			return nil, fmt.Errorf("spice: cannot record unknown node %q", name)
		}
		w := &waveform.Waveform{}
		res.byName[name] = w
		recIdx = append(recIdx, idx)
		recWaves = append(recWaves, w)
	}

	// Per-capacitor current state for the trapezoidal method.
	capCur := make([]float64, len(c.caps))

	maxHalvings := opts.MaxStepHalvings
	if maxHalvings == 0 {
		maxHalvings = 4
	}
	if maxHalvings < 0 {
		maxHalvings = 0
	}
	sc := &solveCtx{
		s:         s,
		maxNewton: maxNewton,
		method:    opts.Method,
		ctx:       opts.Ctx,
		hook:      opts.FaultHook,
		gmin:      gmin,
	}

	// Effort accounting is batched into locals and flushed once per
	// analysis so the integration loop pays no atomic operations.
	var stepsDone, newtonIters int64
	var retries, halvings, recovered, unrecovered int64
	defer func() {
		opts.Metrics.Add(engine.SpiceTransients, 1)
		opts.Metrics.Add(engine.SpiceTransSteps, stepsDone)
		opts.Metrics.Add(engine.SpiceNewtonIters, newtonIters)
		opts.Metrics.Add(engine.SpiceStepRetries, retries)
		opts.Metrics.Add(engine.SpiceStepHalvings, halvings)
		opts.Metrics.Add(engine.SpiceGminSteps, sc.gminSteps)
		opts.Metrics.Add(engine.SpiceRecovered, recovered)
		opts.Metrics.Add(engine.SpiceUnrecovered, unrecovered)
		opts.Metrics.Add(engine.FaultsInjected, sc.injected)
	}()

	// DC operating point at t = 0 (capacitors open, currents zero).
	iters, err := c.solvePoint(sc, volt, branch, voltPrev, capCur, 0, 0, 0, 0)
	newtonIters += int64(iters)
	if err != nil {
		if !IsRecoverable(err) || maxHalvings == 0 {
			return nil, fmt.Errorf("spice: DC operating point: %w", err)
		}
		// Recovery: gmin stepping. Start from a heavily damped system and
		// relax the extra conductance decade by decade, warm-starting each
		// continuation solve from the previous solution.
		retries++
		gIters, gerr := c.solveDCGmin(sc, volt, branch, voltPrev, capCur)
		newtonIters += gIters
		if gerr != nil {
			unrecovered++
			return nil, fmt.Errorf("spice: DC operating point (gmin stepping failed too): %w", gerr)
		}
		recovered++
	}
	for i, w := range recWaves {
		w.Append(0, volt[recIdx[i]])
	}

	steps := int(math.Ceil(opts.TStop / h))
	for step := 1; step <= steps; step++ {
		t := float64(step) * h
		copy(voltPrev, volt)
		iters, err := c.solvePoint(sc, volt, branch, voltPrev, capCur, t, h, step, 0)
		newtonIters += int64(iters)
		switch {
		case err == nil:
			if opts.Method == Trapezoidal {
				c.updateCapCur(volt, voltPrev, capCur, h)
			}
		case !IsRecoverable(err) || maxHalvings == 0:
			return nil, fmt.Errorf("spice: t=%.4gs: %w", t, err)
		default:
			// Recovery: retry the step with the integration step
			// repeatedly halved, sub-stepping across the same interval.
			retries++
			rIters, used, rerr := c.recoverStep(sc, volt, branch, voltPrev, capCur, t-h, h, step, maxHalvings)
			newtonIters += rIters
			halvings += int64(used)
			if rerr != nil {
				unrecovered++
				return nil, fmt.Errorf("spice: t=%.4gs (after %d step-halving levels): %w", t, used, rerr)
			}
			recovered++
		}
		stepsDone++
		for i, w := range recWaves {
			w.Append(t, volt[recIdx[i]])
		}
	}
	return res, nil
}

// updateCapCur advances the stored trapezoidal capacitor currents after an
// accepted step of size h: i_{n+1} = (2C/h)(v_{n+1} − v_n) − i_n.
func (c *Circuit) updateCapCur(volt, voltPrev, capCur []float64, h float64) {
	for i := range c.caps {
		cp := &c.caps[i]
		dv := (volt[cp.a] - volt[cp.b]) - (voltPrev[cp.a] - voltPrev[cp.b])
		capCur[i] = (2*cp.c/h)*dv - capCur[i]
	}
}

// recoverStep rescues a non-convergent time point by sub-stepping: attempt k
// restarts from the last converged state and integrates the interval
// [tPrev, tPrev+h] in 2^k sub-steps of h/2^k. It returns the Newton
// iterations spent, the deepest halving level attempted, and nil on success
// (volt/branch/capCur then hold the state at tPrev+h).
func (c *Circuit) recoverStep(sc *solveCtx, volt, branch, voltPrev, capCur []float64, tPrev, h float64, step, maxHalvings int) (iters int64, level int, err error) {
	// voltPrev still holds the last converged voltages (the failed solve
	// mutated only volt), and capCur was last updated at tPrev.
	base := append([]float64(nil), voltPrev...)
	capBase := append([]float64(nil), capCur...)
	for k := 1; k <= maxHalvings; k++ {
		level = k
		nsub := 1 << uint(k)
		hs := h / float64(nsub)
		copy(volt, base)
		copy(capCur, capBase)
		ok := true
		for j := 1; j <= nsub; j++ {
			tj := tPrev + hs*float64(j)
			copy(voltPrev, volt)
			it, serr := c.solvePoint(sc, volt, branch, voltPrev, capCur, tj, hs, step, k)
			iters += int64(it)
			if serr != nil {
				if !IsRecoverable(serr) {
					return iters, k, serr
				}
				ok = false
				err = serr
				break
			}
			if sc.method == Trapezoidal {
				c.updateCapCur(volt, voltPrev, capCur, hs)
			}
		}
		if ok {
			return iters, k, nil
		}
	}
	// Leave the last converged state in place for the caller's diagnostics.
	copy(volt, base)
	copy(capCur, capBase)
	return iters, maxHalvings, err
}

// dcGminStart is the initial extra node-to-ground conductance of the gmin
// stepping ladder; it is relaxed one decade per continuation solve down to
// the nominal gmin.
const dcGminStart = 1e-3

// solveDCGmin rescues a non-convergent DC operating point by gmin stepping.
func (c *Circuit) solveDCGmin(sc *solveCtx, volt, branch, voltPrev, capCur []float64) (iters int64, err error) {
	// Restart from a clean state: the failed attempt may have left volt
	// poisoned (NaN) or far outside the basin of attraction.
	for i := range volt {
		volt[i] = 0
	}
	for i := range branch {
		branch[i] = 0
	}
	attempt := 0
	for g := dcGminStart; ; g /= 10 {
		if g < gmin {
			g = gmin
		}
		attempt++
		sc.gmin = g
		sc.gminSteps++
		it, serr := c.solvePoint(sc, volt, branch, voltPrev, capCur, 0, 0, 0, attempt)
		iters += int64(it)
		if serr != nil {
			sc.gmin = gmin
			return iters, serr
		}
		if g == gmin {
			sc.gmin = gmin
			return iters, nil
		}
	}
}

// solveCtx bundles the per-analysis solver configuration threaded through
// every time-point solve.
type solveCtx struct {
	s         *solver
	maxNewton int
	method    Method
	ctx       context.Context
	hook      FaultHook
	// gmin is the node-to-ground conductance stamped on every non-ground
	// node; the DC gmin-stepping ladder temporarily raises it.
	gmin float64
	// gminSteps and injected batch metrics locals for the deferred flush.
	gminSteps int64
	injected  int64
}

// unknownName names MNA unknown i (0-based solver row): a node voltage for
// the first nn-1 rows, a voltage-source branch current afterwards.
func (c *Circuit) unknownName(i int) string {
	if i < len(c.nodeNames)-1 {
		return c.nodeNames[i+1]
	}
	return fmt.Sprintf("vsource#%d", i-(len(c.nodeNames)-1))
}

// solvePoint performs Newton-Raphson iteration for one time point,
// returning the number of iterations spent. h == 0 means DC (capacitors
// are ignored). volt is used as the initial guess and receives the
// solution; voltPrev holds the previous time point's voltages (and capCur
// the previous capacitor currents) for the companion models. step and
// attempt identify the point for diagnostics and fault injection.
func (c *Circuit) solvePoint(sc *solveCtx, volt, branch, voltPrev, capCur []float64, t, h float64, step, attempt int) (int, error) {
	fault := FaultNone
	if sc.hook != nil {
		fault = sc.hook(step, t, attempt)
	}
	if fault != FaultNone {
		sc.injected++
	}
	switch fault {
	case FaultPanic:
		panic(fmt.Sprintf("faultinject: forced panic at step %d (t=%.4gs)", step, t))
	case FaultNoConverge:
		return 0, &SolveError{Kind: ErrNoConvergence, Time: t, Step: step, Attempt: attempt, Injected: true}
	}

	s := sc.s
	maxNewton, method := sc.maxNewton, sc.method
	nn := len(c.nodeNames)
	worst := 0
	residual := 0.0
	for iter := 0; iter < maxNewton; iter++ {
		// Observe cancellation inside the Newton loop: each iteration is a
		// dense LU solve, so even one large flattened circuit reacts to
		// cancellation within a single iteration, not a whole transient.
		if sc.ctx != nil {
			if cerr := sc.ctx.Err(); cerr != nil {
				return iter, engine.Cancelled(cerr)
			}
		}
		s.reset()

		// gmin to ground on every non-ground node.
		for i := 1; i < nn; i++ {
			s.addG(i, i, sc.gmin)
		}

		for i := range c.ress {
			r := &c.ress[i]
			s.addG(r.a, r.a, r.g)
			s.addG(r.b, r.b, r.g)
			s.addG(r.a, r.b, -r.g)
			s.addG(r.b, r.a, -r.g)
		}

		if h > 0 {
			for i := range c.caps {
				cp := &c.caps[i]
				var geq, ieq float64
				if method == Trapezoidal {
					// i_{n+1} = geq*v_{n+1} - (geq*v_n + i_n)
					geq = 2 * cp.c / h
					ieq = geq*(voltPrev[cp.a]-voltPrev[cp.b]) + capCur[i]
				} else {
					geq = cp.c / h
					ieq = geq * (voltPrev[cp.a] - voltPrev[cp.b])
				}
				s.addG(cp.a, cp.a, geq)
				s.addG(cp.b, cp.b, geq)
				s.addG(cp.a, cp.b, -geq)
				s.addG(cp.b, cp.a, -geq)
				s.addI(cp.a, ieq)
				s.addI(cp.b, -ieq)
			}
		}

		for i := range c.mosfets {
			m := &c.mosfets[i]
			vgs := volt[m.g] - volt[m.s]
			vds := volt[m.d] - volt[m.s]
			ids, gm, gds := m.params.Ids(m.geom, vgs, vds)
			ieq := ids - gm*vgs - gds*vds
			// Current ids flows drain -> source.
			s.addG(m.d, m.d, gds)
			s.addG(m.d, m.s, -gds-gm)
			s.addG(m.d, m.g, gm)
			s.addG(m.s, m.d, -gds)
			s.addG(m.s, m.s, gds+gm)
			s.addG(m.s, m.g, -gm)
			s.addI(m.d, -ieq)
			s.addI(m.s, ieq)
		}

		for i := range c.vsrcs {
			v := &c.vsrcs[i]
			s.stampVSource(nn, i, v.p, v.m, v.wave(t))
		}

		x, err := s.solve()
		if err != nil {
			return iter + 1, &SolveError{
				Kind: ErrNumerical, Time: t, Step: step, Attempt: attempt,
				Iters: iter + 1, Cause: err,
			}
		}
		if fault == FaultNaN && iter == 0 && len(x) > 0 {
			// Poison the solve output instead of returning an error
			// directly, so the injection exercises the real guard below.
			x[0] = math.NaN()
		}
		// Guard the linear-solve output: a NaN/Inf entry must surface as a
		// typed numerical error naming the offending unknown — without the
		// guard a NaN poisons every later comparison and the loop either
		// "converges" on garbage or spins to the iteration cap.
		for i := range x {
			if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
				return iter + 1, &SolveError{
					Kind: ErrNumerical, Time: t, Step: step, Attempt: attempt,
					Iters: iter + 1, Node: c.unknownName(i), Injected: fault == FaultNaN,
				}
			}
		}

		// Extract the solution and check convergence with damping.
		maxDelta := 0.0
		for i := 1; i < nn; i++ {
			newV := x[i-1]
			d := newV - volt[i]
			if math.Abs(d) > maxDelta {
				maxDelta = math.Abs(d)
				worst = i
			}
			// Damp large Newton steps to aid convergence on the
			// steep square-law characteristics.
			const maxStep = 1.0
			if d > maxStep {
				newV = volt[i] + maxStep
			} else if d < -maxStep {
				newV = volt[i] - maxStep
			}
			volt[i] = newV
		}
		for i := 0; i < len(c.vsrcs); i++ {
			branch[i] = x[nn-1+i]
		}
		if maxDelta < vtol {
			return iter + 1, nil
		}
		residual = maxDelta
	}
	return maxNewton, &SolveError{
		Kind: ErrNoConvergence, Time: t, Step: step, Attempt: attempt,
		Iters: maxNewton, Node: c.nodeNames[worst], Residual: residual,
	}
}

// solver is a dense MNA matrix with node-index based stamping. Row/column k
// corresponds to node k+1 for k < nn-1 and to voltage-source branch
// k-(nn-1) afterwards. Stamps referencing ground (node 0) are dropped.
type solver struct {
	dim int
	a   []float64 // dim x dim, row-major
	b   []float64
	x   []float64
	piv []int
}

func newSolver(dim int) *solver {
	return &solver{
		dim: dim,
		a:   make([]float64, dim*dim),
		b:   make([]float64, dim),
		x:   make([]float64, dim),
		piv: make([]int, dim),
	}
}

func (s *solver) reset() {
	for i := range s.a {
		s.a[i] = 0
	}
	for i := range s.b {
		s.b[i] = 0
	}
}

// addG stamps a conductance entry between node rows/cols (1-based node
// indices; ground entries are dropped).
func (s *solver) addG(row, col int, g float64) {
	if row == 0 || col == 0 {
		return
	}
	s.a[(row-1)*s.dim+(col-1)] += g
}

// addI stamps a current source injection into a node's RHS entry.
func (s *solver) addI(row int, i float64) {
	if row == 0 {
		return
	}
	s.b[row-1] += i
}

// stampVSource stamps the MNA rows of voltage source k with value e between
// nodes p and m. nn is the total node count including ground.
func (s *solver) stampVSource(nn, k, p, m int, e float64) {
	br := (nn - 1) + k
	if p != 0 {
		s.a[(p-1)*s.dim+br] += 1
		s.a[br*s.dim+(p-1)] += 1
	}
	if m != 0 {
		s.a[(m-1)*s.dim+br] -= 1
		s.a[br*s.dim+(m-1)] -= 1
	}
	s.b[br] = e
}

// solve performs an in-place partial-pivot LU solve of the stamped system.
// The returned slice is reused between calls.
func (s *solver) solve() ([]float64, error) {
	n := s.dim
	a := s.a
	b := s.b

	for col := 0; col < n; col++ {
		// Pivot selection.
		pivRow := col
		pivVal := math.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r*n+col]); v > pivVal {
				pivVal = v
				pivRow = r
			}
		}
		if pivVal == 0 {
			return nil, fmt.Errorf("singular MNA matrix at column %d", col)
		}
		if pivRow != col {
			for k := col; k < n; k++ {
				a[col*n+k], a[pivRow*n+k] = a[pivRow*n+k], a[col*n+k]
			}
			b[col], b[pivRow] = b[pivRow], b[col]
		}
		inv := 1 / a[col*n+col]
		for r := col + 1; r < n; r++ {
			f := a[r*n+col] * inv
			if f == 0 {
				continue
			}
			a[r*n+col] = 0
			for k := col + 1; k < n; k++ {
				a[r*n+k] -= f * a[col*n+k]
			}
			b[r] -= f * b[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for k := r + 1; k < n; k++ {
			sum -= a[r*n+k] * s.x[k]
		}
		s.x[r] = sum / a[r*n+r]
	}
	return s.x, nil
}
