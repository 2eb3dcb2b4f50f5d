// Package charlib is the characterisation harness: it drives the
// transistor-level simulator (the reproduction's HSPICE stand-in) over grids
// of input transition times and skews, and fits the paper's empirical
// K-coefficient formulas (Section 3.4) to produce a core.Library.
//
// This corresponds to the paper's Section 3.7 "Characterization Efforts":
// a one-time, per-cell pre-characterisation that yields the DR, D0R and SR
// formulas (and their transition-time analogues) for each NAND/NOR cell.
package charlib

import (
	"context"
	"fmt"
	"math"
	"sync"

	"sstiming/internal/cells"
	"sstiming/internal/core"
	"sstiming/internal/device"
	"sstiming/internal/engine"
	"sstiming/internal/fit"
	"sstiming/internal/spice"
)

// Options configures a characterisation run.
type Options struct {
	// Tech is the process technology; nil selects device.Default05um.
	Tech *device.Tech
	// Grid lists the input transition times (seconds) swept during
	// characterisation. Nil selects the default 5-point grid
	// {0.1, 0.25, 0.5, 0.9, 1.5} ns.
	Grid []float64
	// Cells lists the cells to characterise. Nil selects the default
	// library {INV, NAND2, NAND3, NAND4, NOR2, NOR3}.
	Cells []cells.Config
	// TStep is the simulator integration step; zero selects 2 ps.
	TStep float64
	// SkewTol is the bisection tolerance when locating the SR threshold;
	// zero selects 4 ps.
	SkewTol float64
	// SkipPairs skips the (expensive) pair-surface characterisation,
	// producing pin-to-pin-only models. Useful when only single-input
	// timing is needed (e.g. the Figure 10 position study).
	SkipPairs bool
	// PaperExactD0 restricts the D0R/T0 fits to the paper's exact
	// four-term product form instead of the default extended basis.
	// Used by the D0-basis ablation bench.
	PaperExactD0 bool
	// NCPairs additionally characterises the simultaneous
	// to-non-controlling surfaces (the paper's Section 3.6 future work;
	// roughly doubles the pair-characterisation cost).
	NCPairs bool
	// Retries bounds the per-point retry ladder: a simulation whose solver
	// fails recoverably (non-convergence, numerical blow-up) even after the
	// solver's own step-halving recovery is re-run with tightened settings
	// (halved step, doubled Newton budget) up to this many times. Zero
	// selects 2; negative disables retries. The first attempt always uses
	// the unmodified settings, so a clean run is byte-identical whatever
	// the value.
	Retries int
	// MaxDegradedFrac is the graceful-degradation budget: the largest
	// tolerated fraction of a cell's characterisation points that may be
	// interpolated from neighbours after all retries fail. Zero selects
	// 0.25; negative forbids degradation entirely. Beyond the budget the
	// cell's characterisation fails hard.
	MaxDegradedFrac float64
	// NewFaultHook, when non-nil, supplies one fault-injection hook per
	// transient analysis (see internal/faultinject.Plan.NextHook). Chaos
	// testing only; production runs leave it nil.
	NewFaultHook func() spice.FaultHook
	// Progress, when non-nil, receives one line per characterisation
	// stage (useful for the CLI).
	Progress func(format string, args ...any)
	// Ctx, when non-nil, cancels the characterisation (checked between
	// simulations and inside each transient analysis).
	Ctx context.Context
	// Jobs bounds the engine worker pool at each fan-out level (cells,
	// and input pairs within a cell); zero selects GOMAXPROCS. Jobs == 1
	// runs fully serially. Any value produces a byte-identical library:
	// job results are placed by index, and the underlying simulations
	// are deterministic.
	Jobs int
	// Checkpoint, when non-nil, receives each cell model the moment its
	// characterisation completes, before the campaign moves on — the hook
	// for write-ahead journaling (internal/store.Journal.Append). A
	// checkpoint error fails the cell: a result that cannot be made
	// durable is treated like a result that was never produced.
	Checkpoint func(*core.CellModel) error
	// Completed seeds the campaign with already-characterised cells (keyed
	// by cell name, e.g. journal replay on resume). A configured cell
	// found here is reused verbatim — no simulation, no Checkpoint call —
	// and counted under charlib/cells_reused.
	Completed map[string]*core.CellModel
	// Metrics, when non-nil, accumulates characterisation and simulator
	// effort counters across all workers.
	Metrics *engine.Metrics
}

func (o *Options) fill() {
	if o.Tech == nil {
		o.Tech = device.Default05um()
	}
	if o.Grid == nil {
		o.Grid = []float64{0.1e-9, 0.25e-9, 0.5e-9, 0.9e-9, 1.5e-9}
	}
	if o.Cells == nil {
		o.Cells = DefaultCells(o.Tech)
	}
	if o.TStep <= 0 {
		o.TStep = 2e-12
	}
	if o.SkewTol <= 0 {
		o.SkewTol = 4e-12
	}
	if o.Retries == 0 {
		o.Retries = 2
	} else if o.Retries < 0 {
		o.Retries = 0
	}
	if o.MaxDegradedFrac == 0 {
		o.MaxDegradedFrac = 0.25
	} else if o.MaxDegradedFrac < 0 {
		o.MaxDegradedFrac = 0
	}
	if o.Progress == nil {
		o.Progress = func(string, ...any) {}
	}
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
}

// Resolved returns a copy of the options with every default filled in, so
// callers (e.g. the CLI's campaign fingerprint) can observe the effective
// grid, cell set and solver settings of the run Characterize would perform.
func (o Options) Resolved() Options {
	o.fill()
	return o
}

// DefaultCells returns the default library cell set.
func DefaultCells(tech *device.Tech) []cells.Config {
	return []cells.Config{
		{Kind: cells.Inv, N: 1, Tech: tech, LoadInverter: true},
		{Kind: cells.NAND, N: 2, Tech: tech, LoadInverter: true},
		{Kind: cells.NAND, N: 3, Tech: tech, LoadInverter: true},
		{Kind: cells.NAND, N: 4, Tech: tech, LoadInverter: true},
		{Kind: cells.NOR, N: 2, Tech: tech, LoadInverter: true},
		{Kind: cells.NOR, N: 3, Tech: tech, LoadInverter: true},
	}
}

// FastOptions returns reduced-grid options suitable for tests: a 3-point
// grid and a minimal cell set.
func FastOptions() Options {
	tech := device.Default05um()
	return Options{
		Tech: tech,
		Grid: []float64{0.15e-9, 0.4e-9, 0.8e-9, 1.3e-9},
		Cells: []cells.Config{
			{Kind: cells.Inv, N: 1, Tech: tech, LoadInverter: true},
			{Kind: cells.NAND, N: 2, Tech: tech, LoadInverter: true},
			{Kind: cells.NOR, N: 2, Tech: tech, LoadInverter: true},
		},
		TStep: 3e-12,
	}
}

// measurement is one simulated (delay, output transition) sample.
type measurement struct {
	// delay runs from the earliest switching arrival for the
	// to-controlling response, from the latest for the to-non-controlling.
	delay float64
	trans float64
}

// characterizer carries shared state for one cell. The memo and inflight
// maps are guarded by mu: pair characterisation runs concurrently across
// ordered pairs, and (x, y) and (y, x) share testbenches, so a goroutine
// that misses the memo at a key another is simulating waits for that
// result instead of simulating it again.
type characterizer struct {
	opts Options
	cfg  cells.Config
	// ctx is the cell's fan-out context, threaded into every simulation.
	ctx context.Context

	mu sync.Mutex
	// memo caches every simulated characterisation point at the
	// reference load.
	memo map[point]measurement
	// inflight holds, for each point being simulated, a channel closed
	// when that simulation has finished (and, if it succeeded, is in memo).
	inflight map[point]chan struct{}
	// quality accumulates per-surface fit statistics (ns domain).
	quality map[string]core.FitQuality
	// health accumulates resilience bookkeeping: attempted points, retried
	// simulations and degraded (interpolated) points.
	health core.CellHealth
}

// point names one characterisation testbench: the response (ctrl for
// inputs switching towards the controlling value, else away from it), the
// switching pins x and y with their grid indices tx and ty, and y's arrival
// after x's in whole picoseconds. A negative y is pin x switching alone.
type point struct {
	ctrl   bool
	x, y   int
	tx, ty int // grid indices
	dps    int // skew in integer picoseconds
}

// single is the point of pin switching alone at grid index gi.
func single(ctrl bool, pin, gi int) point {
	return point{ctrl: ctrl, x: pin, y: -1, tx: gi}
}

// pair is the point of pins x and y switching at grid indices tx and ty,
// y skew seconds after x (skew may be negative).
func pair(ctrl bool, x, y, tx, ty int, skew float64) point {
	return point{ctrl: ctrl, x: x, y: y, tx: tx, ty: ty, dps: int(math.Round(skew / 1e-12))}
}

// Characterize runs the full characterisation and returns the fitted
// library.
func Characterize(opts Options) (*core.Library, error) {
	opts.fill()
	lib := &core.Library{
		TechName: opts.Tech.Name,
		Vdd:      opts.Tech.Vdd,
		Cells:    make(map[string]*core.CellModel),
	}
	// Characterise cells on the shared engine pool; each cell's harness
	// further fans out across its input pairs. Results land by index, so
	// any worker count yields an identical library.
	stop := opts.Metrics.StartTimer("characterize")
	defer stop()
	models := make([]*core.CellModel, len(opts.Cells))
	err := engine.Run(opts.Ctx, opts.Jobs, len(opts.Cells), func(ctx context.Context, i int) error {
		cfg := opts.Cells[i]
		if m, ok := opts.Completed[cfg.Name()]; ok && m != nil {
			// Journal replay: the cell already completed in a previous run
			// of this exact campaign. Reuse it verbatim; it was already
			// checkpointed when first characterised.
			models[i] = m
			opts.Metrics.Add(engine.CharCellsReused, 1)
			return nil
		}
		opts.Progress("characterizing %s", cfg.Name())
		// Safely labels a crash (e.g. an injected panic deep inside a
		// simulation) with the cell name; the bare pool-level recovery
		// would only report the goroutine.
		var m *core.CellModel
		if err := engine.Safely(func() error {
			var err error
			m, err = characterizeCell(ctx, opts, cfg)
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", cfg.Name(), err)
		}
		if opts.Checkpoint != nil {
			if err := opts.Checkpoint(m); err != nil {
				return fmt.Errorf("%s: checkpoint: %w", cfg.Name(), err)
			}
		}
		models[i] = m
		opts.Metrics.Add(engine.CharCells, 1)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("charlib: %w", err)
	}
	for _, m := range models {
		lib.Cells[m.Name] = m
	}
	if err := lib.Validate(); err != nil {
		return nil, err
	}
	return lib, nil
}

func characterizeCell(ctx context.Context, opts Options, cfg cells.Config) (*core.CellModel, error) {
	n := cfg.N
	if cfg.Kind == cells.Inv {
		n = 1
	}
	ch := &characterizer{
		opts:     opts,
		cfg:      cfg,
		ctx:      ctx,
		memo:     make(map[point]measurement),
		inflight: make(map[point]chan struct{}),
		quality:  make(map[string]core.FitQuality),
	}

	model := &core.CellModel{
		Name:          cfg.Name(),
		Kind:          cfg.Kind.String(),
		N:             n,
		CtrlOutRising: cfg.OutputRisesOnControlling(),
		RefLoad:       opts.Tech.InverterInputCap(),
	}

	// Per-pin single-transition fits, both response directions.
	for pin := 0; pin < n; pin++ {
		pt, err := ch.fitPin(pin, true)
		if err != nil {
			return nil, fmt.Errorf("pin %d ctrl: %w", pin, err)
		}
		model.CtrlPins = append(model.CtrlPins, pt)

		ptn, err := ch.fitPin(pin, false)
		if err != nil {
			return nil, fmt.Errorf("pin %d non-ctrl: %w", pin, err)
		}
		model.NonCtrlPins = append(model.NonCtrlPins, ptn)
	}

	if opts.SkipPairs {
		if err := ch.finish(model); err != nil {
			return nil, err
		}
		return model, nil
	}

	entries, err := ch.fitPairs(true)
	if err != nil {
		return nil, err
	}
	model.Pairs = append(model.Pairs, entries...)
	if opts.NCPairs {
		entries, err := ch.fitPairs(false)
		if err != nil {
			return nil, err
		}
		model.NCPairs = append(model.NCPairs, entries...)
	}

	// Multi-input speed-up factors for k = 3..n simultaneous inputs.
	if n >= 3 {
		if err := ch.fitMultiFactors(model); err != nil {
			return nil, fmt.Errorf("multi-input factors: %w", err)
		}
	}
	if err := ch.finish(model); err != nil {
		return nil, err
	}
	return model, nil
}

// record stores fit statistics for one characterised surface.
func (ch *characterizer) record(key string, st fit.Stats) {
	ch.mu.Lock()
	ch.quality[key] = core.FitQuality{RMS: st.RMS, Max: st.MaxAbs, R2: st.R2}
	ch.mu.Unlock()
}

// stimulusArrival is the fixed 50% arrival time of the reference input. It
// leaves room for the slowest characterised ramp (1.5 ns, spanning ~1.9 ns
// end to end) to start after t = 0.
const stimulusArrival = 1.2e-9

// drive returns a ramp towards the controlling value (falling for NAND/INV,
// rising for NOR) when ctrl, away from it otherwise.
func (ch *characterizer) drive(ctrl bool, arr, tt float64) cells.Drive {
	if ctrl == (ch.cfg.ControllingValue() == 1) {
		return cells.Rising(arr, tt)
	}
	return cells.Falling(arr, tt)
}

// steadyNonCtrl returns the steady drive at the non-controlling value.
func (ch *characterizer) steadyNonCtrl() cells.Drive {
	if ch.cfg.ControllingValue() == 0 {
		return cells.SteadyHigh(ch.opts.Tech)
	}
	return cells.SteadyLow()
}

func (ch *characterizer) numInputs() int {
	if ch.cfg.Kind == cells.Inv {
		return 1
	}
	return ch.cfg.N
}

// simulate runs one testbench with the given switching-pin drives (all other
// pins held at the non-controlling value) and measures the output's
// to-controlling response when ctrl, its to-non-controlling one otherwise,
// with extraLoad farads added. The delay runs from the earliest switching
// arrival for the to-controlling response and from the latest for the
// to-non-controlling one.
func (ch *characterizer) simulate(ctrl bool, drives map[int]cells.Drive, extraLoad float64) (measurement, error) {
	n := ch.numInputs()
	all := make([]cells.Drive, n)
	earliest, latest, maxTT := math.Inf(1), math.Inf(-1), 0.0
	for i := 0; i < n; i++ {
		d, ok := drives[i]
		if !ok {
			all[i] = ch.steadyNonCtrl()
			continue
		}
		all[i] = d
		earliest = math.Min(earliest, d.Arrival)
		latest = math.Max(latest, d.Arrival)
		maxTT = math.Max(maxTT, d.Trans)
	}
	cfg := ch.cfg
	cfg.ExtraLoadCap += extraLoad
	tr, err := ch.runSim(cfg, all, ch.cfg.OutputRisesOnControlling() == ctrl, latest, maxTT)
	if err != nil {
		return measurement{}, err
	}
	from := latest
	if ctrl {
		from = earliest
	}
	return measurement{delay: tr.Arrival - from, trans: tr.TransTime}, nil
}

// drives returns the switching-pin drives of point p: pin x at the reference
// arrival, pin y (when p is a pair) p.dps picoseconds later.
func (ch *characterizer) drives(p point) map[int]cells.Drive {
	ax, tx := stimulusArrival, ch.opts.Grid[p.tx]
	if p.y < 0 {
		return map[int]cells.Drive{p.x: ch.drive(p.ctrl, ax, tx)}
	}
	ay, ty := stimulusArrival+float64(p.dps)*1e-12, ch.opts.Grid[p.ty]
	// Both ramps must start after t = 0 with margin, or the DC operating
	// point would begin mid-transition. A ramp's 0%-100% sweep spans
	// T/0.8 centred on its arrival.
	if minStart := math.Min(ax-tx/0.8/2, ay-ty/0.8/2); minStart < 0.1e-9 {
		shift := 0.1e-9 - minStart
		ax += shift
		ay += shift
	}
	return map[int]cells.Drive{
		p.x: ch.drive(p.ctrl, ax, tx),
		p.y: ch.drive(p.ctrl, ay, ty),
	}
}

// measure simulates (and memoises) point p at the reference load. Each
// point is simulated once at any Jobs: a goroutine that finds p being
// simulated waits for it. A failed simulation is not memoised, so a waiter
// that then finds no result simulates p itself, as a serial run would.
func (ch *characterizer) measure(p point) (measurement, error) {
	if p.y >= 0 && p.x > p.y {
		// Canonical key, ordered by pin index, so both pin orders of a pair
		// hit the same simulation.
		p = point{ctrl: p.ctrl, x: p.y, y: p.x, tx: p.ty, ty: p.tx, dps: -p.dps}
	}
	for {
		ch.mu.Lock()
		if m, ok := ch.memo[p]; ok {
			ch.mu.Unlock()
			return m, nil
		}
		wait, busy := ch.inflight[p]
		if !busy {
			break // with mu held
		}
		ch.mu.Unlock()
		<-wait
	}
	done := make(chan struct{})
	ch.inflight[p] = done
	ch.mu.Unlock()
	defer func() {
		// Also on a panic, so no waiter blocks for good.
		ch.mu.Lock()
		delete(ch.inflight, p)
		ch.mu.Unlock()
		close(done)
	}()
	m, err := ch.simulate(p.ctrl, ch.drives(p), 0)
	if err != nil {
		return measurement{}, err
	}
	ch.mu.Lock()
	ch.memo[p] = m
	ch.mu.Unlock()
	return m, nil
}

// fitPin characterises one pin's single-transition timing functions for the
// to-controlling response (ctrl) or the to-non-controlling one.
//
// A grid sample whose simulation fails recoverably even after the retry
// ladder is dropped from the fit and recorded as degraded; at least three
// samples must survive for the quadratic fit to stay determined.
func (ch *characterizer) fitPin(pin int, ctrl bool) (core.PinTiming, error) {
	grid := ch.opts.Grid
	var tsNs, delaysNs, transNs []float64
	dir := "nc"
	if ctrl {
		dir = "ctrl"
	}
	surface := fmt.Sprintf("pin%d/%s", pin, dir)
	ch.notePoints(len(grid) + 1) // grid samples + the load-slope point

	for gi, tt := range grid {
		m, err := ch.measure(single(ctrl, pin, gi))
		if err != nil {
			if !spice.IsRecoverable(err) {
				return core.PinTiming{}, err
			}
			ch.noteDegraded(surface, tt, 0, err)
			continue
		}
		tsNs = append(tsNs, tt/1e-9)
		delaysNs = append(delaysNs, m.delay/1e-9)
		transNs = append(transNs, m.trans/1e-9)
	}
	if len(tsNs) < 3 {
		return core.PinTiming{}, fmt.Errorf("only %d of %d grid samples converged, quadratic fit needs 3", len(tsNs), len(grid))
	}

	var pt core.PinTiming
	var st fit.Stats
	var err error
	if pt.Delay, st, err = fit.FitQuad(tsNs, delaysNs); err != nil {
		return core.PinTiming{}, fmt.Errorf("delay fit: %w", err)
	}
	ch.record(surface+"/delay", st)
	if pt.Trans, st, err = fit.FitQuad(tsNs, transNs); err != nil {
		return core.PinTiming{}, fmt.Errorf("transition fit: %w", err)
	}
	ch.record(surface+"/trans", st)

	// Load slope (Section 3.6: delay increases linearly with load):
	// remeasure the middle grid point with one extra inverter-load of
	// capacitance.
	mid := single(ctrl, pin, len(grid)/2)
	extra := ch.opts.Tech.InverterInputCap()
	base, err := ch.measure(mid)
	if err == nil {
		var loaded measurement
		loaded, err = ch.simulate(ctrl, ch.drives(mid), extra)
		if err == nil {
			pt.DelayLoadSlope = (loaded.delay - base.delay) / extra
			pt.TransLoadSlope = (loaded.trans - base.trans) / extra
			return pt, nil
		}
	}
	if !spice.IsRecoverable(err) {
		return core.PinTiming{}, err
	}
	// Degrade to a zero load slope (the reference-load delay stays exact);
	// conservative only for loads above the reference.
	ch.noteDegraded(surface+"/load", grid[mid.tx], 0, err)
	return pt, nil
}

// fitPairs characterises the surfaces of every ordered input pair for one
// response on the engine pool (the simulations dominate; entries land by
// index, so the model is identical regardless of scheduling).
func (ch *characterizer) fitPairs(ctrl bool) ([]core.PairEntry, error) {
	label := "nc-pair"
	if ctrl {
		label = "pair"
	}
	n := ch.numInputs()
	var jobs [][2]int
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if x != y {
				jobs = append(jobs, [2]int{x, y})
			}
		}
	}
	entries := make([]core.PairEntry, len(jobs))
	err := engine.Run(ch.ctx, ch.opts.Jobs, len(jobs), func(_ context.Context, i int) error {
		x, y := jobs[i][0], jobs[i][1]
		ch.opts.Progress("  %s (%d,%d)", label, x, y)
		e, err := ch.fitPair(ctrl, x, y)
		if err != nil {
			return fmt.Errorf("%s (%d,%d): %w", label, x, y, err)
		}
		entries[i] = e
		return nil
	})
	return entries, err
}

// fitPair characterises the skew-shaped surfaces of ordered pair (x, y):
// D0/T0 at zero skew and the skew threshold SR by bisection for both
// responses, and for the to-controlling V also SKmin, the skew minimising
// the output transition over the sampled positive arm, whose transition
// becomes T0.
//
// The V's threshold is the skew at which the lagging transition on y no
// longer pulls the delay below pin x's single-input delay; the Λ's is the
// skew beyond which the earlier input x no longer slows the response to the
// later input y, whose single-input delay anchors the positive arm.
func (ch *characterizer) fitPair(ctrl bool, x, y int) (core.PairEntry, error) {
	grid := ch.opts.Grid

	// Each (Tx,Ty) grid cell needs an independent bisection of the skew
	// threshold — the deepest fan-out of the characterisation, run on the
	// engine pool. Rows land by index, so the fitted surfaces are
	// byte-identical to a serial sweep.
	name := fmt.Sprintf("pair%d:%d", x, y)
	if !ctrl {
		name = "nc" + name
	}
	type pairRow struct {
		d0, t0, sx, skmin float64
	}
	rows := make([]pairRow, len(grid)*len(grid))
	ch.notePoints(len(rows))
	// failed marks grid cells whose simulations never converged; they are
	// interpolated from neighbours after the fan-out. rowErrs keeps the
	// failure causes for the health record.
	failed := make([]bool, len(rows))
	rowErrs := make([]error, len(rows))
	err := engine.Run(ch.ctx, ch.opts.Jobs, len(rows), func(_ context.Context, i int) error {
		txIdx, tyIdx := i/len(grid), i%len(grid)
		row, err := func() (pairRow, error) {
			ref := single(ctrl, x, txIdx)
			if !ctrl {
				ref = single(ctrl, y, tyIdx)
			}
			arm, err := ch.measure(ref)
			if err != nil {
				return pairRow{}, err
			}
			m0, err := ch.measure(pair(ctrl, x, y, txIdx, tyIdx, 0))
			if err != nil {
				return pairRow{}, err
			}
			sx, samples, err := ch.findSkewThreshold(ctrl, x, y, txIdx, tyIdx, arm.delay)
			if err != nil {
				return pairRow{}, err
			}
			if !ctrl {
				return pairRow{d0: m0.delay, t0: m0.trans, sx: sx}, nil
			}
			samples = append(samples, sample{skew: 0, trans: m0.trans})
			skMin, tMin := argminTrans(samples)
			return pairRow{d0: m0.delay, t0: tMin, sx: sx, skmin: skMin}, nil
		}()
		if err != nil {
			if !spice.IsRecoverable(err) {
				return err
			}
			failed[i] = true
			rowErrs[i] = err
			return nil
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return core.PairEntry{}, err
	}

	var txsNs, tysNs []float64
	var d0Ns, t0Ns, sxNs, skminNs []float64
	for i, row := range rows {
		txIdx, tyIdx := i/len(grid), i%len(grid)
		txsNs = append(txsNs, grid[txIdx]/1e-9)
		tysNs = append(tysNs, grid[tyIdx]/1e-9)
		d0Ns = append(d0Ns, row.d0/1e-9)
		t0Ns = append(t0Ns, row.t0/1e-9)
		sxNs = append(sxNs, row.sx/1e-9)
		skminNs = append(skminNs, row.skmin/1e-9)
	}
	if err := interpolateGrid(len(grid), failed, d0Ns, t0Ns, sxNs, skminNs); err != nil {
		return core.PairEntry{}, fmt.Errorf("%s: %w", name, err)
	}
	for i, f := range failed {
		if f {
			ch.noteDegraded(name, grid[i/len(grid)], grid[i%len(grid)], rowErrs[i])
		}
	}

	fitCross := fit.FitCross
	if ch.opts.PaperExactD0 {
		fitCross = fit.FitCrossPaper
	}
	e := core.PairEntry{X: x, Y: y}
	var st fit.Stats
	if e.Timing.D0, st, err = fitCross(txsNs, tysNs, d0Ns); err != nil {
		return core.PairEntry{}, fmt.Errorf("D0 fit: %w", err)
	}
	ch.record(name+"/D0", st)
	if e.Timing.T0, st, err = fitCross(txsNs, tysNs, t0Ns); err != nil {
		return core.PairEntry{}, fmt.Errorf("T0 fit: %w", err)
	}
	ch.record(name+"/T0", st)
	if e.Timing.SX, st, err = fit.FitQuad2(txsNs, tysNs, sxNs); err != nil {
		return core.PairEntry{}, fmt.Errorf("SR fit: %w", err)
	}
	ch.record(name+"/SR", st)
	if ctrl {
		if e.Timing.SKmin, st, err = fit.FitQuad2(txsNs, tysNs, skminNs); err != nil {
			return core.PairEntry{}, fmt.Errorf("SKmin fit: %w", err)
		}
		ch.record(name+"/SKmin", st)
	}
	return e, nil
}

type sample struct {
	skew  float64
	trans float64
}

// argminTrans returns the sampled (skew, output transition time) with the
// smallest transition time; ties keep the earliest sample.
func argminTrans(samples []sample) (skew, trans float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	best := 0
	for i := range samples {
		if samples[i].trans < samples[best].trans {
			best = i
		}
	}
	return samples[best].skew, samples[best].trans
}

// findSkewThreshold locates the skew threshold δ = Ay−Ax of ordered pair
// (x, y) at grid cell (txIdx, tyIdx): the smallest skew at which the pair's
// delay settles on the single-input delay arm. The V settles once the delay
// is no longer more than ε below it (ε = max(2%, 2 ps)); the Λ once the delay
// is within ε of it (ε = max(4%, 3 ps)). It returns the threshold and the
// (skew, transition-time) samples collected along the way.
func (ch *characterizer) findSkewThreshold(ctrl bool, x, y, txIdx, tyIdx int, arm float64) (float64, []sample, error) {
	eps, hiLimit := math.Max(0.02*math.Abs(arm), 2e-12), 16e-9
	if !ctrl {
		eps, hiLimit = math.Max(0.04*math.Abs(arm), 3e-12), 8e-9
	}
	var samples []sample

	probe := func(skew float64) (bool, error) {
		m, err := ch.measure(pair(ctrl, x, y, txIdx, tyIdx, skew))
		if err != nil {
			return false, err
		}
		samples = append(samples, sample{skew: skew, trans: m.trans})
		if ctrl {
			return m.delay >= arm-eps, nil
		}
		return math.Abs(m.delay-arm) <= eps, nil
	}

	// Exponentially grow the bracket until the threshold is passed.
	hi := 0.25e-9
	for {
		done, err := probe(hi)
		if err != nil {
			return 0, nil, err
		}
		if done {
			break
		}
		hi *= 2
		if hi > hiLimit {
			// The influence never dies out within a sane window;
			// record the cap.
			return hiLimit, samples, nil
		}
	}

	lo := 0.0
	for hi-lo > ch.opts.SkewTol {
		mid := (lo + hi) / 2
		done, err := probe(mid)
		if err != nil {
			return 0, nil, err
		}
		if done {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, samples, nil
}

// fitMultiFactors characterises the k-way simultaneous speed-up factors
// (extended model) for k = 3..N at the middle grid transition time.
func (ch *characterizer) fitMultiFactors(model *core.CellModel) error {
	grid := ch.opts.Grid
	midIdx := len(grid) / 2
	tt := grid[midIdx]

	for k := 3; k <= model.N; k++ {
		drives := make(map[int]cells.Drive, k)
		var events []core.InputEvent
		for pin := 0; pin < k; pin++ {
			drives[pin] = ch.drive(true, stimulusArrival, tt)
			events = append(events, core.InputEvent{Pin: pin, Arrival: stimulusArrival, Trans: tt})
		}
		ch.notePoints(1)
		meas, err := ch.simulate(true, drives, 0)
		if err != nil {
			if !spice.IsRecoverable(err) {
				return err
			}
			// Conservative fallback: carry the previous factor forward
			// (or no speed-up at all), preserving the non-increasing
			// sequence the STA bound relies on.
			factor := 1.0
			if ln := len(model.MultiFactor); ln > 0 {
				factor = model.MultiFactor[ln-1]
			}
			ch.noteDegraded(fmt.Sprintf("multi%d", k), tt, 0, err)
			model.MultiFactor = append(model.MultiFactor, factor)
			continue
		}
		// Pairwise model prediction without multi factors.
		saved := model.MultiFactor
		model.MultiFactor = nil
		pred, err := model.CtrlResponse(events, 0)
		model.MultiFactor = saved
		if err != nil {
			return err
		}
		predDelay := pred.Arrival - stimulusArrival
		factor := 1.0
		if predDelay > 0 {
			factor = meas.delay / predDelay
		}
		if factor > 1 {
			factor = 1
		}
		if factor < 0.1 {
			factor = 0.1
		}
		// More parallel charge paths can only speed the gate up:
		// keep the factor sequence non-increasing in k so the STA
		// lower bound at k = n covers every smaller k.
		if ln := len(model.MultiFactor); ln > 0 && factor > model.MultiFactor[ln-1] {
			factor = model.MultiFactor[ln-1]
		}
		model.MultiFactor = append(model.MultiFactor, factor)
	}
	return nil
}
