// Package conformance is the repo's differential verification subsystem: it
// cross-checks every timing oracle the reproduction owns against the others
// on randomly generated circuits and stimulus, seed by seed.
//
// The oracle hierarchy (strongest to weakest, see DESIGN.md "Verification
// strategy") is
//
//	SPICE → flatsim → logicsim → STA → ITR
//
// and each boundary carries an explicit invariant:
//
//   - gate-level timing simulation must track the flattened
//     transistor-level simulation within a stated tolerance (the paper's
//     central ~4% accuracy claim, generalised from fixed benches to random
//     topologies);
//   - STA min-max windows must *contain* every event either simulator can
//     produce (window soundness, Section 4);
//   - ITR-refined windows must be subsets of the STA windows and still
//     contain every event consistent with the refining cube (refinement
//     soundness, Section 5);
//   - the delay model itself must keep the structural properties the paper
//     proves or assumes: dR(δ) is V-shaped piecewise-linear in skew with its
//     minimum at zero skew (Claim 1), every timing function is monotonic or
//     bi-tonic in each argument (the corner-identifiability precondition of
//     Section 4.2), and simultaneous switching never predicts a *slower*
//     to-controlling response than the pin-to-pin model.
//
// Each invariant is a Check value; a campaign fans the seeds out on the
// shared engine pool, and any violation is shrunk to a minimal (circuit,
// vector-pair) counterexample before being reported.
package conformance

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"sstiming/internal/benchgen"
	"sstiming/internal/core"
	"sstiming/internal/engine"
	"sstiming/internal/flatsim"
	"sstiming/internal/logicsim"
	"sstiming/internal/netlist"
	"sstiming/internal/spice"
	"sstiming/internal/sta"
)

// Tolerances bounds the acceptable disagreement of each check family.
// Zero fields select the defaults.
type Tolerances struct {
	// Window is the slack (seconds) allowed on window containment and
	// subset comparisons; it absorbs float noise, not model error.
	// Default 2 ps.
	Window float64
	// FlatAbs and FlatRel bound the gate-level vs transistor-level
	// arrival disagreement: a comparison fails only when BOTH are
	// exceeded (small absolute errors on tiny delays produce huge
	// relative ones and vice versa). Defaults 120 ps and 0.45.
	FlatAbs float64
	FlatRel float64
	// FlatWindow is the extra slack (seconds) allowed when checking
	// transistor-level events against STA windows, which are computed
	// from the fitted model and so inherit its error. Default 120 ps.
	FlatWindow float64
	// FlatPerStage is additional flat-vs-STA slack per logic level of the
	// checked net: the fitted model's error accumulates along a path, and
	// the gate-level buffer approximation (one inverter delay for a
	// two-inverter structure) contributes up to one inverter delay per
	// stage. Default 70 ps.
	FlatPerStage float64
	// Model is the slack (seconds) for model-structure identities
	// (V-shape linearity, saturation, corner rules). Default 1 fs.
	Model float64
}

func (t *Tolerances) fill() {
	if t.Window <= 0 {
		t.Window = 2e-12
	}
	if t.FlatAbs <= 0 {
		t.FlatAbs = 120e-12
	}
	if t.FlatRel <= 0 {
		t.FlatRel = 0.45
	}
	if t.FlatWindow <= 0 {
		t.FlatWindow = 120e-12
	}
	if t.FlatPerStage <= 0 {
		t.FlatPerStage = 70e-12
	}
	if t.Model <= 0 {
		t.Model = 1e-15
	}
}

// simTrials is the number of random vector pairs simulated per seed for the
// gate-level checks.
const simTrials = 4

// Options configures a campaign.
type Options struct {
	// Lib is the characterised cell library (required).
	Lib *core.Library
	// Seeds lists the campaign seeds; each seed generates one random
	// circuit and stimulus set. See SeedRange.
	Seeds []int64
	// Jobs bounds the engine worker pool fanning out over seeds; zero
	// selects GOMAXPROCS, one runs serially. Results are independent of
	// the worker count.
	Jobs int
	// Tol bounds acceptable disagreement; zero fields take defaults.
	Tol Tolerances
	// Checks filters the checks run, by name; nil runs all of them.
	Checks []string
	// FlatTrials is the number of vector pairs per seed additionally
	// simulated at transistor level (the expensive oracle); zero selects
	// 1. Negative disables flattened simulation entirely.
	FlatTrials int
	// NCExtension enables the Section 3.6 Λ-shape extension on both
	// sides of every gate-level comparison.
	NCExtension bool
	// MaxShrink bounds the number of re-simulations spent minimising one
	// counterexample; zero selects 48.
	MaxShrink int
	// Ctx, when non-nil, cancels the campaign between seeds.
	Ctx context.Context
	// NewFaultHook, when non-nil, supplies one solver fault-injection hook
	// per flattened transient (see internal/faultinject.Plan.NextHook).
	// Chaos testing only; production campaigns leave it nil.
	NewFaultHook func() spice.FaultHook
	// Metrics, when non-nil, accumulates campaign counters.
	Metrics *engine.Metrics
}

func (o *Options) fill() {
	o.Tol.fill()
	if len(o.Seeds) == 0 {
		o.Seeds = SeedRange(10, 1)
	}
	if o.FlatTrials == 0 {
		o.FlatTrials = 1
	}
	if o.MaxShrink <= 0 {
		o.MaxShrink = 48
	}
}

// SeedRange returns n consecutive seeds starting at base.
func SeedRange(n int, base int64) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = base + int64(i)
	}
	return seeds
}

// Violation is one invariant failure, shrunk to a minimal counterexample.
type Violation struct {
	// Check is the violated check's name.
	Check string
	// Seed is the campaign seed that produced the counterexample.
	Seed int64
	// Net is the line the violation was observed on (empty for
	// model-structure checks, which report a cell instead).
	Net string
	// Detail is the human-readable description of the disagreement.
	Detail string
	// Bench is the minimal circuit in .bench format (empty for
	// model-structure checks).
	Bench string
	// V1 and V2 are the minimal two-frame stimulus, formatted as
	// "pi:ab" pairs (empty when no stimulus is involved).
	V1, V2 string
}

// String formats the violation as a multi-line report block.
func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (seed %d)", v.Check, v.Seed)
	if v.Net != "" {
		fmt.Fprintf(&b, " net %s", v.Net)
	}
	fmt.Fprintf(&b, ": %s", v.Detail)
	if v.V1 != "" {
		fmt.Fprintf(&b, "\n  vectors: v1 = %s\n           v2 = %s", v.V1, v.V2)
	}
	if v.Bench != "" {
		b.WriteString("\n  circuit:\n")
		for _, line := range strings.Split(strings.TrimRight(v.Bench, "\n"), "\n") {
			b.WriteString("    " + line + "\n")
		}
	}
	return b.String()
}

// CheckStat aggregates one check's campaign-wide effort.
type CheckStat struct {
	// Checked counts individual comparisons (events, windows or samples).
	Checked int
	// Violations counts failed comparisons (after deduplication per
	// seed/net).
	Violations int
	// Skipped counts comparisons abandoned for structural reasons, e.g.
	// a generated circuit too large for the flattened oracle.
	Skipped int
}

// Report is the outcome of a campaign.
type Report struct {
	// Seeds is the number of seeds executed.
	Seeds int
	// Checks lists the executed check names, in canonical order.
	Checks []string
	// Stats maps check name to its aggregate effort.
	Stats map[string]*CheckStat
	// Violations holds every shrunk counterexample, ordered by
	// (seed, check, net).
	Violations []Violation
}

// Passed reports whether the campaign found no violations.
func (r *Report) Passed() bool { return len(r.Violations) == 0 }

// WriteText renders the report; at most maxViolations counterexamples are
// printed in full (non-positive means all).
func (r *Report) WriteText(w io.Writer, maxViolations int) error {
	width := 0
	for _, name := range r.Checks {
		if len(name) > width {
			width = len(name)
		}
	}
	fmt.Fprintf(w, "conformance: %d seeds\n", r.Seeds)
	for _, name := range r.Checks {
		st := r.Stats[name]
		status := "ok"
		if st.Violations > 0 {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  %-*s %-4s %7d checked", width, name, status, st.Checked)
		if st.Violations > 0 {
			fmt.Fprintf(w, ", %d violations", st.Violations)
		}
		if st.Skipped > 0 {
			fmt.Fprintf(w, ", %d skipped", st.Skipped)
		}
		fmt.Fprintln(w)
	}
	n := len(r.Violations)
	if maxViolations > 0 && n > maxViolations {
		n = maxViolations
	}
	for _, v := range r.Violations[:n] {
		fmt.Fprintf(w, "\n%s", v.String())
	}
	if n < len(r.Violations) {
		fmt.Fprintf(w, "\n... and %d more violations\n", len(r.Violations)-n)
	}
	return nil
}

// Run executes the campaign: every seed generates a random circuit and
// stimulus, runs the selected checks, and shrinks any failure. Seeds fan
// out on the engine pool; the assembled report is independent of Jobs.
func Run(opts Options) (*Report, error) {
	if opts.Lib == nil {
		return nil, fmt.Errorf("conformance: Options.Lib is required")
	}
	opts.fill()
	checks, err := selectChecks(opts.Checks)
	if err != nil {
		return nil, err
	}
	stop := opts.Metrics.StartTimer("conformance/run")
	defer stop()

	results := make([]*seedEnv, len(opts.Seeds))
	err = engine.Run(opts.Ctx, opts.Jobs, len(opts.Seeds), func(ctx context.Context, i int) error {
		e := newSeedEnv(&opts, opts.Seeds[i])
		e.ctx = ctx
		opts.Metrics.Add(engine.ConfSeeds, 1)
		for _, ck := range checks {
			opts.Metrics.Add(engine.ConfChecks, 1)
			if err := ck.run(e); err != nil {
				return fmt.Errorf("conformance: seed %d, check %s: %w", e.seed, ck.Name, err)
			}
		}
		results[i] = e
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{Seeds: len(opts.Seeds), Stats: make(map[string]*CheckStat)}
	for _, ck := range checks {
		rep.Checks = append(rep.Checks, ck.Name)
		rep.Stats[ck.Name] = &CheckStat{}
	}
	for _, e := range results {
		for name, st := range e.stats {
			agg := rep.Stats[name]
			agg.Checked += st.Checked
			agg.Violations += st.Violations
			agg.Skipped += st.Skipped
		}
		rep.Violations = append(rep.Violations, e.violations...)
	}
	sort.SliceStable(rep.Violations, func(i, j int) bool {
		a, b := rep.Violations[i], rep.Violations[j]
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Net < b.Net
	})
	opts.Metrics.Add(engine.ConfViolations, int64(len(rep.Violations)))
	return rep, nil
}

// seedEnv carries one seed's lazily computed artefacts and its share of the
// report. A seedEnv is confined to one campaign worker, so no locking.
type seedEnv struct {
	opts *Options
	seed int64
	lib  *core.Library
	tol  Tolerances
	// ctx is the campaign worker's context, threaded into the flattened
	// transistor-level simulations (the longest-running solver calls).
	ctx context.Context

	stats      map[string]*CheckStat
	violations []Violation

	c    *netlist.Circuit
	cErr error
	vecs [][2]logicsim.Vector
	sims map[sta.Mode][]*logicsim.Result
	stas map[sta.Mode]*sta.Result

	// Flattened transistor-level results (see seedEnv.flat in checks.go):
	// a nil entry with a nil error is a skipped oversized trial.
	flats    []*flatsim.Result
	flatErrs []error
	flatDone bool
}

func newSeedEnv(opts *Options, seed int64) *seedEnv {
	return &seedEnv{
		opts:  opts,
		seed:  seed,
		lib:   opts.Lib,
		tol:   opts.Tol,
		stats: make(map[string]*CheckStat),
		sims:  make(map[sta.Mode][]*logicsim.Result),
		stas:  make(map[sta.Mode]*sta.Result),
	}
}

// rng returns a fresh deterministic source for one purpose ("salt") of this
// seed, so adding a consumer never perturbs the streams of the others.
func (e *seedEnv) rng(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1000003 + salt))
}

func (e *seedEnv) stat(check string) *CheckStat {
	st := e.stats[check]
	if st == nil {
		st = &CheckStat{}
		e.stats[check] = st
	}
	return st
}

func (e *seedEnv) skip(check string, n int) {
	e.stat(check).Skipped += n
	e.opts.Metrics.Add(engine.ConfSkipped, int64(n))
}

func (e *seedEnv) report(v Violation) {
	v.Seed = e.seed
	e.stat(v.Check).Violations++
	e.violations = append(e.violations, v)
}

// circuit generates (once) the seed's random circuit.
func (e *seedEnv) circuit() (*netlist.Circuit, error) {
	if e.c == nil && e.cErr == nil {
		rng := e.rng(1)
		p := benchgen.RandomProfile(fmt.Sprintf("conf%d", e.seed), rng)
		e.c, e.cErr = benchgen.GenerateRand(p, rng)
	}
	return e.c, e.cErr
}

// vectors draws (once) the seed's simTrials random vector pairs.
func (e *seedEnv) vectors() ([][2]logicsim.Vector, error) {
	if e.vecs != nil {
		return e.vecs, nil
	}
	c, err := e.circuit()
	if err != nil {
		return nil, err
	}
	rng := e.rng(2)
	e.vecs = make([][2]logicsim.Vector, simTrials)
	for i := range e.vecs {
		e.vecs[i] = [2]logicsim.Vector{
			logicsim.RandomVector(c, rng.Intn),
			logicsim.RandomVector(c, rng.Intn),
		}
	}
	return e.vecs, nil
}

// sim runs (once per mode) the gate-level timing simulation of every trial.
func (e *seedEnv) sim(mode sta.Mode) ([]*logicsim.Result, error) {
	if rs, ok := e.sims[mode]; ok {
		return rs, nil
	}
	c, err := e.circuit()
	if err != nil {
		return nil, err
	}
	vecs, err := e.vectors()
	if err != nil {
		return nil, err
	}
	rs := make([]*logicsim.Result, len(vecs))
	for i, vp := range vecs {
		rs[i], err = logicsim.Simulate(c, vp[0], vp[1], logicsim.Options{
			Lib: e.lib, Mode: mode, NCExtension: e.opts.NCExtension,
		})
		if err != nil {
			return nil, err
		}
	}
	e.sims[mode] = rs
	return rs, nil
}

// staResult runs (once per mode) the window propagation.
func (e *seedEnv) staResult(mode sta.Mode) (*sta.Result, error) {
	if r, ok := e.stas[mode]; ok {
		return r, nil
	}
	c, err := e.circuit()
	if err != nil {
		return nil, err
	}
	r, err := sta.Analyze(c, sta.Options{Lib: e.lib, Mode: mode, NCExtension: e.opts.NCExtension})
	if err != nil {
		return nil, err
	}
	e.stas[mode] = r
	return r, nil
}

// formatVector renders a vector pair compactly in PI order.
func formatVectors(c *netlist.Circuit, v1, v2 logicsim.Vector) (string, string) {
	var a, b strings.Builder
	for i, pi := range c.PIs {
		if i > 0 {
			a.WriteByte(' ')
			b.WriteByte(' ')
		}
		fmt.Fprintf(&a, "%s:%d", pi, v1[pi])
		fmt.Fprintf(&b, "%s:%d", pi, v2[pi])
	}
	return a.String(), b.String()
}

// benchText renders a circuit as .bench source.
func benchText(c *netlist.Circuit) string {
	var b strings.Builder
	if err := c.Write(&b); err != nil {
		return fmt.Sprintf("# write failed: %v", err)
	}
	return b.String()
}
