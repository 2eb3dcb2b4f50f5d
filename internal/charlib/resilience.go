package charlib

import (
	"errors"
	"fmt"
	"sort"

	"sstiming/internal/cells"
	"sstiming/internal/core"
	"sstiming/internal/engine"
	"sstiming/internal/spice"
	"sstiming/internal/waveform"
)

// This file holds the characterisation harness's resilience machinery: the
// per-simulation retry ladder with tightened solver settings, the health
// bookkeeping behind core.CellHealth, and the neighbour interpolation that
// gracefully degrades grid points whose simulations never converge.

// runSim runs one testbench simulation with the retry ladder: attempt 0 uses
// the unmodified settings (so a clean run is byte-identical to a harness
// without the ladder); each further attempt halves the integration step and
// doubles the Newton budget, retrying only recoverable solver failures
// (non-convergence, numerical blow-up). Every attempt gets a fresh fault
// hook, matching the one-hook-per-transient injection contract.
func (ch *characterizer) runSim(cfg cells.Config, all []cells.Drive, outRising bool, latest, maxTT float64) (waveform.Transition, error) {
	ch.opts.Metrics.Add(engine.CharJobs, 1)
	var lastErr error
	for attempt := 0; attempt <= ch.opts.Retries; attempt++ {
		so := cells.SimOptions{
			TStop:   latest + maxTT + 2.5e-9,
			TStep:   ch.opts.TStep,
			Method:  spice.Trapezoidal,
			Ctx:     ch.ctx,
			Metrics: ch.opts.Metrics,
		}
		if ch.opts.NewFaultHook != nil {
			so.FaultHook = ch.opts.NewFaultHook()
		}
		if attempt > 0 {
			so.TStep = ch.opts.TStep / float64(int(1)<<attempt)
			so.MaxNewton = 60 << attempt
			ch.opts.Metrics.Add(engine.CharRetries, 1)
		}
		tr, err := cfg.MeasureResponse(all, outRising, so)
		if err == nil {
			if attempt > 0 {
				ch.mu.Lock()
				ch.health.Retried++
				ch.mu.Unlock()
			}
			return tr, nil
		}
		lastErr = err
		if !spice.IsRecoverable(err) {
			return waveform.Transition{}, err
		}
	}
	return waveform.Transition{}, lastErr
}

// notePoints counts attempted characterisation points towards the health
// record (the denominator of the degradation budget).
func (ch *characterizer) notePoints(n int) {
	ch.mu.Lock()
	ch.health.Points += n
	ch.mu.Unlock()
}

// noteDegraded records one characterisation point that was replaced by an
// interpolated or conservative value after all retries failed.
func (ch *characterizer) noteDegraded(surface string, tx, ty float64, reason error) {
	ch.opts.Metrics.Add(engine.CharDegraded, 1)
	ch.mu.Lock()
	ch.health.Degraded = append(ch.health.Degraded, core.DegradedPoint{
		Surface: surface,
		Tx:      tx,
		Ty:      ty,
		Reason:  reason.Error(),
	})
	ch.mu.Unlock()
}

// finish attaches the quality and (when non-clean) health records to the
// model and enforces the degradation budget. The health record is attached
// only when something actually went wrong, so a clean characterisation
// serialises byte-identically to a harness without resilience.
func (ch *characterizer) finish(model *core.CellModel) error {
	model.Quality = ch.quality
	if ch.health.Retried == 0 && len(ch.health.Degraded) == 0 {
		return nil
	}
	h := ch.health
	// Concurrent pair jobs append degraded points in scheduling order;
	// sort for a deterministic artefact.
	sort.Slice(h.Degraded, func(i, j int) bool {
		a, b := h.Degraded[i], h.Degraded[j]
		if a.Surface != b.Surface {
			return a.Surface < b.Surface
		}
		if a.Tx != b.Tx {
			return a.Tx < b.Tx
		}
		return a.Ty < b.Ty
	})
	model.Health = &h
	if frac := h.DegradedFrac(); frac > ch.opts.MaxDegradedFrac {
		return fmt.Errorf("charlib: %d of %d characterisation points degraded (%.1f%%), budget is %.1f%%",
			len(h.Degraded), h.Points, 100*frac, 100*ch.opts.MaxDegradedFrac)
	}
	return nil
}

// ErrDegradedBudget marks a library holding a cell whose degraded-point
// fraction exceeds the per-cell budget.
var ErrDegradedBudget = errors.New("charlib: degraded points over budget")

// CheckDegradedBudget fails, naming the first such cell in name order, when
// any cell's degraded-point fraction exceeds budget (the resolved
// Options.MaxDegradedFrac). Publishers call it before writing anything:
// cells replayed from a journal or reused from a campaign directory were
// characterised under whatever budget that run had, so Characterize's own
// per-cell check does not cover them. Cells without a health record (clean
// ones, analytic fallbacks) always pass.
func CheckDegradedBudget(lib *core.Library, budget float64) error {
	names := make([]string, 0, len(lib.Cells))
	for name := range lib.Cells {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if frac := lib.Cells[name].Health.DegradedFrac(); frac > budget {
			return fmt.Errorf("%w: cell %s has %.1f%% of points degraded, budget %.1f%% (-max-degraded)",
				ErrDegradedBudget, name, 100*frac, 100*budget)
		}
	}
	return nil
}

// interpolateGrid fills failed cells of the n×n characterisation lattice from
// the average of their converged 4-neighbours, in progressive passes so an
// isolated island of failures can still be filled from its rim. All value
// surfaces share the failure mask (row-major, like the fitPair rows). It
// returns an error when failures remain that no pass can reach — i.e. no
// converged point exists at all.
func interpolateGrid(n int, failed []bool, surfaces ...[]float64) error {
	ok := make([]bool, len(failed))
	for i, f := range failed {
		ok[i] = !f
	}
	remaining := 0
	for _, f := range failed {
		if f {
			remaining++
		}
	}
	for remaining > 0 {
		// Fill from a snapshot of the converged set so the result is
		// independent of cell visit order within a pass.
		snap := append([]bool(nil), ok...)
		progress := false
		for i := 0; i < n*n; i++ {
			if ok[i] {
				continue
			}
			r, c := i/n, i%n
			var neighbors []int
			if r > 0 && snap[i-n] {
				neighbors = append(neighbors, i-n)
			}
			if r < n-1 && snap[i+n] {
				neighbors = append(neighbors, i+n)
			}
			if c > 0 && snap[i-1] {
				neighbors = append(neighbors, i-1)
			}
			if c < n-1 && snap[i+1] {
				neighbors = append(neighbors, i+1)
			}
			if len(neighbors) == 0 {
				continue
			}
			for _, vals := range surfaces {
				sum := 0.0
				for _, j := range neighbors {
					sum += vals[j]
				}
				vals[i] = sum / float64(len(neighbors))
			}
			ok[i] = true
			remaining--
			progress = true
		}
		if !progress {
			return fmt.Errorf("charlib: %d grid points unconverged with no converged neighbours to interpolate from", remaining)
		}
	}
	return nil
}
