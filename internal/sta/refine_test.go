package sta

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/nineval"
	"sstiming/internal/prechar"
)

// seededCube assigns about a third of the primary inputs a random
// rising, steady-1, falling or steady-0 value and leaves the rest
// unspecified.
func seededCube(pis []string, seed int64) nineval.Cube {
	rng := rand.New(rand.NewSource(seed))
	vals := []nineval.Value{nineval.V01, nineval.V11, nineval.V10, nineval.V00}
	cube := nineval.Cube{}
	for _, pi := range pis {
		if rng.Intn(3) == 0 {
			cube[pi] = vals[rng.Intn(len(vals))]
		}
	}
	return cube
}

// TestRefinedResultReadsDefinedDirectionsOnly: on refined c432 results,
// the PO arrival extrema and the worst path consider only directions that
// can still transition, and no critical path steps onto an input
// direction whose state is SNo. The Λ-shape extension makes some latest
// arrivals match no single input's candidate exactly, which is where an
// impossible input could otherwise come closest.
func TestRefinedResultReadsDefinedDirectionsOnly(t *testing.T) {
	lib := prechar.MustLibrary()
	c, err := benchgen.Load("c432")
	if err != nil {
		t.Fatal(err)
	}
	undefined := 0
	for seed := int64(0); seed < 8; seed++ {
		res, err := Refine(c, seededCube(c.PIs, seed), Options{Lib: lib, Mode: ModeProposed, NCExtension: true})
		if err != nil {
			continue // an inconsistent cube
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, po := range c.POs {
			for _, rising := range []bool{true, false} {
				w, ok := res.Window(po, rising)
				if !ok {
					undefined++
					if _, err := res.CriticalPath(po, rising); err == nil {
						t.Errorf("seed %d: CriticalPath(%s, rising=%v) on an undefined direction succeeded", seed, po, rising)
					}
					continue
				}
				lo, hi = math.Min(lo, w.AS), math.Max(hi, w.AL)
				path, err := res.CriticalPath(po, rising)
				if err != nil {
					t.Fatalf("seed %d: CriticalPath(%s, rising=%v): %v", seed, po, rising, err)
				}
				for _, st := range path {
					if _, ok := res.Window(st.Net, st.Rising); !ok {
						t.Errorf("seed %d: path to %s steps onto undefined %s (rising=%v): %s", seed, po, st.Net, st.Rising, FormatPath(path))
						break
					}
				}
			}
		}
		if math.IsInf(hi, -1) {
			continue // no PO can transition
		}
		if got := res.MinPOArrival(); got != lo {
			t.Errorf("seed %d: MinPOArrival = %g, want %g over defined directions", seed, got, lo)
		}
		if got := res.MaxPOArrival(); got != hi {
			t.Errorf("seed %d: MaxPOArrival = %g, want %g over defined directions", seed, got, hi)
		}
		path, err := res.WorstPath()
		if err != nil {
			t.Fatal(err)
		}
		if last := path[len(path)-1]; last.Arrival != hi {
			t.Errorf("seed %d: worst path ends at %g, want %g: %s", seed, last.Arrival, hi, FormatPath(path))
		}
	}
	if undefined == 0 {
		t.Fatal("no cube left a PO direction undefined")
	}
}

// TestRefineCubeOfAnalyzeIsEmpty: Analyze's result carries the empty cube,
// Refine's the implied one.
func TestRefineCubeOfAnalyzeIsEmpty(t *testing.T) {
	lib := prechar.MustLibrary()
	c := benchgen.C17()
	sres, err := Analyze(c, Options{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	if len(sres.Cube) != 0 {
		t.Errorf("Analyze cube = %s, want empty", sres.Cube)
	}
	rres, err := Refine(c, nineval.Cube{"1": nineval.V11, "3": nineval.V11}, Options{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	if rres.Cube["10"] != nineval.V00 {
		t.Errorf("Refine cube = %s, want 10=00 implied", rres.Cube)
	}
}

// memoCases analyzes c880 and returns two constraints with violations.
func memoCases(t *testing.T) (*Result, []Constraint) {
	t.Helper()
	c, err := benchgen.Load("c880")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(c, Options{Lib: prechar.MustLibrary(), Mode: ModeProposed})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := res.MinPOArrival(), res.MaxPOArrival()
	return res, []Constraint{
		{MinTime: 1.05 * lo, MaxTime: 0.95 * hi},
		{MinTime: 0.5 * lo, MaxTime: 0.8 * hi},
	}
}

// TestRequiredMemoConcurrent: goroutines sharing one Result and switching
// between two constraints get exactly a fresh result's answers (run under
// -race by make race).
func TestRequiredMemoConcurrent(t *testing.T) {
	res, conss := memoCases(t)
	type answer struct {
		req   map[string]*LineRequired
		viols []Violation
	}
	want := make([]answer, len(conss))
	for i, cons := range conss {
		fresh := &Result{Circuit: res.Circuit, Mode: res.Mode, Lines: res.Lines, snap: res.snap}
		want[i] = answer{fresh.RequiredTimes(cons), fresh.CheckViolations(cons)}
		if len(want[i].viols) == 0 {
			t.Fatalf("constraint %d has no violations", i)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 6; k++ {
				i := (w + k) % len(conss)
				req := res.RequiredTimes(conss[i])
				viols := res.CheckViolations(conss[i])
				if !reflect.DeepEqual(req, want[i].req) || !reflect.DeepEqual(viols, want[i].viols) {
					t.Errorf("goroutine %d, constraint %d: answer differs from a fresh result's", w, i)
					return
				}
				// The caller owns the returned windows: writing them
				// must not reach later answers.
				for _, lr := range req {
					lr.Rise.QL = -1
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCheckViolationsReusesRequired: after RequiredTimes(cons),
// CheckViolations(cons) allocates strictly less than on a fresh result,
// because it skips the backward pass.
func TestCheckViolationsReusesRequired(t *testing.T) {
	res, conss := memoCases(t)
	cons := conss[0]
	const runs = 5
	fresh := make([]*Result, runs+1)
	for i := range fresh {
		fresh[i] = &Result{Circuit: res.Circuit, Mode: res.Mode, Lines: res.Lines, snap: res.snap}
	}
	n := 0
	cold := testing.AllocsPerRun(runs, func() {
		fresh[n].CheckViolations(cons)
		n++
	})
	res.RequiredTimes(cons)
	warm := testing.AllocsPerRun(runs, func() { res.CheckViolations(cons) })
	if warm >= cold {
		t.Errorf("CheckViolations after RequiredTimes: %v allocs, fresh result: %v; want strictly fewer", warm, cold)
	}
}
