// Command conformance runs the randomized differential verification campaign:
// per seed it generates a random circuit and stimulus, cross-checks the
// timing oracles against each other (flattened transistor-level simulation,
// gate-level timing simulation, STA windows, ITR refinement) and verifies the
// structural properties of the delay model itself. Any violation is shrunk to
// a minimal (circuit, vector pair) counterexample. A non-zero exit status
// means the campaign found violations (or could not run).
//
// Usage:
//
//	conformance [-lib lib.json] [-seeds N] [-seed-base B] [-jobs N]
//	            [-checks a,b,...] [-tol spec] [-flat-trials N]
//	            [-max-violations N] [-stats] [-json] [-list]
//	            [-health] [-max-degraded F]
//
// The -health flag prints the library's characterisation health record (per
// cell: attempted, retried and degraded point counts); -max-degraded refuses
// to campaign against a library whose worst cell exceeds the given degraded
// fraction — interpolated characterisation points weaken the oracle the
// campaign trusts.
//
// The -tol flag accepts comma-separated key=seconds pairs, e.g.
// "window=2e-12,flatabs=150e-12"; keys are window, flatabs, flatrel (ratio),
// flatwindow, flatperstage and model.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sstiming/internal/conformance"
	"sstiming/internal/engine"
	"sstiming/internal/prechar"
)

func main() {
	libPath := flag.String("lib", "", "characterised library JSON (default: embedded 0.5um library)")
	seeds := flag.Int("seeds", 25, "number of campaign seeds (one random circuit each)")
	seedBase := flag.Int64("seed-base", 1, "first seed of the campaign")
	jobs := flag.Int("jobs", 0, "worker pool width (0 = all CPUs, 1 = serial)")
	checksFlag := flag.String("checks", "", "comma-separated check names to run (default: all; see -list)")
	tolFlag := flag.String("tol", "", "tolerance overrides, e.g. window=2e-12,flatabs=150e-12")
	flatTrials := flag.Int("flat-trials", 0, "transistor-level trials per seed (0 = default 1, negative disables)")
	maxViolations := flag.Int("max-violations", 10, "counterexamples printed in full (0 = all)")
	stats := flag.Bool("stats", false, "print execution statistics to stderr")
	jsonOut := flag.Bool("json", false, "emit the report as JSON on stdout")
	list := flag.Bool("list", false, "list the available checks and exit")
	health := flag.Bool("health", false, "print the library's characterisation health summary to stderr")
	maxDegraded := flag.Float64("max-degraded", 0, "refuse libraries whose worst cell exceeds this degraded fraction (0 = default 0.25, negative forbids)")
	strictLib := flag.Bool("strict-lib", false, "refuse degraded or unverified libraries instead of using analytic fallbacks")
	flag.Parse()

	if *list {
		for _, ck := range conformance.AllChecks() {
			fmt.Printf("%-14s %s\n", ck.Name, ck.Desc)
		}
		return
	}

	var met *engine.Metrics
	if *stats {
		met = engine.NewMetrics()
		defer met.WriteText(os.Stderr)
	}

	lib, err := prechar.Load("conformance", *libPath, *strictLib, met)
	if err != nil {
		fail(err)
	}
	if *health {
		if err := lib.WriteHealth(os.Stderr); err != nil {
			fail(err)
		}
	}
	budget := *maxDegraded
	if budget == 0 {
		budget = 0.25
	} else if budget < 0 {
		budget = 0
	}
	if frac := lib.MaxDegradedFrac(); frac > budget {
		fail(fmt.Errorf("library health: worst cell has %.1f%% degraded characterisation points, budget is %.1f%% (see -max-degraded)",
			100*frac, 100*budget))
	}
	tol, err := parseTol(*tolFlag)
	if err != nil {
		fail(err)
	}

	var checks []string
	if *checksFlag != "" {
		checks = strings.Split(*checksFlag, ",")
	}

	rep, err := conformance.Run(conformance.Options{
		Lib:        lib,
		Seeds:      conformance.SeedRange(*seeds, *seedBase),
		Jobs:       *jobs,
		Tol:        tol,
		Checks:     checks,
		FlatTrials: *flatTrials,
		Metrics:    met,
	})
	if err != nil {
		fail(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fail(err)
		}
	} else if err := rep.WriteText(os.Stdout, *maxViolations); err != nil {
		fail(err)
	}
	if !rep.Passed() {
		os.Exit(1)
	}
}

// parseTol decodes the -tol flag's key=value list into a Tolerances value;
// unset keys keep their defaults.
func parseTol(spec string) (conformance.Tolerances, error) {
	var tol conformance.Tolerances
	if spec == "" {
		return tol, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return tol, fmt.Errorf("bad tolerance %q (want key=value)", kv)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return tol, fmt.Errorf("bad tolerance value %q: %v", kv, err)
		}
		switch strings.ToLower(strings.TrimSpace(key)) {
		case "window":
			tol.Window = f
		case "flatabs":
			tol.FlatAbs = f
		case "flatrel":
			tol.FlatRel = f
		case "flatwindow":
			tol.FlatWindow = f
		case "flatperstage":
			tol.FlatPerStage = f
		case "model":
			tol.Model = f
		default:
			return tol, fmt.Errorf("unknown tolerance key %q", key)
		}
	}
	return tol, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "conformance:", err)
	os.Exit(1)
}
