package charlib

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"sstiming/internal/cells"
	"sstiming/internal/core"
	"sstiming/internal/device"
)

var update = flag.Bool("update", false, "rewrite the charlib golden files")

// goldenOptions is the minimal deterministic characterisation the golden
// file pins: INV + NAND2 on a 3-point grid (the smallest grid the quadratic
// fits accept). Characterize is deterministic for fixed options, so any
// change to the simulator, the measurement pipeline or the fitting basis
// shows up as a coefficient drift against the golden file.
func goldenOptions() Options {
	tech := device.Default05um()
	return Options{
		Tech: tech,
		Grid: []float64{0.2e-9, 0.5e-9, 1.0e-9},
		Cells: []cells.Config{
			{Kind: cells.Inv, N: 1, Tech: tech, LoadInverter: true},
			{Kind: cells.NAND, N: 2, Tech: tech, LoadInverter: true},
		},
		TStep: 3e-12,
	}
}

// TestCharlibGolden is the characterisation regression gate: the freshly
// characterised minimal library must match testdata/charlib_golden.json
// coefficient by coefficient. Regenerate with
//
//	go test ./internal/charlib -run TestCharlibGolden -update
func TestCharlibGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	lib, err := Characterize(goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, lib, "charlib_golden.json")
}

// TestCharlibGoldenNC pins the surfaces TestCharlibGolden leaves out: the
// simultaneous to-non-controlling (Λ) pairs, and a NOR cell, whose
// to-controlling drive rises. NOR2 alone, NCPairs on, on the golden grid.
func TestCharlibGoldenNC(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opts := goldenOptions()
	opts.Cells = []cells.Config{{Kind: cells.NOR, N: 2, Tech: opts.Tech, LoadInverter: true}}
	opts.NCPairs = true
	lib, err := Characterize(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, lib, "charlib_nc_golden.json")
}

// checkGolden compares lib with testdata/<name>, or rewrites the file under
// -update.
func checkGolden(t *testing.T, lib *core.Library, name string) {
	t.Helper()
	path := filepath.Join("testdata", name)

	if *update {
		var buf bytes.Buffer
		if err := lib.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	defer f.Close()
	want, err := core.LoadLibrary(f)
	if err != nil {
		t.Fatalf("golden file corrupt: %v", err)
	}

	// Semantic comparison through the JSON trees: numeric leaves must
	// agree to a tight relative tolerance (bit-exactness modulo encoding),
	// everything else exactly. Field additions fail loudly so the golden
	// file is regenerated deliberately.
	diffs := diffJSON("", toTree(t, lib), toTree(t, want), nil)
	const maxShow = 12
	for i, d := range diffs {
		if i >= maxShow {
			t.Errorf("... and %d more differences", len(diffs)-maxShow)
			break
		}
		t.Errorf("golden mismatch at %s", d)
	}
}

// toTree marshals a library into a generic JSON tree.
func toTree(t *testing.T, lib *core.Library) any {
	t.Helper()
	var buf bytes.Buffer
	if err := lib.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var tree any
	if err := json.Unmarshal(buf.Bytes(), &tree); err != nil {
		t.Fatal(err)
	}
	return tree
}

// diffJSON walks two JSON trees and records every path where they disagree.
func diffJSON(path string, got, want any, diffs []string) []string {
	switch g := got.(type) {
	case map[string]any:
		w, ok := want.(map[string]any)
		if !ok {
			return append(diffs, fmt.Sprintf("%s: type mismatch", path))
		}
		for k := range g {
			if _, ok := w[k]; !ok {
				diffs = append(diffs, fmt.Sprintf("%s/%s: missing from golden", path, k))
			}
		}
		for k, wv := range w {
			gv, ok := g[k]
			if !ok {
				diffs = append(diffs, fmt.Sprintf("%s/%s: missing from fresh library", path, k))
				continue
			}
			diffs = diffJSON(path+"/"+k, gv, wv, diffs)
		}
		return diffs
	case []any:
		w, ok := want.([]any)
		if !ok || len(g) != len(w) {
			return append(diffs, fmt.Sprintf("%s: length/type mismatch", path))
		}
		for i := range g {
			diffs = diffJSON(fmt.Sprintf("%s[%d]", path, i), g[i], w[i], diffs)
		}
		return diffs
	case float64:
		w, ok := want.(float64)
		if !ok {
			return append(diffs, fmt.Sprintf("%s: type mismatch", path))
		}
		const relTol, absTol = 1e-9, 1e-15
		if math.Abs(g-w) > absTol+relTol*math.Max(math.Abs(g), math.Abs(w)) {
			diffs = append(diffs, fmt.Sprintf("%s: %.12g != golden %.12g", path, g, w))
		}
		return diffs
	default:
		if got != want {
			diffs = append(diffs, fmt.Sprintf("%s: %v != golden %v", path, got, want))
		}
		return diffs
	}
}
