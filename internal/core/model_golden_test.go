package core_test

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sstiming/internal/core"
	"sstiming/internal/netlist"
	"sstiming/internal/nineval"
	"sstiming/internal/prechar"
	"sstiming/internal/twindow"
)

var update = flag.Bool("update", false, "rewrite testdata/model_golden.json from the current code")

const modelGoldenFile = "testdata/model_golden.json"

// modelGolden is one recorded group of model evaluations: how many values
// it holds and a digest of their exact float bits (errors as their text).
type modelGolden struct {
	N      int    `json:"n"`
	Digest string `json:"sha256"`
}

// goldenLog accumulates one group's values as text lines.
type goldenLog struct {
	n int
	b strings.Builder
}

func (g *goldenLog) f(label string, vs ...float64) {
	g.b.WriteString(label)
	for _, v := range vs {
		fmt.Fprintf(&g.b, " %016x", math.Float64bits(v))
		g.n++
	}
	g.b.WriteByte('\n')
}

func (g *goldenLog) err(label string, err error) {
	fmt.Fprintf(&g.b, "%s error %v\n", label, err)
	g.n++
}

func (g *goldenLog) golden() modelGolden {
	return modelGolden{N: g.n, Digest: fmt.Sprintf("%x", sha256.Sum256([]byte(g.b.String())))}
}

// goldenTrans are the input transition times of the pair sweep, in ns:
// inside and outside the 0.1-1.5 ns characterisation grid.
var goldenTrans = []float64{0.05, 0.1, 0.5, 1.5, 2.25, 2.65}

// goldenCells returns the library cells under test plus a NAND2 copy
// without pair surfaces, which exercises the pin-to-pin fallbacks.
func goldenCells() []*core.CellModel {
	lib := prechar.MustLibrary()
	var cells []*core.CellModel
	for _, name := range []string{"INV", "NAND2", "NAND3", "NAND4", "NOR2", "NOR3"} {
		cells = append(cells, lib.MustCell(name))
	}
	bare := *lib.MustCell("NAND2")
	bare.Name, bare.Pairs, bare.NCPairs = "NAND2-nopairs", nil, nil
	return append(cells, &bare)
}

// pairGoldens evaluates the four pair evaluators and SKminAt for every
// ordered pin pair of the cell, over goldenTrans squared, at skew 0, one
// picosecond either side of each arm of the to-controlling and the NC
// pair, at SKmin and at +-2 ns, with and without extra load.
func pairGoldens(cell *core.CellModel, got map[string]modelGolden) {
	for x := 0; x < cell.N; x++ {
		for y := 0; y < cell.N; y++ {
			if x == y {
				continue
			}
			var g goldenLog
			for _, txNs := range goldenTrans {
				for _, tyNs := range goldenTrans {
					tx, ty := txNs*1e-9, tyNs*1e-9
					skews := []float64{0, 2e-9, -2e-9}
					for _, pp := range [][2]*core.PairTiming{
						{cell.Pair(x, y), cell.Pair(y, x)},
						{cell.NCPair(x, y), cell.NCPair(y, x)},
					} {
						if pp[0] == nil || pp[1] == nil {
							continue
						}
						sx, sy := pp[0].SX.Eval(tx, ty), -pp[1].SX.Eval(ty, tx)
						skews = append(skews, sx-1e-12, sx+1e-12, sy-1e-12, sy+1e-12)
					}
					skm := cell.SKminAt(x, y, tx, ty)
					g.f(fmt.Sprintf("skmin %g %g", txNs, tyNs), skm)
					skews = append(skews, skm)
					for _, load := range []float64{0, cell.RefLoad} {
						for _, s := range skews {
							g.f(fmt.Sprintf("%g %g %x %g", txNs, tyNs, math.Float64bits(s), load),
								cell.DelayCtrl2(x, y, tx, ty, s, load),
								cell.TransCtrl2(x, y, tx, ty, s, load),
								cell.DelayNonCtrl2(x, y, tx, ty, s, load),
								cell.TransNonCtrl2(x, y, tx, ty, s, load))
						}
					}
				}
			}
			got[fmt.Sprintf("pair/%s/%d:%d", cell.Name, x, y)] = g.golden()
		}
	}
}

// responseGoldens evaluates CtrlResponse, NonCtrlResponse and
// NonCtrlResponseExt on seeded sets of 1 to 4 events on distinct pins,
// with arrivals on a 50 ps grid (so ties occur), plus an invalid pin.
func responseGoldens(cell *core.CellModel, got map[string]modelGolden) {
	rng := rand.New(rand.NewSource(23))
	var g goldenLog
	record := func(label string, evs []core.InputEvent, load float64) {
		for _, f := range []struct {
			name string
			fn   func([]core.InputEvent, float64) (core.Response, error)
		}{
			{"ctrl", cell.CtrlResponse},
			{"nonctrl", cell.NonCtrlResponse},
			{"nonctrl-ext", cell.NonCtrlResponseExt},
		} {
			r, err := f.fn(evs, load)
			if err != nil {
				g.err(label+" "+f.name, err)
				continue
			}
			g.f(label+" "+f.name, r.Arrival, r.Trans)
		}
	}
	for k := 1; k <= min(cell.N, 4); k++ {
		for i := 0; i < 40; i++ {
			pins := rng.Perm(cell.N)[:k]
			evs := make([]core.InputEvent, k)
			for j, p := range pins {
				evs[j] = core.InputEvent{
					Pin:     p,
					Arrival: float64(rng.Intn(20)) * 50e-12,
					Trans:   goldenTrans[rng.Intn(len(goldenTrans))]*1e-9 + float64(rng.Intn(100))*1e-12,
				}
			}
			load := float64(rng.Intn(3)) * cell.RefLoad
			record(fmt.Sprintf("k%d/%d", k, i), evs, load)
		}
	}
	record("empty", nil, 0)
	record("badpin", []core.InputEvent{{Pin: cell.N, Trans: 0.2e-9}}, 0)
	got["response/"+cell.Name] = g.golden()
}

// goldenGate is one gate shape PropagateGate is recorded on.
type goldenGate struct {
	kind netlist.GateKind
	cell string
	n    int
}

var goldenValues = []nineval.Value{
	nineval.V00, nineval.V01, nineval.V0X,
	nineval.V10, nineval.V11, nineval.V1X,
	nineval.VX0, nineval.VX1, nineval.VXX,
}

// randomLine draws a seeded input line: a nine-valued value (mostly xx,
// as in STA) and independent rise and fall windows, some degenerate.
func randomLine(rng *rand.Rand) twindow.LineInfo {
	v := nineval.VXX
	if rng.Intn(2) == 0 {
		v = goldenValues[rng.Intn(len(goldenValues))]
	}
	win := func() twindow.Window {
		as := float64(rng.Intn(40)) * 25e-12
		ts := goldenTrans[rng.Intn(len(goldenTrans))] * 1e-9
		w := twindow.Window{AS: as, AL: as, TS: ts, TL: ts}
		if rng.Intn(4) != 0 {
			w.AL += float64(rng.Intn(40)) * 25e-12
			w.TL += float64(rng.Intn(30)) * 50e-12
		}
		return w
	}
	return twindow.LineInfo{Value: v, SRise: v.StateRise(), SFall: v.StateFall(), Rise: win(), Fall: win()}
}

// propagateGoldens records PropagateGate on seeded input lines and output
// values for each gate shape, under both modes, with NCExtension on and
// off; failures are recorded by their error text.
func propagateGoldens(lib *core.Library, got map[string]modelGolden) {
	gates := []goldenGate{
		{netlist.Inv, "INV", 1}, {netlist.Buf, "INV", 1},
		{netlist.Nand, "NAND2", 2}, {netlist.Nand, "NAND3", 3},
		{netlist.Nor, "NOR2", 2}, {netlist.Nor, "NOR3", 3},
		{netlist.GateKind(9), "NAND2", 2},
	}
	for _, gt := range gates {
		cell := lib.MustCell(gt.cell)
		for _, mode := range []twindow.Mode{twindow.ModeProposed, twindow.ModePinToPin} {
			for _, ncExt := range []bool{false, true} {
				rng := rand.New(rand.NewSource(29))
				var g goldenLog
				for i := 0; i < 300; i++ {
					lines := make([]twindow.LineInfo, gt.n)
					ins := make([]*twindow.LineInfo, gt.n)
					for j := range lines {
						lines[j] = randomLine(rng)
						ins[j] = &lines[j]
					}
					outV := nineval.VXX
					if rng.Intn(2) == 0 {
						outV = goldenValues[rng.Intn(len(goldenValues))]
					}
					load := float64(rng.Intn(3)) * cell.RefLoad
					label := fmt.Sprintf("%d %s", i, outV)
					li, err := twindow.PropagateGate(cell, gt.kind, ins, outV, load, mode, ncExt)
					if err != nil {
						g.err(label, err)
						continue
					}
					g.f(fmt.Sprintf("%s %d %d", label, li.SRise, li.SFall),
						li.Rise.AS, li.Rise.AL, li.Rise.TS, li.Rise.TL,
						li.Fall.AS, li.Fall.AL, li.Fall.TS, li.Fall.TL)
				}
				got[fmt.Sprintf("propagate/%s/%s/%s/nc=%t", gt.kind, gt.cell, mode, ncExt)] = g.golden()
			}
		}
	}
}

// TestModelGolden pins every evaluation of the delay model — the four
// pair evaluators and SKminAt, the three response combiners, and the
// forward window propagation of each gate shape — to the exact float bits
// recorded before the evaluators were merged into one skew shape.
// Regenerate with -update only when the timing model itself changes.
func TestModelGolden(t *testing.T) {
	got := map[string]modelGolden{}
	for _, cell := range goldenCells() {
		pairGoldens(cell, got)
		responseGoldens(cell, got)
	}
	propagateGoldens(prechar.MustLibrary(), got)

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(modelGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(modelGoldenFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(modelGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]modelGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("golden holds %d groups, run produced %d", len(want), len(got))
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if g := got[k]; g != want[k] {
			t.Errorf("%s: got %+v, want %+v", k, g, want[k])
		}
	}
}
