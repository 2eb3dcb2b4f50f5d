package sdf

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/netlist"
	"sstiming/internal/prechar"
)

func c17File(t *testing.T) *File {
	t.Helper()
	lib := prechar.MustLibrary()
	f, err := FromLibrary(benchgen.C17(), lib)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFromLibraryC17(t *testing.T) {
	f := c17File(t)
	if f.Design != "c17" {
		t.Errorf("design = %q", f.Design)
	}
	if len(f.Cells) != 6 {
		t.Fatalf("%d cells, want 6", len(f.Cells))
	}
	for _, cell := range f.Cells {
		if cell.CellType != "NAND2" {
			t.Errorf("cell type %q, want NAND2", cell.CellType)
		}
		if len(cell.Paths) != 2 {
			t.Errorf("instance %s has %d paths, want 2", cell.Instance, len(cell.Paths))
		}
		for _, p := range cell.Paths {
			for _, tr := range []Triple{p.Rise, p.Fall} {
				if !(tr.Min > 0 && tr.Min <= tr.Typ+1e-15 && tr.Typ <= tr.Max+1e-15) {
					t.Errorf("%s %s: implausible triple %+v", cell.Instance, p.From, tr)
				}
			}
		}
	}
}

func TestTriplesMatchLibraryEvaluation(t *testing.T) {
	lib := prechar.MustLibrary()
	f := c17File(t)
	nand2 := lib.MustCell("NAND2")

	// Gate 10 = NAND(1,3) drives two loads (gates 22... actually net 10
	// feeds gate 22 only). Instance 10, arc in0.
	arc, ok := f.Arc("10", "in0")
	if !ok {
		t.Fatal("missing arc 10/in0")
	}
	// Rise delay typ at 0.2 ns input transition, no extra load for
	// fanout 1.
	want := nand2.CtrlPins[0].Delay.Eval(0.2e-9)
	if math.Abs(arc.Rise.Typ-want) > 1e-15 {
		t.Errorf("rise typ = %g, want %g", arc.Rise.Typ, want)
	}
	// Net 11 feeds gates 16 and 19 -> one extra load.
	arc11, ok := f.Arc("11", "in0")
	if !ok {
		t.Fatal("missing arc 11/in0")
	}
	if arc11.Rise.Typ <= arc.Rise.Typ {
		t.Errorf("higher-fanout instance should be slower: %g vs %g", arc11.Rise.Typ, arc.Rise.Typ)
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	f := c17File(t)
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatalf("parse failed: %v", err)
	}
	if got.Design != f.Design || len(got.Cells) != len(f.Cells) {
		t.Fatalf("structure changed: %q %d cells", got.Design, len(got.Cells))
	}
	for i := range f.Cells {
		a, b := f.Cells[i], got.Cells[i]
		if a.Instance != b.Instance || a.CellType != b.CellType || len(a.Paths) != len(b.Paths) {
			t.Fatalf("cell %d differs: %+v vs %+v", i, a, b)
		}
		for j := range a.Paths {
			pa, pb := a.Paths[j], b.Paths[j]
			if pa.From != pb.From || pa.To != pb.To {
				t.Errorf("arc naming differs: %+v vs %+v", pa, pb)
			}
			// Values survive at the printed precision.
			if math.Abs(pa.Rise.Typ-pb.Rise.Typ) > 1e-13 || math.Abs(pa.Fall.Max-pb.Fall.Max) > 1e-13 {
				t.Errorf("arc values drifted: %+v vs %+v", pa, pb)
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`(DELAYFILE`,
		`(DELAYFILE (CELL (CELLTYPE "X") (INSTANCE i) (DELAY (ABSOLUTE (IOPATH a b (1:2) (1:2:3)))))`,
		`(DELAYFILE (CELL (CELLTYPE "X") (INSTANCE i) (DELAY (ABSOLUTE (IOPATH a b (x:y:z) (1:2:3)))))`,
		`DELAYFILE`,
	}
	for _, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestParseSkipsUnknownForms(t *testing.T) {
	src := `(DELAYFILE
  (SDFVERSION "2.1")
  (DESIGN "d")
  (TIMESCALE 1ns)
  (VOLTAGE 3.3:3.3:3.3)
  (CELL (CELLTYPE "NAND2") (INSTANCE g1)
    (DELAY (ABSOLUTE (IOPATH in0 out (0.1:0.2:0.3) (0.2:0.3:0.4))))
  )
)`
	f, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if f.Design != "d" || len(f.Cells) != 1 {
		t.Fatalf("unexpected result: %+v", f)
	}
	arc, ok := f.Arc("g1", "in0")
	if !ok {
		t.Fatal("missing arc")
	}
	if math.Abs(arc.Rise.Typ-0.2e-9) > 1e-15 || math.Abs(arc.Fall.Max-0.4e-9) > 1e-15 {
		t.Errorf("triples parsed wrong: %+v", arc)
	}
}

func TestInstancesSorted(t *testing.T) {
	f := c17File(t)
	insts := f.Instances()
	if len(insts) != 6 {
		t.Fatalf("%d instances", len(insts))
	}
	for i := 1; i < len(insts); i++ {
		if insts[i] < insts[i-1] {
			t.Fatal("instances not sorted")
		}
	}
	if _, ok := f.Arc("nope", "in0"); ok {
		t.Error("Arc on unknown instance should fail")
	}
	if _, ok := f.Arc("10", "in9"); ok {
		t.Error("Arc on unknown port should fail")
	}
}

func TestFromLibraryUnknownCell(t *testing.T) {
	lib := prechar.MustLibrary()
	c := netlist.New("big")
	ins := make([]string, 8)
	for i := range ins {
		ins[i] = string(rune('a' + i))
		c.AddPI(ins[i])
	}
	c.AddGate(netlist.Nand, "z", ins...)
	c.AddPO("z")
	if err := c.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := FromLibrary(c, lib); err == nil {
		t.Error("expected error for NAND8 (not in library)")
	}
}
