package tgraph

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"strings"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/netlist"
	"sstiming/internal/nineval"
	"sstiming/internal/prechar"
	"sstiming/internal/twindow"
)

// escapedNameSnapshot encodes a graph whose circuit and net names need
// JSON escapes (json.Marshal writes '<', '&' and U+2028 as \u escapes),
// and checks that it restores to a graph that re-encodes to the same bytes.
func escapedNameSnapshot(tb testing.TB) []byte {
	tb.Helper()
	c, err := netlist.Parse("esc<&>\u2028", strings.NewReader("INPUT(a<b&c)\nINPUT(d)\nOUTPUT(y)\ny = NAND(a<b&c, d)\n"))
	if err != nil {
		tb.Fatal(err)
	}
	opts := Options{Lib: prechar.MustLibrary(), NCExtension: true}
	g, err := NewWithCube(c, nineval.Cube{"a<b&c": nineval.V01}, opts)
	if err != nil {
		tb.Fatal(err)
	}
	if err := g.SetPI(context.Background(), "a<b&c", twindow.PITiming{ArrivalEarly: 0.1e-9, ArrivalLate: 0.2e-9, TransShort: 0.1e-9, TransLong: 0.3e-9}); err != nil {
		tb.Fatal(err)
	}
	snap, err := g.EncodeSnapshot()
	if err != nil {
		tb.Fatal(err)
	}
	restored, err := RestoreSnapshot(snap, opts)
	if err != nil {
		tb.Fatalf("RestoreSnapshot with escaped names: %v", err)
	}
	if again, err := restored.EncodeSnapshot(); err != nil || !bytes.Equal(again, snap) {
		tb.Fatalf("escaped names do not round-trip (%v)", err)
	}
	return snap
}

// FuzzRestoreSnapshot holds the one-pass reader to the encoding/json
// decoder it replaced (referenceRestoreSnapshot): whatever the reader
// accepts, the reference accepts with the same graph (equal EncodeSnapshot
// bytes); whatever the reference accepts in exactly the bytes json.Marshal
// writes for its decoded value, the reader accepts too. Every refusal is
// ErrBadSnapshot.
func FuzzRestoreSnapshot(f *testing.F) {
	lib := prechar.MustLibrary()
	for _, seed := range []int64{5, 17} {
		g, _ := editedGraph(f, seed)
		snap, err := g.EncodeSnapshot()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(snap, true)
		if seed == 5 {
			// The cases of TestSnapshotDecodeNeverPanics.
			for _, data := range [][]byte{
				nil,
				[]byte("{"),
				[]byte("null"),
				[]byte(`{"version":99}`),
				[]byte(`{"version":1,"mode":"proposed","nc_extension":true,"netlist":"garbage"}`),
				[]byte(strings.Replace(string(snap), `"lines":{`, `"lines":{"no_such_net":{"r":{},"f":{}},`, 1)),
				[]byte(strings.Replace(string(snap), `"raw_cube":{`, `"raw_cube":{"bogus":"012",`, 1)),
			} {
				f.Add(data, true)
			}
		}
	}
	f.Add(escapedNameSnapshot(f), true)
	// A graph without per-PI stimuli or a raw cube omits both maps.
	c17, err := benchgen.Load("c17")
	if err != nil {
		f.Fatal(err)
	}
	plain, err := New(c17, Options{Lib: lib})
	if err != nil {
		f.Fatal(err)
	}
	snap, err := plain.EncodeSnapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap, false)
	old, err := os.ReadFile("testdata/c432_v1.snapshot.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old, false)

	f.Fuzz(func(t *testing.T, data []byte, nc bool) {
		opts := Options{Lib: lib, NCExtension: nc}
		got, err := RestoreSnapshot(data, opts)
		want, refErr := referenceRestoreSnapshot(data, opts)
		if err == nil {
			if refErr != nil {
				t.Fatalf("reader accepted a snapshot encoding/json refuses: %v", refErr)
			}
			a, errA := got.EncodeSnapshot()
			b, errB := want.EncodeSnapshot()
			if errA != nil || errB != nil || !bytes.Equal(a, b) {
				t.Fatalf("reader and reference restore different graphs (%v, %v)", errA, errB)
			}
			return
		}
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("refusal is not ErrBadSnapshot: %v", err)
		}
		if refErr == nil {
			var s snapshotJSON
			if json.Unmarshal(data, &s) == nil {
				if canon, _ := json.Marshal(s); bytes.Equal(canon, data) {
					t.Fatalf("reader refused json.Marshal output the reference restores: %v", err)
				}
			}
		}
	})
}

// TestRestoreSnapshotAllocs gates RestoreSnapshot's allocations beyond
// those of parsing its netlist: a constant, nothing per line.
func TestRestoreSnapshotAllocs(t *testing.T) {
	lib := prechar.MustLibrary()
	c, err := benchgen.Load("c7552")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := Options{Lib: lib}
	g, err := New(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetCube(ctx, randomPICube(c, rand.New(rand.NewSource(1)))); err != nil {
		t.Fatal(err)
	}
	if err := g.SetPI(ctx, c.PIs[0], twindow.PITiming{ArrivalEarly: 0.1e-9, ArrivalLate: 0.2e-9, TransShort: 0.1e-9, TransLong: 0.3e-9}); err != nil {
		t.Fatal(err)
	}
	snap, err := g.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := c.Write(&text); err != nil {
		t.Fatal(err)
	}
	parse := testing.AllocsPerRun(5, func() {
		if _, err := netlist.Parse(c.Name, bytes.NewReader(text.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	restore := testing.AllocsPerRun(5, func() {
		if _, err := RestoreSnapshot(snap, opts); err != nil {
			t.Fatal(err)
		}
	})
	// The skeleton and the implication take a few dozen allocations;
	// each raw cube literal takes its key string and its share of the
	// map and the implication trail.
	literals := len(g.RawCube())
	bound := 64 + 2*literals
	extra := restore - parse
	t.Logf("c7552 (%d lines, %d raw cube literals): RestoreSnapshot %.0f allocations, netlist.Parse %.0f, extra %.0f",
		g.NumLines(), literals, restore, parse, extra)
	if extra > float64(bound) {
		t.Fatalf("RestoreSnapshot allocates %.0f times beyond netlist.Parse on c7552 (%d lines, %d raw cube literals), want <= %d",
			extra, g.NumLines(), literals, bound)
	}
}
