package logicsim

import (
	"math/rand"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/netlist"
	"sstiming/internal/prechar"
)

// c7552Pair loads the c7552 stand-in with one seeded vector pair.
func c7552Pair(tb testing.TB) (*netlist.Circuit, Vector, Vector) {
	tb.Helper()
	c, err := benchgen.Load("c7552")
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	return c, RandomVector(c, rng.Intn), RandomVector(c, rng.Intn)
}

// TestSimulateAllocs gates the forward pass's allocations: a warm Simulate
// on c7552 makes fewer than one allocation per gate.
func TestSimulateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("c7552")
	}
	lib := prechar.MustLibrary()
	c, v1, v2 := c7552Pair(t)
	opts := Options{Lib: lib}
	if _, err := Simulate(c, v1, v2, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Simulate(c, v1, v2, opts); err != nil {
			t.Fatal(err)
		}
	})
	if perGate := allocs / float64(len(c.Gates)); perGate >= 1 {
		t.Errorf("Simulate on c7552: %.0f allocs for %d gates (%.2f per gate), want < 1 per gate",
			allocs, len(c.Gates), perGate)
	}
}

// BenchmarkSimulate times one two-pattern simulation of c7552.
func BenchmarkSimulate(b *testing.B) {
	lib := prechar.MustLibrary()
	c, v1, v2 := c7552Pair(b)
	opts := Options{Lib: lib}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(c, v1, v2, opts); err != nil {
			b.Fatal(err)
		}
	}
}
