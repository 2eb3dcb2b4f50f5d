// Parallel-scaling benchmarks for the execution engine: characterisation is
// the heaviest fan-out in the pipeline (hundreds of independent SPICE
// transients), so it is the canonical measure of the engine's speed-up;
// the level-parallel timing-graph build is the finest one (one engine.Run
// per logic level over microsecond gate evaluations).
//
// Run with:
//
//	go test -run '^$' -bench='CharacterizeParallel|BuildParallel' -benchtime=3x
//
// or `make bench-parallel`.
package sstiming_test

import (
	"fmt"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/charlib"
	"sstiming/internal/prechar"
	"sstiming/internal/tgraph"
	"sstiming/internal/twindow"
)

// BenchmarkCharacterizeParallel characterises the reduced FastOptions
// library at increasing engine worker counts. The produced libraries are
// byte-identical across worker counts (asserted by the charlib tests); only
// the wall-clock changes.
func BenchmarkCharacterizeParallel(b *testing.B) {
	for _, jobs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := charlib.FastOptions()
				opts.Jobs = jobs
				if _, err := charlib.Characterize(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildParallel builds and fully converges the c7552 timing graph
// at increasing worker counts. Windows are byte-identical across worker
// counts (asserted by the tgraph tests); the allocation counts show the
// fan-out's per-level cost, the timings its scaling.
func BenchmarkBuildParallel(b *testing.B) {
	lib := prechar.MustLibrary()
	c, err := benchgen.Load("c7552")
	if err != nil {
		b.Fatal(err)
	}
	for _, jobs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tgraph.New(c, tgraph.Options{Lib: lib, Mode: twindow.ModeProposed, Jobs: jobs}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
