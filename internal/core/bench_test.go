package core

import (
	"strconv"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relation"
)

// Micro-benchmarks for the FASTOD driver itself, complementing the
// figure-level benchmarks at the repository root.

func benchRelation(b *testing.B, rows, cols int) *relation.Encoded {
	b.Helper()
	enc, err := relation.Encode(datagen.FlightLike(rows, cols, 2017))
	if err != nil {
		b.Fatal(err)
	}
	return enc
}

// Single-configuration benchmarks pin Workers: 1 so their series stay
// comparable with runs recorded before the parallel engine existed; the
// scaling benchmarks below measure the parallel trajectory explicitly.

func BenchmarkDiscoverFlight1Kx10(b *testing.B) {
	enc := benchRelation(b, 1000, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DiscoverContext(b.Context(), enc, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiscoverRowsScaling tracks the sequential-vs-parallel trajectory
// of the engine as the row count grows: each size runs with Workers=1 (the
// sequential path) and Workers=4 (the sharded level-parallel path). On a
// multi-core machine the parallel series should pull ahead as rows grow; on a
// single-core machine the two series bound the pool's scheduling overhead.
func BenchmarkDiscoverRowsScaling(b *testing.B) {
	for _, rows := range []int{1000, 2000, 4000, 8000} {
		enc := benchRelation(b, rows, 8)
		for _, cfg := range []struct {
			name    string
			workers int
		}{{"seq", 1}, {"par4", 4}} {
			b.Run(sizeLabel(rows)+"/"+cfg.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := DiscoverContext(b.Context(), enc, Options{Workers: cfg.workers}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDiscoverWorkersScaling sweeps the worker count at a fixed shape,
// capturing the speedup curve of the level-parallel engine.
func BenchmarkDiscoverWorkersScaling(b *testing.B) {
	enc := benchRelation(b, 4000, 10)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run("workers="+strconv.Itoa(w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DiscoverContext(b.Context(), enc, Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDiscoverWide runs the attribute axis the flight-like benchmarks
// miss: hepatitis-like 155×13, the input of the repository benchmark's wide
// workload. With so few rows each partition kernel is small, but nearly all
// of the ~7 900 lattice nodes need a partition: on two CPUs RefineWith, which
// derives each from a parent and one column, takes about 30 % of the CPU and
// the swap checks about a sixth, and the rest goes to the per-node
// candidate-set work and the engine's handout.
func BenchmarkDiscoverWide(b *testing.B) {
	enc, err := relation.Encode(datagen.HepatitisLike(155, 13, 2017))
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2} {
		b.Run("workers="+strconv.Itoa(w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DiscoverContext(b.Context(), enc, Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDiscoverNoPruning(b *testing.B) {
	enc := benchRelation(b, 500, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DiscoverContext(b.Context(), enc, Options{Workers: 1, Flags: Flags{DisablePruning: true, CountOnly: true}}); err != nil {
			b.Fatal(err)
		}
	}
}

func sizeLabel(rows int) string {
	switch {
	case rows >= 1000 && rows%1000 == 0:
		return strconv.Itoa(rows/1000) + "Krows"
	default:
		return strconv.Itoa(rows) + "rows"
	}
}
