package partition

import (
	"math"
	"math/rand"
	"testing"
)

// Micro-benchmarks for the partition substrate: the partition product and the
// swap check dominate FASTOD's inner loop (Section 4.6), so their constants
// matter for every figure.

func randomColumn(n, domain int, seed int64) ([]int32, int) {
	rng := rand.New(rand.NewSource(seed))
	col := make([]int32, n)
	for i := range col {
		col[i] = int32(rng.Intn(domain))
	}
	return col, domain
}

func BenchmarkFromColumn(b *testing.B) {
	col, card := randomColumn(100_000, 1000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FromColumn(col, card)
	}
}

func BenchmarkProduct(b *testing.B) {
	// A fresh workspace per call, as a nil scratch gives.
	colA, cardA := randomColumn(100_000, 100, 1)
	colB, cardB := randomColumn(100_000, 100, 2)
	pa := FromColumn(colA, cardA)
	pb := FromColumn(colB, cardB)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa.ProductWith(pb, nil)
	}
}

func BenchmarkProductWithScratch(b *testing.B) {
	// The engine hot path: a warm per-worker scratch makes the product's only
	// allocations the exact-size flat buffers of the result.
	colA, cardA := randomColumn(100_000, 100, 1)
	colB, cardB := randomColumn(100_000, 100, 2)
	pa := FromColumn(colA, cardA)
	pb := FromColumn(colB, cardB)
	s := NewScratch()
	pa.ProductWith(pb, s) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa.ProductWith(pb, s)
	}
}

func BenchmarkRefineWith(b *testing.B) {
	// The lattice's level generation: the same 100 000-row operands as
	// BenchmarkProductWithScratch, one refined by the other's column.
	colA, cardA := randomColumn(100_000, 100, 1)
	colB, cardB := randomColumn(100_000, 100, 2)
	pa := FromColumn(colA, cardA)
	s := NewScratch()
	pa.RefineWith(colB, cardB, s) // warm the scratch
	b.ReportAllocs()
	for b.Loop() {
		pa.RefineWith(colB, cardB, s)
	}
}

// The swap benchmarks below run on a 50 000-row context of 50 classes.
// Random columns (SortedScan, Scratch, SwapRemovals at a 1 % limit) are
// settled by the neighbour scan in front of the sort; the co-moving,
// swap-free columns of HasSwapCoMoving and exact SwapRemovals counts pay for
// the sort.

func swapBenchInput(coMoving bool) (ctx *Partition, colA, colB []int32) {
	ctxCol, ctxCard := randomColumn(50_000, 50, 1)
	ctx = FromColumn(ctxCol, ctxCard)
	if coMoving {
		colA, colB = coMovingColumns(rand.New(rand.NewSource(2)), ctx, 3000, true)
		return ctx, colA, colB
	}
	colA, _ = randomColumn(50_000, 1000, 2)
	colB, _ = randomColumn(50_000, 1000, 3)
	return ctx, colA, colB
}

func BenchmarkHasSwapSortedScan(b *testing.B) {
	ctx, colA, colB := swapBenchInput(false)
	b.ReportAllocs()
	for b.Loop() {
		ctx.HasSwapWith(colA, colB, nil)
	}
}

func BenchmarkHasSwapScratch(b *testing.B) {
	// The validation hot path: with a warm per-worker scratch the swap check
	// is allocation-free.
	ctx, colA, colB := swapBenchInput(false)
	s := NewScratch()
	ctx.HasSwapWith(colA, colB, s) // warm the scratch
	b.ReportAllocs()
	for b.Loop() {
		ctx.HasSwapWith(colA, colB, s)
	}
}

func BenchmarkHasSwapCoMoving(b *testing.B) {
	// A valid OD: the neighbour scan finds nothing, so every class is
	// sorted and scanned as well.
	ctx, colA, colB := swapBenchInput(true)
	s := NewScratch()
	if ctx.HasSwapWith(colA, colB, s) { // also warms the scratch
		b.Fatal("co-moving chain columns have a swap")
	}
	b.ReportAllocs()
	for b.Loop() {
		ctx.HasSwapWith(colA, colB, s)
	}
}

func BenchmarkSwapRemovals(b *testing.B) {
	ctx, colA, colB := swapBenchInput(false)
	for _, bc := range []struct {
		name  string
		limit int
	}{
		{"exact", math.MaxInt},
		{"limit=1%", ctx.NumRows / 100}, // the count approx's threshold 0.01 allows
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := NewScratch()
			b.ReportAllocs()
			for b.Loop() {
				ctx.SwapRemovals(colA, colB, bc.limit, s)
			}
		})
	}
}

func BenchmarkHasSwapNaive(b *testing.B) {
	// Smaller input: the naive check is quadratic per class.
	ctxCol, ctxCard := randomColumn(5_000, 50, 1)
	colA, _ := randomColumn(5_000, 1000, 2)
	colB, _ := randomColumn(5_000, 1000, 3)
	ctx := FromColumn(ctxCol, ctxCard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.HasSwapNaive(colA, colB)
	}
}

func BenchmarkFindSplit(b *testing.B) {
	ctxCol, ctxCard := randomColumn(100_000, 100, 1)
	col, _ := randomColumn(100_000, 5, 2)
	ctx := FromColumn(ctxCol, ctxCard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.FindSplit(col)
	}
}
