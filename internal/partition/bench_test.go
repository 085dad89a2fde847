package partition

import (
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
	colA, cardA := randomColumn(100_000, 100, 1)
	colB, cardB := randomColumn(100_000, 100, 2)
	pa := FromColumn(colA, cardA)
	pb := FromColumn(colB, cardB)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Product(pa, pb)
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

func BenchmarkHasSwapSortedScan(b *testing.B) {
	ctxCol, ctxCard := randomColumn(50_000, 50, 1)
	colA, _ := randomColumn(50_000, 1000, 2)
	colB, _ := randomColumn(50_000, 1000, 3)
	ctx := FromColumn(ctxCol, ctxCard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.HasSwap(colA, colB)
	}
}

func BenchmarkHasSwapScratch(b *testing.B) {
	// The validation hot path: with a warm per-worker scratch the radix swap
	// check is allocation-free.
	ctxCol, ctxCard := randomColumn(50_000, 50, 1)
	colA, _ := randomColumn(50_000, 1000, 2)
	colB, _ := randomColumn(50_000, 1000, 3)
	ctx := FromColumn(ctxCol, ctxCard)
	s := NewScratch()
	ctx.HasSwapWith(colA, colB, s) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.HasSwapWith(colA, colB, s)
	}
}

func BenchmarkSwapRemovals(b *testing.B) {
	ctxCol, ctxCard := randomColumn(50_000, 50, 1)
	colA, _ := randomColumn(50_000, 1000, 2)
	colB, _ := randomColumn(50_000, 1000, 3)
	ctx := FromColumn(ctxCol, ctxCard)
	s := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.SwapRemovals(colA, colB, s)
	}
}

// BenchmarkSwapRemovalsWithin is BenchmarkSwapRemovals with a limit of 1 %
// of the rows, which the inputs exceed within the first few classes: the
// cost of rejecting a candidate, as approximate discovery does for most.
func BenchmarkSwapRemovalsWithin(b *testing.B) {
	ctxCol, ctxCard := randomColumn(50_000, 50, 1)
	colA, _ := randomColumn(50_000, 1000, 2)
	colB, _ := randomColumn(50_000, 1000, 3)
	ctx := FromColumn(ctxCol, ctxCard)
	s := NewScratch()
	b.ReportAllocs()
	for b.Loop() {
		ctx.SwapRemovalsWithin(colA, colB, 500, s)
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

func BenchmarkConstantInClasses(b *testing.B) {
	ctxCol, ctxCard := randomColumn(100_000, 100, 1)
	col, _ := randomColumn(100_000, 5, 2)
	ctx := FromColumn(ctxCol, ctxCard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.ConstantInClasses(col)
	}
}

func BenchmarkRefineWithScratch(b *testing.B) {
	// The lattice's derivation: the same shape as BenchmarkProductWithScratch,
	// but the right operand is colB itself rather than its partition.
	colA, cardA := randomColumn(100_000, 100, 1)
	colB, _ := randomColumn(100_000, 100, 2)
	pa := FromColumn(colA, cardA)
	s := NewScratch()
	pa.RefineWith(colB, s) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa.RefineWith(colB, s)
	}
}
