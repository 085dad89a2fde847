// Benchmarks that regenerate the paper's evaluation figures (Section 5) as Go
// testing.B benchmarks. Each figure has one benchmark whose sub-benchmarks
// are the series points the paper plots; `go test -bench=.` therefore prints
// runtime series whose shapes can be compared with the paper, and
// cmd/odbench prints the same series together with the discovered OD counts.
//
// The sizes here are reduced so the full suite finishes in a few minutes on a
// laptop; cmd/odbench runs the larger default scale.
package fastod_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	fastod "repro"
)

// seqOpts pins the paper-figure benchmarks to the sequential engine: they
// compare FASTOD against the single-threaded TANE/ORDER baselines, so the
// series stay comparable with the paper (and with runs recorded before the
// parallel engine existed). BenchmarkParallelWorkers measures the parallel
// trajectory explicitly.
func seqOpts() fastod.Options { return fastod.Options{Workers: 1} }

// figureDataset builds one synthetic dataset by paper name.
func figureDataset(name string, rows, cols int) *fastod.Dataset {
	const seed = 2017
	switch name {
	case "flight":
		return fastod.SyntheticFlight(rows, cols, seed)
	case "ncvoter":
		return fastod.SyntheticNCVoter(rows, cols, seed)
	case "hepatitis":
		return fastod.SyntheticHepatitis(rows, cols, seed)
	case "dbtesma":
		return fastod.SyntheticDBTesma(rows, cols, seed)
	default:
		panic("unknown dataset " + name)
	}
}

// benchORDERBudget keeps the factorial baseline bounded inside benchmarks.
func benchORDERBudget() fastod.ORDEROptions {
	return fastod.ORDEROptions{Budget: fastod.Budget{Timeout: 500 * time.Millisecond, MaxNodes: 100_000}}
}

func runFASTOD(b *testing.B, ds *fastod.Dataset, opts fastod.Options) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := ds.Discover(opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Counts.Total < 0 {
			b.Fatal("impossible count")
		}
	}
}

func runTANE(b *testing.B, ds *fastod.Dataset) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ds.DiscoverFDs(fastod.TANEOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func runORDER(b *testing.B, ds *fastod.Dataset) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ds.DiscoverWithORDER(benchORDERBudget()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 is Exp-1/Exp-3/Exp-4: runtime versus the number of tuples
// at a fixed attribute count, for TANE, FASTOD and ORDER on the flight-,
// ncvoter- and dbtesma-like datasets.
func BenchmarkFigure4(b *testing.B) {
	const cols = 8
	for _, name := range []string{"flight", "ncvoter", "dbtesma"} {
		for _, rows := range []int{500, 1000, 2000} {
			ds := figureDataset(name, rows, cols)
			b.Run(fmt.Sprintf("%s/rows=%d/TANE", name, rows), func(b *testing.B) { runTANE(b, ds) })
			b.Run(fmt.Sprintf("%s/rows=%d/FASTOD", name, rows), func(b *testing.B) { runFASTOD(b, ds, seqOpts()) })
			b.Run(fmt.Sprintf("%s/rows=%d/ORDER", name, rows), func(b *testing.B) { runORDER(b, ds) })
		}
	}
}

// BenchmarkFigure5 is Exp-2/Exp-3/Exp-4: runtime versus the number of
// attributes at a fixed tuple count, for all four datasets.
func BenchmarkFigure5(b *testing.B) {
	rowsFor := map[string]int{"flight": 500, "ncvoter": 500, "hepatitis": 155, "dbtesma": 500}
	colsFor := map[string][]int{
		"flight":    {4, 6, 8, 10},
		"ncvoter":   {4, 6, 8},
		"hepatitis": {4, 6, 8, 10},
		"dbtesma":   {4, 6, 8, 10},
	}
	for _, name := range []string{"flight", "hepatitis", "ncvoter", "dbtesma"} {
		for _, cols := range colsFor[name] {
			ds := figureDataset(name, rowsFor[name], cols)
			b.Run(fmt.Sprintf("%s/cols=%d/TANE", name, cols), func(b *testing.B) { runTANE(b, ds) })
			b.Run(fmt.Sprintf("%s/cols=%d/FASTOD", name, cols), func(b *testing.B) { runFASTOD(b, ds, seqOpts()) })
			b.Run(fmt.Sprintf("%s/cols=%d/ORDER", name, cols), func(b *testing.B) { runORDER(b, ds) })
		}
	}
}

// BenchmarkFigure6 is Exp-5/Exp-6: FASTOD with its pruning rules versus the
// un-pruned variant that enumerates every valid (redundant) OD, scaling rows
// and attributes on the flight-like dataset.
func BenchmarkFigure6(b *testing.B) {
	for _, rows := range []int{500, 1000, 2000} {
		ds := figureDataset("flight", rows, 8)
		b.Run(fmt.Sprintf("rows=%d/FASTOD", rows), func(b *testing.B) { runFASTOD(b, ds, seqOpts()) })
		b.Run(fmt.Sprintf("rows=%d/NoPruning", rows), func(b *testing.B) {
			runFASTOD(b, ds, fastod.Options{Workers: 1, DisablePruning: true, CountOnly: true})
		})
	}
	for _, cols := range []int{6, 8, 10} {
		ds := figureDataset("flight", 500, cols)
		b.Run(fmt.Sprintf("cols=%d/FASTOD", cols), func(b *testing.B) { runFASTOD(b, ds, seqOpts()) })
		b.Run(fmt.Sprintf("cols=%d/NoPruning", cols), func(b *testing.B) {
			runFASTOD(b, ds, fastod.Options{Workers: 1, DisablePruning: true, CountOnly: true})
		})
	}
}

// BenchmarkFigure7 is Exp-7: one full FASTOD run with per-level statistics on
// a wider flight-like table; cmd/odbench -fig 7 prints the per-level series.
func BenchmarkFigure7(b *testing.B) {
	ds := figureDataset("flight", 500, 12)
	runFASTOD(b, ds, fastod.Options{Workers: 1, CollectLevelStats: true})
}

// BenchmarkTable1 measures discovery on the paper's running example.
func BenchmarkTable1(b *testing.B) {
	ds := fastod.EmployeesExample()
	runFASTOD(b, ds, seqOpts())
}

// BenchmarkAblation measures the individual optimizations listed in README,
// "Substitutions": key pruning, node pruning and the sorted swap check.
func BenchmarkAblation(b *testing.B) {
	ds := figureDataset("flight", 1000, 10)
	b.Run("baseline", func(b *testing.B) { runFASTOD(b, ds, seqOpts()) })
	b.Run("no-key-pruning", func(b *testing.B) { runFASTOD(b, ds, fastod.Options{Workers: 1, DisableKeyPruning: true}) })
	b.Run("no-node-pruning", func(b *testing.B) { runFASTOD(b, ds, fastod.Options{Workers: 1, DisableNodePruning: true}) })
	b.Run("naive-swap-check", func(b *testing.B) { runFASTOD(b, ds, fastod.Options{Workers: 1, NaiveSwapCheck: true}) })
}

// BenchmarkQueryOptWorkload measures discovery on the date-dimension table of
// the query-optimization example (Query 1 of the paper's introduction).
func BenchmarkQueryOptWorkload(b *testing.B) {
	ds := fastod.DateDimExample(3 * 365)
	runFASTOD(b, ds, seqOpts())
}

// BenchmarkParallelWorkers captures the sequential-vs-parallel trajectory of
// the engine: the same flight-like discovery at increasing worker counts
// (Workers=1 is the sequential path). The output of every run is identical;
// only the wall-clock time changes.
func BenchmarkParallelWorkers(b *testing.B) {
	ds := figureDataset("flight", 2000, 10)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			runFASTOD(b, ds, fastod.Options{Workers: w})
		})
	}
}

// BenchmarkManyCheapNodes runs the lattice shape where scheduling overhead,
// not partition work, decides the wall clock: dbtesma-like 1000x13, about
// 5000 nodes of a few microseconds each. It runs sequentially and at
// GOMAXPROCS workers, so a regression that serializes the workers on shared
// engine state (a run-wide lock on node completion, a locked partition
// window) shows as the parallel case falling behind the sequential one. The
// reports are byte-identical across worker counts (TestSchedulerDifferential).
func BenchmarkManyCheapNodes(b *testing.B) {
	ds := figureDataset("dbtesma", 1000, 13)
	workers := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workers = append(workers, p)
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			req := fastod.Request{RunOptions: fastod.RunOptions{Workers: w}}
			for i := 0; i < b.N; i++ {
				rep, err := ds.Run(context.Background(), req)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Interrupted {
					b.Fatal("unbudgeted benchmark run interrupted")
				}
			}
		})
	}
}

// BenchmarkConditionalSliceWorkers measures conditional discovery with slice
// passes running sequentially (workers=1) versus fanned out across the pool
// (workers=4, each slice sequential inside). The merged report is identical.
func BenchmarkConditionalSliceWorkers(b *testing.B) {
	ds := figureDataset("ncvoter", 2000, 7)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			req := fastod.Request{
				Algorithm:  fastod.AlgorithmConditional,
				RunOptions: fastod.RunOptions{Workers: w},
			}
			for i := 0; i < b.N; i++ {
				if _, err := ds.Run(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
