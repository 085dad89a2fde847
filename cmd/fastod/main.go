// Command fastod discovers order dependencies in a CSV file through the
// unified Run API.
//
// Usage:
//
//	fastod -input data.csv [-algorithm fastod|tane|approx|bidir|conditional|order]
//	       [-max-level N] [-workers N] [-timeout D] [-max-nodes N]
//	       [-threshold F] [-no-pruning] [-count-only] [-levels] [-progress]
//	       [-limit N] [-order-spec "col DESC NULLS LAST, other COLLATE ci"]
//
// By default it runs the FASTOD algorithm and prints the complete, minimal
// set of canonical ODs with attribute names. -timeout and -max-nodes budget
// any algorithm; a run that exhausts its budget — or is interrupted with
// Ctrl-C — still prints the partial report (marked "interrupted") and exits
// with status 0. The ORDER baseline's factorial search space gets a default
// budget when none is given.
//
// -order-spec overrides per-column ordering semantics before discovery runs:
// a comma-separated list of column names, each optionally followed by
// ASC|DESC, NULLS FIRST|LAST and COLLATE lexicographic|numeric|date|ci
// (case-insensitive keywords). Dependencies are then discovered over the
// requested orders instead of the columns' default ascending, NULLS FIRST,
// type-driven order.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	fastod "repro"
)

func main() {
	var (
		input     = flag.String("input", "", "path to a CSV file with a header row (required)")
		algorithm = flag.String("algorithm", "fastod", "algorithm to run: fastod, tane, approx, bidir, conditional or order")
		maxLevel  = flag.Int("max-level", 0, "stop after this lattice level (0 = unlimited)")
		workers   = flag.Int("workers", 0, "worker goroutines per lattice level (0 = all CPUs, 1 = sequential)")
		timeout   = flag.Duration("timeout", 0, "interrupt the run after this wall-clock budget (0 = none; ORDER defaults to 30s)")
		maxNodes  = flag.Int("max-nodes", 0, "interrupt the run after visiting this many lattice nodes (0 = none; ORDER defaults to 2000000)")
		threshold = flag.Float64("threshold", 0.05, "error threshold for -algorithm approx, in [0, 1)")
		noPrune   = flag.Bool("no-pruning", false, "disable pruning and report every valid OD (FASTOD only)")
		countOnly = flag.Bool("count-only", false, "only report dependency counts, not the dependencies themselves")
		levels    = flag.Bool("levels", false, "print per-lattice-level statistics (FASTOD only)")
		progress  = flag.Bool("progress", false, "stream per-level progress to stderr while the run executes")
		limit     = flag.Int("limit", 0, "print at most this many dependencies (0 = all)")
		orderSpec = flag.String("order-spec", "", `per-column ordering overrides, e.g. "sal desc nulls last, name collate ci"`)
	)
	flag.Parse()
	if *input == "" {
		fmt.Fprintln(os.Stderr, "fastod: -input is required")
		flag.Usage()
		os.Exit(2)
	}
	orders, err := fastod.ParseOrderSpecs(*orderSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fastod: -order-spec: %v\n", err)
		os.Exit(2)
	}
	cfg := config{
		input:     *input,
		algorithm: *algorithm,
		maxLevel:  *maxLevel,
		workers:   *workers,
		timeout:   *timeout,
		maxNodes:  *maxNodes,
		threshold: *threshold,
		noPrune:   *noPrune,
		countOnly: *countOnly,
		levels:    *levels,
		progress:  *progress,
		limit:     *limit,
		orders:    orders,
	}
	// Ctrl-C cancels the context; the run stops cooperatively within one
	// lattice node per worker and the partial report is still printed. A second
	// Ctrl-C kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "fastod: %v\n", err)
		os.Exit(1)
	}
}

// config mirrors the command-line flags; passing it as a struct keeps the
// call sites readable and lets new options ride along without signature churn.
type config struct {
	input     string
	algorithm string
	maxLevel  int
	workers   int
	timeout   time.Duration
	maxNodes  int
	threshold float64
	noPrune   bool
	countOnly bool
	levels    bool
	progress  bool
	limit     int
	orders    []fastod.AttrOrder
}

// request assembles the unified discovery request described by the flags;
// unknown algorithm names are rejected by Run itself.
func (cfg config) request() fastod.Request {
	alg := fastod.Algorithm(cfg.algorithm)
	budget := fastod.Budget{Timeout: cfg.timeout, MaxNodes: cfg.maxNodes}
	if alg == fastod.AlgorithmORDER && budget.IsZero() {
		// ORDER is factorial in attributes; never run it unbudgeted by
		// accident.
		budget = fastod.DefaultBudget()
	}
	return fastod.Request{
		Algorithm: alg,
		RunOptions: fastod.RunOptions{
			Workers:    cfg.workers,
			MaxLevel:   cfg.maxLevel,
			Budget:     budget,
			OrderSpecs: cfg.orders,
		},
		FASTOD: fastod.FASTODRunOptions{
			DisablePruning:    cfg.noPrune,
			CountOnly:         cfg.countOnly,
			CollectLevelStats: cfg.levels,
		},
		Approx: fastod.ApproxRunOptions{Threshold: cfg.threshold},
	}
}

func run(ctx context.Context, cfg config) error {
	ds, err := fastod.LoadCSVFile(cfg.input)
	if err != nil {
		return err
	}
	req := cfg.request()
	// Validate before printing anything so a bad flag (say -workers -3) is
	// one clean error, not a half-printed header followed by one.
	if err := req.Validate(); err != nil {
		return err
	}
	// Report the worker count the run will actually use (0 resolves to all
	// CPUs; ORDER is always sequential), not the raw flag value.
	fmt.Printf("dataset %s: %d tuples, %d attributes, %d workers\n",
		ds.Name(), ds.NumRows(), ds.NumCols(), req.EffectiveWorkers())

	var onProgress func(fastod.ProgressEvent)
	if cfg.progress {
		onProgress = func(ev fastod.ProgressEvent) {
			// Conditional runs follow the unconditional pass's per-level
			// events with one event per condition slice.
			if ev.Level == fastod.SliceProgressLevel {
				if ev.Slice != nil {
					fmt.Fprintf(os.Stderr, "slice #%d=rank(%d) (%d rows): %d nodes (%d total), %v elapsed\n",
						ev.Slice.Attr, ev.Slice.Value, ev.Slice.Rows,
						ev.Nodes, ev.NodesVisited, ev.Elapsed.Round(time.Millisecond))
					return
				}
				fmt.Fprintf(os.Stderr, "slice: %d nodes (%d total), %v elapsed\n",
					ev.Nodes, ev.NodesVisited, ev.Elapsed.Round(time.Millisecond))
				return
			}
			fmt.Fprintf(os.Stderr, "level %d: %d nodes (%d total), %d partitions cached, %v elapsed\n",
				ev.Level, ev.Nodes, ev.NodesVisited, ev.PartitionsCached, ev.Elapsed.Round(time.Millisecond))
		}
	}
	rep, err := ds.RunWithProgress(ctx, req, onProgress)
	if err != nil {
		return err
	}
	if rep.Interrupted {
		fmt.Printf("run interrupted after %v (%d nodes visited) — partial results follow\n",
			rep.Elapsed.Round(time.Microsecond), rep.Stats.NodesVisited)
	}
	printReport(cfg, ds.ColumnNames(), rep)
	return nil
}

// printReport renders the algorithm-specific payload of the report.
func printReport(cfg config, names []string, rep *fastod.Report) {
	deps := func(n int, print func(i int)) {
		if cfg.countOnly {
			return
		}
		for i := 0; i < n; i++ {
			if cfg.limit > 0 && i >= cfg.limit {
				fmt.Printf("... (%d more)\n", n-cfg.limit)
				return
			}
			print(i)
		}
	}
	switch rep.Algorithm {
	case fastod.AlgorithmFASTOD:
		res := rep.FASTOD
		fmt.Printf("discovered %s canonical ODs in %v\n", res.Counts, res.Elapsed.Round(time.Microsecond))
		if cfg.levels {
			fmt.Println("level  nodes  time           #ODs (#FDs + #OCDs)")
			for _, ls := range res.Levels {
				fmt.Printf("%-6d %-6d %-14v %d (%d + %d)\n",
					ls.Level, ls.Nodes, ls.Elapsed.Round(time.Microsecond),
					ls.Constancy+ls.OrderCompat, ls.Constancy, ls.OrderCompat)
			}
		}
		deps(len(res.ODs), func(i int) { fmt.Println(" ", res.ODs[i].NamesString(names)) })

	case fastod.AlgorithmTANE:
		res := rep.TANE
		fmt.Printf("discovered %d minimal FDs in %v\n", len(res.FDs), res.Elapsed.Round(time.Microsecond))
		deps(len(res.FDs), func(i int) { fmt.Println(" ", res.FDs[i].NamesString(names)) })

	case fastod.AlgorithmApprox:
		res := rep.Approx
		fmt.Printf("discovered %d approximate ODs (threshold %v) in %v\n",
			len(res.ODs), cfg.threshold, res.Elapsed.Round(time.Microsecond))
		deps(len(res.ODs), func(i int) {
			d := res.ODs[i]
			fmt.Printf("  %s (error %.4f)\n", d.OD.NamesString(names), d.Error.Rate)
		})

	case fastod.AlgorithmBidirectional:
		res := rep.Bidir
		fmt.Printf("discovered %d bidirectional ODs in %v\n", len(res.ODs), res.Elapsed.Round(time.Microsecond))
		deps(len(res.ODs), func(i int) { fmt.Println(" ", res.ODs[i].NamesString(names)) })

	case fastod.AlgorithmConditional:
		res := rep.Conditional
		fmt.Printf("discovered %d conditional ODs over %d slices (%s unconditional) in %v\n",
			len(res.ODs), res.SlicesExamined, res.Global.Counts, res.Elapsed.Round(time.Microsecond))
		deps(len(res.ODs), func(i int) { fmt.Println(" ", res.ODs[i].NamesString(names)) })

	case fastod.AlgorithmORDER:
		res := rep.ORDER
		fmt.Printf("discovered %d list ODs mapping to %s canonical ODs in %v\n",
			len(res.ODs), res.Counts, res.Elapsed.Round(time.Microsecond))
		deps(len(res.ODs), func(i int) { fmt.Println(" ", res.ODs[i].Names(names)) })
	}
}
