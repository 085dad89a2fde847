// Command perfbench is the repository benchmark. It runs one named workload
// against the module's public entry points (fastod.Dataset.Run, the HTTP
// handler of internal/server, and the relation and partition kernels),
// checks every output it measures, and prints its metrics.
//
//	perfbench --workload tall-fastod --seed 1 --seconds 15 --trace 0
//
// Workloads (see BENCHMARK.json for the rationale of each):
//
//	tall-fastod  one client calling Dataset.Run back to back on flight-like 20000x10
//	wide-fastod  the same loop on dbtesma-like 1000x13
//	serve-mixed  nproc HTTP clients against the real handler: uploads, report-cache
//	             hits and cold discovers under random order specs
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics, the latter from a run that records spans around each
// call into a layer and writes them to the -out directory at exit. The last
// line of standard output is always one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// Inputs are generated from --seed with internal/datagen, so one seed always
// gives the same inputs. Use run.sh, which builds the binary first.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	window   time.Duration // the measured window
	trace    bool
	outDir   string
	// tiny shrinks every input so the smoke test runs in seconds.
	tiny bool
	// corruptReference perturbs the reference taken at set-up, so every
	// checked output mismatches; the smoke test uses it to prove that
	// mismatches are reported.
	corruptReference bool
}

// outcome is what a workload hands back to main: its operation counts, the
// set-up check verdict and the metrics of the requested kind.
type outcome struct {
	attempted int
	failed    int
	setupOK   bool
	metrics   []metric
	meta      map[string]any
}

// metric is one named measurement; samples is the number of observations
// behind the value (1 for counts and single measurements).
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

var workloads = map[string]func(context.Context, config) (*outcome, error){
	"tall-fastod": func(ctx context.Context, c config) (*outcome, error) { return runLibrary(ctx, c, tallShape(c.tiny)) },
	"wide-fastod": func(ctx context.Context, c config) (*outcome, error) { return runLibrary(ctx, c, wideShape(c.tiny)) },
	"serve-mixed": runServe,
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: tall-fastod, wide-fastod or serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 15, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/perfbench", "directory for trace files")
	flag.Parse()
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace != 0
	if err := run(context.Background(), cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and prints the metadata line, a readable metric
// table and, last, the result object.
func run(ctx context.Context, cfg config, w io.Writer) error {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.window <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	out, err := fn(ctx, cfg)
	if err != nil {
		return err
	}
	res := resultJSON{
		Correct:   out.setupOK && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricJSON, len(out.metrics)),
	}
	samples := make(map[string]int, len(out.metrics))
	for _, m := range out.metrics {
		res.Metrics[m.name] = metricJSON{Value: m.value, Unit: m.unit}
		samples[m.name] = m.samples
	}
	meta := machineMeta(cfg)
	for k, v := range out.meta {
		meta[k] = v
	}
	meta["samples"] = samples
	metaLine, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(metaLine))
	for _, m := range out.metrics {
		fmt.Fprintf(w, "%-36s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(last))
	return nil
}
