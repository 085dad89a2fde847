package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	fastod "repro"
	"repro/internal/datagen"
	"repro/internal/relation"
)

// libShape is the input of a library workload: one generated table that a
// single client discovers ODs on, back to back, through Dataset.Run.
type libShape struct {
	name       string
	gen        func(rows, cols int, seed int64) *relation.Relation
	rows, cols int
	// headRows x headCols is the slice of the table checked against the
	// brute-force reference discoverer at set-up.
	headRows, headCols int
}

func tallShape(tiny bool) libShape {
	s := libShape{name: "flight-like", gen: datagen.FlightLike, rows: 20000, cols: 10, headRows: 100, headCols: 10}
	if tiny {
		s.rows, s.cols, s.headRows, s.headCols = 400, 6, 50, 6
	}
	return s
}

func wideShape(tiny bool) libShape {
	s := libShape{name: "dbtesma-like", gen: datagen.DBTesmaLike, rows: 1000, cols: 13, headRows: 100, headCols: 10}
	if tiny {
		s.rows, s.cols, s.headRows, s.headCols = 200, 7, 50, 7
	}
	return s
}

// setupReps is how many times each workload sets up per run; setup_s is the
// median.
const setupReps = 5

// libEnv is a set-up library workload: the table's CSV bytes, the dataset
// loaded from them, and the reference output every timed run must match.
type libEnv struct {
	csv     []byte
	rel     *relation.Relation
	ds      *fastod.Dataset
	ref     signature
	setupOK bool
}

// setupLibrary generates the table, loads it the way the CLI does, takes the
// reference output and checks a head of the table against the brute-force
// oracle.
func setupLibrary(ctx context.Context, cfg config, shape libShape) (*libEnv, error) {
	rel := shape.gen(shape.rows, shape.cols, cfg.seed)
	csv, err := csvBytes(rel)
	if err != nil {
		return nil, err
	}
	ds, err := fastod.LoadCSV(shape.name, bytes.NewReader(csv))
	if err != nil {
		return nil, err
	}
	rep, err := ds.Run(ctx, fastod.Request{})
	if err != nil {
		return nil, err
	}
	items, err := renderReport(rep, ds.ColumnNames())
	if err != nil {
		return nil, err
	}
	env := &libEnv{csv: csv, rel: rel, ds: ds, ref: signatureOf(items), setupOK: !rep.Interrupted}
	if err := checkAgainstOracle(ctx, ds.HeadRows(shape.headRows).Project(shape.headCols)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: set-up check:", err)
		env.setupOK = false
	}
	if cfg.corruptReference {
		env.ref = env.ref.corrupt()
	}
	return env, nil
}

// libRun is the accumulated state of a run loop.
type libRun struct {
	lat        []float64 // ms per Run
	allocBytes uint64
	runs       int
	failed     int
	busy       time.Duration // summed wall time of the Runs and their checks

	// ingest interleaves CSV loads with the Runs; see loop.
	ingest       bool
	ingestMS     []float64
	ingestBusy   time.Duration
	ingestFailed int
}

// loop calls Run back to back until the deadline, checking each report
// against the reference. With a tracer it calls RunWithProgress instead and
// records a span per call, per lattice level and per check, and feeds the
// lattice and core layers.
//
// With st.ingest set, it also loads the workload's CSV between Runs whenever
// the loads have taken less than a fifth of the Runs' time, so about a sixth
// of the window goes to ingest samples spread over all of it: one stretch of
// a noisy machine then slows both measurements alike instead of only one.
func (e *libEnv) loop(ctx context.Context, until time.Time, tr *tracer, l *layers, st *libRun) {
	names := e.ds.ColumnNames()
	for time.Now().Before(until) {
		for st.ingest && 5*st.ingestBusy <= st.busy {
			e.ingestOnce(st)
		}
		op := tr.id()
		runID := tr.id()
		var events []fastod.ProgressEvent
		a0 := allocatedBytes()
		t0 := time.Now()
		var rep *fastod.Report
		var err error
		if tr == nil {
			rep, err = e.ds.Run(ctx, fastod.Request{})
		} else {
			rep, err = e.ds.RunWithProgress(ctx, fastod.Request{}, func(ev fastod.ProgressEvent) {
				events = append(events, ev)
			})
		}
		t1 := time.Now()
		st.allocBytes += allocatedBytes() - a0
		st.lat = append(st.lat, ms(t1.Sub(t0)))
		st.runs++
		ok := err == nil && !rep.Interrupted
		if ok {
			items, rerr := renderReport(rep, names)
			ok = rerr == nil && signatureOf(items) == e.ref
		}
		t2 := time.Now()
		st.busy += t2.Sub(t0)
		if !ok {
			st.failed++
		}
		if tr != nil && err == nil {
			// The engine starts its clock after request validation; anchor
			// the level spans at the end of the call minus Report.Elapsed.
			engineStart := t1.Add(-rep.Elapsed)
			prev := engineStart
			for _, ev := range events {
				end := engineStart.Add(ev.Elapsed)
				tr.record(fmt.Sprintf("lattice.level.%d", ev.Level), runID, op, prev, end)
				prev = end
			}
			tr.recordID(runID, "fastod.run", op, op, t0, t1)
			tr.record("client.check", op, op, t1, t2)
			tr.recordID(op, "client.op", 0, op, t0, t2)
			l.observeRun(rep, t1.Sub(t0), events)
			l.tracedOps++
		}
	}
}

// ingestOnce times one LoadCSV of the workload's CSV bytes. The heap is
// collected before and after, outside the timed span, so every load starts
// from the same state and its garbage does not land in the next Run.
func (e *libEnv) ingestOnce(st *libRun) {
	t0 := time.Now()
	runtime.GC()
	t1 := time.Now()
	ds, err := fastod.LoadCSV("ingest", bytes.NewReader(e.csv))
	t2 := time.Now()
	if err != nil || ds.NumRows() != e.ds.NumRows() || ds.NumCols() != e.ds.NumCols() {
		st.ingestFailed++
	}
	runtime.GC()
	st.ingestMS = append(st.ingestMS, ms(t2.Sub(t1)))
	st.ingestBusy += time.Since(t0)
}

// runLibrary runs tall-fastod or wide-fastod.
func runLibrary(ctx context.Context, cfg config, shape libShape) (*outcome, error) {
	var env *libEnv
	var setupS []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if env, err = setupLibrary(ctx, cfg, shape); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	runtime.GC()
	out := &outcome{setupOK: env.setupOK, meta: map[string]any{
		"input":   fmt.Sprintf("%s %dx%d", shape.name, env.ds.NumRows(), env.ds.NumCols()),
		"request": "Dataset.Run, default request (FASTOD, workers=nproc, default scheduler, no partition store)",
		"clients": 1,
		"loop":    "closed",
	}}
	if !env.setupOK {
		out.failed++
		out.attempted++
	}
	if cfg.trace {
		return traceLibrary(ctx, cfg, env, out)
	}

	st := libRun{ingest: true}
	env.loop(ctx, time.Now().Add(cfg.window), nil, nil, &st)
	out.attempted += st.runs + len(st.ingestMS)
	out.failed += st.failed + st.ingestFailed
	out.metrics = endToEnd(st.lat, st.ingestMS, st.runs, float64(st.runs)/st.busy.Seconds(),
		float64(st.allocBytes)/float64(max(st.runs, 1))/1e6, out, setupS)
	return out, nil
}

// traceLibrary is the traced run of a library workload: the window is cut
// into four quarters, untraced, traced, traced and untraced, so the tracing
// overhead is measured against the same warm process and a linear drift
// over the window cancels out; then the ingest, partition,
// speedup and fingerprint layers are measured on the workload's own input.
func traceLibrary(ctx context.Context, cfg config, env *libEnv, out *outcome) (*outcome, error) {
	tr := newTracer()
	l := &layers{}
	var plain, traced libRun
	start := time.Now()
	for q := 1; q <= 4; q++ {
		until := start.Add(cfg.window * time.Duration(q) / 4)
		if tracedQuarter(q) {
			env.loop(ctx, until, tr, l, &traced)
		} else {
			env.loop(ctx, until, nil, l, &plain)
		}
	}
	out.attempted += plain.runs + traced.runs
	out.failed += plain.failed + traced.failed
	l.overheadPct = 100 * (ratio(mean(traced.lat), mean(plain.lat)) - 1)

	reps := 5
	if cfg.tiny {
		reps = 2
	}
	if err := l.measureRelation(tr, env.csv, descNullsLast(env.rel), reps); err != nil {
		return nil, err
	}
	enc, err := relation.Encode(env.rel)
	if err != nil {
		return nil, err
	}
	l.replayKernels(tr, enc, 3)
	if err := l.measureSpeedup(ctx, tr, env.ds, reps); err != nil {
		return nil, err
	}
	l.measureFingerprint(fastod.Request{})
	l.spans = tr.snapshot()
	out.metrics = l.metrics()
	if err := tr.write(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed)); err != nil {
		return nil, err
	}
	return out, nil
}

// endToEnd renders the end-to-end metric list shared by every workload; the
// names and their order are fixed and match BENCHMARK.json.
//
//	run_ms_p50/p90   latency of one discovery that runs the engine
//	ingest_ms_p50    latency of turning CSV bytes into a ready dataset
//	ops_per_s        completed operations per second of the loop
//	alloc_mb_per_op  heap bytes allocated per operation
//	success_rate     1 - failed/attempted
//	setup_s          median set-up time
func endToEnd(runMS, ingestMS []float64, ops int, opsPerS, allocMB float64, out *outcome, setupS []float64) []metric {
	return []metric{
		{"run_ms_p50", quantile(runMS, 0.5), "ms", len(runMS)},
		{"run_ms_p90", quantile(runMS, 0.9), "ms", len(runMS)},
		{"ingest_ms_p50", quantile(ingestMS, 0.5), "ms", len(ingestMS)},
		{"ops_per_s", opsPerS, "1/s", ops},
		{"alloc_mb_per_op", allocMB, "MB", ops},
		{"success_rate", 1 - ratio(float64(out.failed), float64(out.attempted)), "ratio", out.attempted},
		{"setup_s", median(setupS), "s", len(setupS)},
	}
}
