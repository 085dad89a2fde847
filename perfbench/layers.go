package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"time"

	fastod "repro"
	"repro/internal/partition"
	"repro/internal/relation"
)

// maxLevels is the number of lattice levels reported as lattice.level_ms.<k>.
// The benchmark's inputs stop at level 7 or 8 on seeds 1-10; a deeper level
// would be missing from the per-level breakdown, never from the totals.
const maxLevels = 8

// kernelNames are the partition kernels the replay times, in report order.
var kernelNames = []string{"from_column", "product", "has_swap", "swap_removals", "constant_in_classes"}

// kernelStat is one kernel's share of a replay.
type kernelStat struct {
	calls         int
	nsPerCall     float64
	allocsPerCall float64
}

// layers holds every per-layer value a traced run reports. A layer the
// workload does not exercise keeps its zero values, so every workload prints
// the same metric names.
type layers struct {
	readCSVMS, encodeMS, encodeSpecMS, encodeMBPerS float64
	relationSamples                                 int

	kernels map[string]kernelStat
	replays int

	nodesVisited, maxLevel int
	levelMS                [maxLevels][]float64
	speedup                float64
	speedupSamples         int
	store                  fastod.StoreStats

	ods, fds, ocds int
	nodesPerS      []float64

	runOverheadUS  []float64
	fingerprintUS  float64
	specEntries    int
	specBytes      int64
	cacheHits      int
	cacheMisses    int
	cacheEvictions int
	cacheRejects   int
	cacheCost      int

	handlerUpload, handlerDiscover, transport, warm []float64
	shed, internalErrors                            int64
	heapMB                                          float64

	overheadPct float64
	spans       []span
	tracedOps   int
}

// observeRun folds one traced FASTOD report into the lattice and core
// layers; wall is the caller-measured duration of Run.
func (l *layers) observeRun(rep *fastod.Report, wall time.Duration, events []fastod.ProgressEvent) {
	l.nodesVisited = rep.Stats.NodesVisited
	l.maxLevel = rep.Stats.MaxLevelReached
	if rep.FASTOD != nil {
		l.ods = rep.FASTOD.Counts.Total
		l.fds = rep.FASTOD.Counts.Constancy
		l.ocds = rep.FASTOD.Counts.OrderCompat
	}
	l.runOverheadUS = append(l.runOverheadUS, float64(wall-rep.Elapsed)/float64(time.Microsecond))
	if rep.Elapsed > 0 {
		l.nodesPerS = append(l.nodesPerS, float64(rep.Stats.NodesVisited)/rep.Elapsed.Seconds())
	}
	var prev time.Duration
	for _, ev := range events {
		if ev.Level >= 1 && ev.Level <= maxLevels {
			l.levelMS[ev.Level-1] = append(l.levelMS[ev.Level-1], ms(ev.Elapsed-prev))
		}
		prev = ev.Elapsed
	}
}

// metrics renders the per-layer metric list; the names and their order are
// fixed and match BENCHMARK.json.
func (l *layers) metrics() []metric {
	var out []metric
	add := func(name string, v float64, unit string, n int) {
		out = append(out, metric{name: name, value: v, unit: unit, samples: n})
	}
	add("relation.read_csv_ms", l.readCSVMS, "ms", l.relationSamples)
	add("relation.encode_ms", l.encodeMS, "ms", l.relationSamples)
	add("relation.encode_spec_ms", l.encodeSpecMS, "ms", l.relationSamples)
	add("relation.encode_mb_per_s", l.encodeMBPerS, "MB/s", l.relationSamples)
	for _, k := range kernelNames {
		st := l.kernels[k]
		add("partition."+k+".calls", float64(st.calls), "count", 1)
		add("partition."+k+".ns_per_call", st.nsPerCall, "ns", l.replays)
		add("partition."+k+".allocs_per_call", st.allocsPerCall, "allocs", l.replays)
	}
	add("lattice.nodes_visited", float64(l.nodesVisited), "count", 1)
	add("lattice.max_level", float64(l.maxLevel), "count", 1)
	for k := range l.levelMS {
		add("lattice.level_ms."+strconv.Itoa(k+1), median(l.levelMS[k]), "ms", len(l.levelMS[k]))
	}
	add("lattice.speedup", l.speedup, "ratio", l.speedupSamples)
	add("lattice.store_hits", float64(l.store.Hits), "count", 1)
	add("lattice.store_misses", float64(l.store.Misses), "count", 1)
	add("lattice.store_evictions", float64(l.store.Evictions), "count", 1)
	add("lattice.store_hit_ratio", ratio(float64(l.store.Hits), float64(l.store.Hits+l.store.Misses)), "ratio", 1)
	add("core.ods", float64(l.ods), "count", 1)
	add("core.fds", float64(l.fds), "count", 1)
	add("core.ocds", float64(l.ocds), "count", 1)
	add("core.nodes_per_s", median(l.nodesPerS), "1/s", len(l.nodesPerS))
	add("fastod.run_overhead_us", median(l.runOverheadUS), "us", len(l.runOverheadUS))
	add("fastod.fingerprint_us", l.fingerprintUS, "us", 1)
	add("fastod.spec_cache_entries", float64(l.specEntries), "count", 1)
	add("fastod.spec_cache_bytes", float64(l.specBytes), "bytes", 1)
	add("reportcache.hits", float64(l.cacheHits), "count", 1)
	add("reportcache.misses", float64(l.cacheMisses), "count", 1)
	add("reportcache.hit_ratio", ratio(float64(l.cacheHits), float64(l.cacheHits+l.cacheMisses)), "ratio", 1)
	add("reportcache.evictions", float64(l.cacheEvictions), "count", 1)
	add("reportcache.rejects", float64(l.cacheRejects), "count", 1)
	add("reportcache.cost_bytes", float64(l.cacheCost), "bytes", 1)
	add("server.handler_ms_p50.upload", median(l.handlerUpload), "ms", len(l.handlerUpload))
	add("server.handler_ms_p50.discover", median(l.handlerDiscover), "ms", len(l.handlerDiscover))
	add("server.transport_ms_p50", median(l.transport), "ms", len(l.transport))
	add("server.warm_ms_p50", median(l.warm), "ms", len(l.warm))
	add("server.warm_ms_p90", quantile(l.warm, 0.9), "ms", len(l.warm))
	add("server.shed", float64(l.shed), "count", 1)
	add("server.internal_errors", float64(l.internalErrors), "count", 1)
	add("server.heap_mb", l.heapMB, "MB", 1)
	add("trace.overhead_pct", l.overheadPct, "%", 1)
	add("trace.spans", float64(len(l.spans)), "count", 1)
	self := selfTimes(windowSpans(l.spans))
	for _, layer := range []string{"client", "server", "fastod", "lattice"} {
		add("trace.self_ms_per_op."+layer, ratio(self[layer], float64(l.tracedOps)), "ms", l.tracedOps)
	}
	return out
}

// measureRelation times the ingest kernels on the workload's own CSV bytes:
// ReadCSV, Encode and EncodeSpec under spec, each the median of reps runs.
func (l *layers) measureRelation(tr *tracer, csv []byte, spec relation.OrderSpec, reps int) error {
	var readT, encT, specT []float64
	for i := 0; i < reps; i++ {
		op := tr.id()
		t0 := time.Now()
		rel, err := relation.ReadCSV("bench", bytes.NewReader(csv))
		t1 := time.Now()
		if err != nil {
			return err
		}
		if _, err := relation.Encode(rel); err != nil {
			return err
		}
		t2 := time.Now()
		if _, err := relation.EncodeSpec(rel, spec); err != nil {
			return err
		}
		t3 := time.Now()
		tr.record("relation.read_csv", 0, op, t0, t1)
		tr.record("relation.encode", 0, op, t1, t2)
		tr.record("relation.encode_spec", 0, op, t2, t3)
		readT = append(readT, ms(t1.Sub(t0)))
		encT = append(encT, ms(t2.Sub(t1)))
		specT = append(specT, ms(t3.Sub(t2)))
	}
	l.readCSVMS, l.encodeMS, l.encodeSpecMS = median(readT), median(encT), median(specT)
	l.encodeMBPerS = ratio(float64(len(csv))/1e6, l.encodeMS/1e3)
	l.relationSamples = reps
	return nil
}

// descNullsLast is a non-default spec for every column of rel: the
// EncodeSpec path with work in every column.
func descNullsLast(rel *relation.Relation) relation.OrderSpec {
	spec := make(relation.OrderSpec, rel.NumCols())
	for i := range spec {
		spec[i] = relation.ColumnOrder{Direction: relation.Desc, Nulls: relation.NullsLast}
	}
	return spec
}

// replayKernels replays the partition work of FASTOD's lattice levels 2 and
// 3 on enc without pruning: level-1 partitions from every column, the
// products of every pair and triple, the constancy check of every attribute
// against the partition of the rest of its set, and the swap check (plus
// approx's SwapRemovals) of every pair under the partition of the rest of
// its set. Each kernel's calls are timed as a batch; the reported cost is the
// median over reps replays.
func (l *layers) replayKernels(tr *tracer, enc *relation.Encoded, reps int) {
	n, rows := enc.NumCols(), enc.NumRows()
	col := enc.Column
	samples := make(map[string][][2]float64) // per kernel: (ns/call, allocs/call) per rep
	calls := make(map[string]int)
	s := partition.NewScratch()
	for r := 0; r < reps; r++ {
		op := tr.id()
		timed := func(kernel string, body func() int) {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			c := body()
			t1 := time.Now()
			runtime.ReadMemStats(&m1)
			tr.record("partition."+kernel, 0, op, t0, t1)
			calls[kernel] = c
			samples[kernel] = append(samples[kernel], [2]float64{
				ratio(float64(t1.Sub(t0).Nanoseconds()), float64(c)),
				ratio(float64(m1.Mallocs-m0.Mallocs), float64(c)),
			})
		}
		single := make([]*partition.Partition, n)
		timed("from_column", func() int {
			for a := range single {
				single[a] = partition.FromColumn(col(a), enc.Cardinality[a])
			}
			return n
		})
		pair := make(map[[2]int]*partition.Partition)
		timed("product", func() int {
			c := 0
			for a := 0; a < n; a++ {
				for b := a + 1; b < n; b++ {
					pair[[2]int{a, b}] = single[a].ProductWith(single[b], s)
					c++
				}
			}
			for a := 0; a < n; a++ {
				for b := a + 1; b < n; b++ {
					for d := b + 1; d < n; d++ {
						pair[[2]int{a, b}].ProductWith(single[d], s)
						c++
					}
				}
			}
			return c
		})
		empty := partition.FromConstant(rows)
		// A check pairs an attribute (a, b = -1) or an attribute pair of a
		// level-2 or level-3 set with the partition of the set's other
		// attributes, its context.
		type check struct {
			ctx  *partition.Partition
			a, b int
		}
		var consts, swaps []check
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				consts = append(consts, check{single[b], a, -1}, check{single[a], b, -1})
				swaps = append(swaps, check{empty, a, b})
				for d := b + 1; d < n; d++ {
					consts = append(consts,
						check{pair[[2]int{b, d}], a, -1},
						check{pair[[2]int{a, d}], b, -1},
						check{pair[[2]int{a, b}], d, -1})
					swaps = append(swaps,
						check{single[d], a, b},
						check{single[b], a, d},
						check{single[a], b, d})
				}
			}
		}
		timed("has_swap", func() int {
			for _, c := range swaps {
				c.ctx.HasSwapWith(col(c.a), col(c.b), s)
			}
			return len(swaps)
		})
		timed("swap_removals", func() int {
			for _, c := range swaps {
				c.ctx.SwapRemovals(col(c.a), col(c.b), s)
			}
			return len(swaps)
		})
		timed("constant_in_classes", func() int {
			for _, c := range consts {
				c.ctx.ConstantInClasses(col(c.a))
			}
			return len(consts)
		})
	}
	l.kernels = make(map[string]kernelStat, len(kernelNames))
	for _, k := range kernelNames {
		var ns, allocs []float64
		for _, x := range samples[k] {
			ns = append(ns, x[0])
			allocs = append(allocs, x[1])
		}
		l.kernels[k] = kernelStat{calls: calls[k], nsPerCall: median(ns), allocsPerCall: median(allocs)}
	}
	l.replays = reps
}

// measureSpeedup times the default request at Workers=1 and at
// Workers=nproc on ds, reps runs each, and stores the ratio of the medians.
func (l *layers) measureSpeedup(ctx context.Context, tr *tracer, ds *fastod.Dataset, reps int) error {
	var seq, par []float64
	for i := 0; i < reps; i++ {
		for _, workers := range []int{1, runtime.NumCPU()} {
			op := tr.id()
			t0 := time.Now()
			rep, err := ds.Run(ctx, fastod.Request{RunOptions: fastod.RunOptions{Workers: workers}})
			t1 := time.Now()
			if err != nil {
				return err
			}
			if rep.Interrupted {
				return fmt.Errorf("speedup run at %d workers was interrupted", workers)
			}
			tr.record("fastod.run_workers_"+strconv.Itoa(workers), 0, op, t0, t1)
			if workers == 1 {
				seq = append(seq, ms(t1.Sub(t0)))
			} else {
				par = append(par, ms(t1.Sub(t0)))
			}
		}
	}
	l.speedup = ratio(median(seq), median(par))
	l.speedupSamples = reps
	return nil
}

// measureFingerprint times Request.Fingerprint, the report-cache key
// derivation every served discover pays, as the median over batches.
func (l *layers) measureFingerprint(req fastod.Request) {
	const batch, batches = 200, 9
	var per []float64
	for i := 0; i < batches; i++ {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			_ = req.Fingerprint()
		}
		per = append(per, float64(time.Since(t0))/float64(time.Microsecond)/batch)
	}
	l.fingerprintUS = median(per)
}
