package core

import (
	"repro/internal/canonical"
)

// The worker pool and node scheduling live in internal/lattice since the
// engine extraction; this file keeps FASTOD's deterministic merge machinery:
// per-worker counter shards and per-node emission buffers that are folded
// into the result at node completion, so a parallel run is byte-identical to
// a sequential one.

// checkShard accumulates the validation counters of one worker across the
// run. Shards are padded to a cache line so that concurrent increments by
// neighbouring workers do not false-share; they are summed into Result.Stats
// at finish (addition commutes, so totals match the sequential run exactly).
type checkShard struct {
	fdChecks   int
	swapChecks int
	keyPrunes  int
	_          [40]byte
}

// mergeShards folds per-worker validation counters into the run totals.
func (d *discoverer) mergeShards(shards []checkShard) {
	for i := range shards {
		d.result.Stats.FDChecks += shards[i].fdChecks
		d.result.Stats.SwapChecks += shards[i].swapChecks
		d.result.Stats.KeyPrunes += shards[i].keyPrunes
	}
}

// emitBuffer collects the ODs discovered at a single lattice node. Each node
// owns one stack-local buffer, so workers never contend while validating;
// the buffer is merged under the discoverer's mutex when the node completes
// (emission order is schedule-dependent, the final sort restores it). In
// CountOnly mode only the per-kind counters are kept, so the no-pruning runs
// (whose OD counts explode into the millions) stay within memory budget.
type emitBuffer struct {
	constancy   int
	orderCompat int
	ods         []canonical.OD
}

// bufferOD parks one discovered OD in a node's emission buffer.
func (d *discoverer) bufferOD(buf *emitBuffer, od canonical.OD) {
	if od.Kind == canonical.Constancy {
		buf.constancy++
	} else {
		buf.orderCompat++
	}
	if !d.opts.CountOnly {
		buf.ods = append(buf.ods, od)
	}
}

// flushEmits merges the per-node emission buffers into the result in node
// order — the same order the sequential traversal emits in.
func (d *discoverer) flushEmits(bufs []emitBuffer, stat *LevelStat) {
	for i := range bufs {
		b := &bufs[i]
		stat.Constancy += b.constancy
		stat.OrderCompat += b.orderCompat
		d.result.Counts.Constancy += b.constancy
		d.result.Counts.OrderCompat += b.orderCompat
		d.result.Counts.Total += b.constancy + b.orderCompat
		d.result.ODs = append(d.result.ODs, b.ods...)
	}
}
