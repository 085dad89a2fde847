package core

import (
	"slices"

	"repro/internal/bitset"
	"repro/internal/canonical"
)

const arenaNodes = 512 // nodes' candidate rows per arena chunk

// checkShard is one worker's share of the run: validation counters, emitted
// ODs, the counts of the level being visited, the pruned-node tally and the
// arena its nodes' C+s rows are carved from. Workers write only their own
// shard, so node completion takes no lock; levelEnd and finish merge the
// shards (counters commute, and the OD list is sorted in a total order at
// the end of the run). Shards are padded against false sharing.
type checkShard struct {
	fdChecks, swapChecks, keyPrunes, pruned int

	level LevelStat
	ods   []canonical.OD
	arena []bitset.AttrSet
	_     [64]byte
}

// carve hands out n zeroed words of the shard's arena. A chunk is freed once
// no node state refers to it.
func (sh *checkShard) carve(n int) []bitset.AttrSet {
	if len(sh.arena) < n {
		sh.arena = make([]bitset.AttrSet, n*arenaNodes)
	}
	rows := sh.arena[:n:n]
	sh.arena = sh.arena[n:]
	return rows
}

// emit records one discovered OD. In CountOnly mode only the counters are
// kept, so the no-pruning runs (millions of ODs) stay within memory budget.
func (d *discoverer) emit(sh *checkShard, od canonical.OD) {
	if od.Kind == canonical.Constancy {
		sh.level.Constancy++
	} else {
		sh.level.OrderCompat++
	}
	if !d.opts.CountOnly {
		sh.ods = append(sh.ods, od)
	}
}

// flushNode records one completed node; its ODs went to the shard as they
// were found.
func (sh *checkShard) flushNode(pruned bool) {
	sh.level.Nodes++
	if pruned {
		sh.pruned++
	}
}

// drainLevel sums and resets the shards' counts of the level just visited,
// adding its OD counts to the run totals.
func (d *discoverer) drainLevel() LevelStat {
	var st LevelStat
	for i := range d.shards {
		lv := &d.shards[i].level
		st.Nodes += lv.Nodes
		st.Constancy += lv.Constancy
		st.OrderCompat += lv.OrderCompat
		*lv = LevelStat{}
	}
	d.result.Counts.Constancy += st.Constancy
	d.result.Counts.OrderCompat += st.OrderCompat
	d.result.Counts.Total += st.Constancy + st.OrderCompat
	return st
}

// mergeShards folds the per-worker counters and ODs into the result.
func (d *discoverer) mergeShards() {
	n := 0
	for i := range d.shards {
		n += len(d.shards[i].ods)
	}
	d.result.ODs = slices.Grow(d.result.ODs, n)
	for i := range d.shards {
		sh := &d.shards[i]
		d.result.Stats.FDChecks += sh.fdChecks
		d.result.Stats.SwapChecks += sh.swapChecks
		d.result.Stats.KeyPrunes += sh.keyPrunes
		d.result.Stats.NodesPruned += sh.pruned
		d.result.ODs = append(d.result.ODs, sh.ods...)
	}
}
