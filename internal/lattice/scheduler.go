package lattice

import (
	"time"

	"repro/internal/bitset"
	"repro/internal/faultinject"
)

// NodeVisit is the node-reentrant visit callback of RunNodes: it validates
// one lattice node and returns the node's result (the algorithm's per-node
// state, e.g. FASTOD's candidate sets) plus its pruning decision. A pruned
// node generates no supersets.
//
// deps carries the results of the node's immediate subsets in ascending order
// of the removed attribute: deps[k] is the result of x with its (k+1)-th
// smallest attribute removed. For level 1 it is [root]. The slice is only
// valid for the duration of the call and must not be retained.
//
// The callback must be safe to run concurrently with itself on different
// nodes of one level, from the given worker goroutine (worker indexes its
// Scratch and any per-worker shards). Which worker visits which node, and in
// what order, varies from run to run; algorithms keep deterministic output by
// sorting their results in a total order at the end of the run.
type NodeVisit func(worker, level int, x bitset.AttrSet, deps []any) (result any, pruned bool)

// RunNodes executes the level-wise traversal (Algorithm 1 of the paper).
// Starting from the singletons, it visits every node of level l — visit runs
// exactly once per apriori-reachable node (every immediate subset visited,
// none pruned it), with the node's stripped partition and those of its two
// preceding levels available through Partition and the immediate-subset
// results as deps — and then generates level l+1 from the unpruned nodes
// (nextLevel), deriving each new node's partition (store-first when a store
// is shared; see derive).
//
// Nodes are handed to visit one at a time through the engine's worker pool.
// Each handout checks the cancellation signals and meters Budget.MaxNodes,
// so an interrupt lands within one node per worker and at most MaxNodes nodes
// are ever visited. An interrupted run keeps everything already computed,
// never visits a partially generated level, and reports Stats.Interrupted.
func (e *Engine) RunNodes(root any, visit NodeVisit) {
	defer e.trapTraversal()
	e.started = time.Now()
	if e.budget.Timeout > 0 {
		e.deadline = e.started.Add(e.budget.Timeout)
	}
	depsBuf := make([][]any, e.workers)
	for i := range depsBuf {
		depsBuf[i] = make([]any, 0, e.numAttrs)
	}
	var resPrev map[bitset.AttrSet]any
	level := e.firstLevel()
	for l := 1; len(level) > 0 && (e.maxLevel <= 0 || l <= e.maxLevel); l++ {
		// The interrupt may have fired between levels (or during level
		// generation, whose partitions would then be incomplete), and a level
		// that ended exactly on the node budget leaves nothing to dispatch:
		// either way the remaining work is abandoned before the level starts.
		if e.checkInterrupt() || e.overNodeBudget() {
			e.stop.Store(true)
			e.stats.Interrupted = true
			break
		}
		start := time.Now()
		before := e.stats.NodesVisited
		e.stats.MaxLevelReached = l
		results := make([]any, len(level))
		pruned := make([]bool, len(level))
		parallelForChunk(e.workers, len(level), 1, e.checkInterrupt, e.trapWorker, func(wk, i int) {
			x := level[i]
			// Recover here (inside the per-node frame) rather than relying on
			// the worker-level trap alone, so a panicking visit is recorded
			// with the node that poisoned it.
			defer func() {
				if rec := recover(); rec != nil {
					e.recordPanic(rec, x, true)
				}
			}()
			if !e.dispatch() {
				return
			}
			deps := depsBuf[wk][:0]
			if l == 1 {
				deps = append(deps, root)
			} else {
				x.ForEach(func(a int) {
					deps = append(deps, resPrev[x.Remove(a)])
				})
			}
			results[i], pruned[i] = visit(wk, l, x, deps)
		})
		e.stats.NodesVisited = e.dispatchedNodes()
		nodes := e.stats.NodesVisited - before
		if e.stopped() {
			// The level was only partially visited: the zero-value results
			// and pruning flags of undispatched nodes are meaningless, so no
			// next level is generated. Its statistics are still stamped so
			// partial reports stay coherent, unless no node was dispatched.
			e.stats.Interrupted = true
			if nodes > 0 {
				e.finishLevel(l, nodes, start)
			}
			break
		}
		if e.maxLevel > 0 && l == e.maxLevel {
			// The loop is about to terminate; don't pay for the partitions
			// of a level that will never be visited.
			level = nil
		} else {
			resCur := make(map[bitset.AttrSet]any, len(level))
			kept := level[:0]
			for i, x := range level {
				resCur[x] = results[i]
				if !pruned[i] {
					kept = append(kept, x)
				}
			}
			resPrev = resCur
			level = e.nextLevel(kept, l)
			if e.stopped() {
				// Some partitions of the next level were never derived; the
				// level must not be visited.
				e.stats.Interrupted = true
				e.finishLevel(l, nodes, start)
				break
			}
		}
		// Partitions of level l-2 are no longer needed once level l+1 starts.
		delete(e.parts, l-2)
		e.finishLevel(l, nodes, start)
	}
}

// dispatch is the per-node handout check: it fires the dispatch fault point
// and takes one unit of the node budget, latching the stop flag once the
// budget is spent. A refused handout leaves the node unvisited.
func (e *Engine) dispatch() bool {
	faultinject.Hit(faultinject.NodeDispatch)
	n := e.dispatched.Add(1)
	if e.budget.MaxNodes > 0 && n > int64(e.budget.MaxNodes) {
		e.stop.Store(true)
		return false
	}
	return true
}

// dispatchedNodes is the number of nodes handed to visit so far. Handouts are
// numbered 1, 2, ... and exactly those numbered within the node budget went
// through; refused ones only overshoot the counter.
func (e *Engine) dispatchedNodes() int {
	n := int(e.dispatched.Load())
	if m := e.budget.MaxNodes; m > 0 && n > m {
		return m
	}
	return n
}
