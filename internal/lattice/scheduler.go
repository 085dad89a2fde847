package lattice

import (
	"time"

	"repro/internal/faultinject"
)

// RunNodes executes the level-wise traversal (Algorithm 1 of the paper) on e,
// a function because the node result type T is the client's. Starting from
// the singletons, it visits every node of level l — once per
// apriori-reachable node (every immediate subset visited, none pruned it) —
// and then generates level l+1 from the unpruned nodes (nextLevel).
//
// visit validates one node and returns its result plus its pruning decision;
// a pruned node generates no supersets. deps[k] points at the result of n.Set
// minus its (k+1)-th smallest attribute ([&root] at level 1); neither deps nor
// its pointers may be retained. visit runs concurrently on the nodes of a
// level, on the given worker goroutine (worker indexes Scratch and any
// per-worker shards), in an order that varies from run to run, so algorithms
// sort their results in a total order at the end of the run.
//
// Nodes are handed to visit one at a time through the engine's worker pool.
// Each handout checks the cancellation signals and meters Budget.MaxNodes,
// so an interrupt lands within one node per worker and at most MaxNodes nodes
// are ever visited. An interrupted run keeps everything already computed,
// never visits a partially generated level, and reports Stats.Interrupted.
func RunNodes[T any](e *Engine, root T, visit func(worker int, n Node, deps []*T) (T, bool)) {
	defer e.trapTraversal()
	e.started = time.Now()
	if e.budget.Timeout > 0 {
		e.deadline = e.started.Add(e.budget.Timeout)
	}
	depsBuf := make([][]*T, e.workers)
	for i := range depsBuf {
		depsBuf[i] = make([]*T, 0, e.numAttrs)
	}
	resPrev := []T{root}
	e.firstLevel()
	for l := 1; len(e.win[0].sets) > 0 && (e.maxLevel <= 0 || l <= e.maxLevel); l++ {
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
		cur := e.win[0]
		results := make([]T, len(cur.sets))
		cur.pruned = make([]bool, len(cur.sets))
		parallelForChunk(e.workers, len(cur.sets), 1, e.checkInterrupt, e.trapWorker, func(wk, i int) {
			x := cur.sets[i]
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
			for _, j := range cur.sub[i*l : (i+1)*l] {
				deps = append(deps, &resPrev[j])
			}
			results[i], cur.pruned[i] = visit(wk, Node{Set: x, Level: l, i: i, e: e}, deps)
		})
		e.stats.NodesVisited = e.dispatchedNodes()
		nodes := e.stats.NodesVisited - before
		// A partially visited level has meaningless zero-value results and
		// pruning flags, and a MaxLevel run skips the partitions of a level
		// it never visits: neither generates the next level.
		if !e.stopped() && (e.maxLevel <= 0 || l < e.maxLevel) {
			resPrev = results
			e.nextLevel(l)
		}
		// An interrupt during generation leaves some partitions of the next
		// level underived, so that level must not be visited either. The
		// level's statistics are still stamped so partial reports stay
		// coherent, unless no node was dispatched.
		stopped := e.stopped()
		e.stats.Interrupted = e.stats.Interrupted || stopped
		if nodes > 0 {
			e.finishLevel(l, nodes, start)
		}
		if stopped {
			break
		}
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
