package lattice

import (
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/faultinject"
	"repro/internal/partition"
)

// Scheduler selects how RunNodes orders node work.
type Scheduler string

const (
	// SchedulerDAG is the dependency-aware work-stealing scheduler: a
	// level-(l+1) node becomes runnable the moment all l+1 of its immediate
	// subsets have been visited and none pruned it, independent of the rest
	// of level l. Runnable nodes live in per-worker deques with stealing, and
	// the cancellation/budget signals are folded into node handout, so the
	// interrupt latency is at most one node. This is the default.
	SchedulerDAG Scheduler = "dag"
	// SchedulerBarrier is the level-synchronous path: no node at level l+1
	// starts until every node at level l has been visited and the whole next
	// level has been generated. Kept as an option during the transition and
	// as the differential-testing oracle for the DAG scheduler.
	SchedulerBarrier Scheduler = "barrier"
)

// resolve maps the zero value onto the default scheduler.
func (s Scheduler) resolve() Scheduler {
	if s == "" {
		return SchedulerDAG
	}
	return s
}

// Valid reports whether s names a known scheduler; the empty value is valid
// and selects the default.
func (s Scheduler) Valid() bool {
	return s == "" || s == SchedulerDAG || s == SchedulerBarrier
}

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
// nodes, from the given worker goroutine (worker indexes its Scratch and any
// per-worker shards). Under the DAG scheduler, nodes of DIFFERENT levels run
// concurrently too — the only ordering guarantee is that every immediate
// subset of x has completed before x starts. Emission order is therefore
// schedule-dependent; algorithms keep deterministic output by sorting their
// results in a total order at the end of the run.
type NodeVisit func(worker, level int, x bitset.AttrSet, deps []any) (result any, pruned bool)

// RunNodes executes the traversal through the node-reentrant API, under the
// configured scheduler. Both schedulers implement the same contract: visit
// runs exactly once per apriori-reachable node (every immediate subset
// visited, none pruned it), after the node's stripped partition and those of
// its two preceding levels are available through Partition, and with the
// immediate-subset results as deps. Pruning, partition derivation (store-
// first when a store is shared), budget/cancellation and progress reporting
// are handled by the engine.
func (e *Engine) RunNodes(root any, visit NodeVisit) {
	if e.scheduler == SchedulerBarrier {
		e.runNodesBarrier(root, visit)
		return
	}
	e.runNodesDAG(root, visit)
}

// runNodesBarrier adapts the node-reentrant API onto the level-callback Run:
// each level's nodes are visited through the engine's interruptible
// ParallelFor with deps looked up in the previous level's result map, and the
// per-node pruning decisions are folded into the survivor slice Run expects.
func (e *Engine) runNodesBarrier(root any, visit NodeVisit) {
	depsBuf := make([][]any, e.workers)
	for i := range depsBuf {
		depsBuf[i] = make([]any, 0, e.numAttrs)
	}
	var resPrev map[bitset.AttrSet]any
	e.Run(func(l int, level []bitset.AttrSet) []bitset.AttrSet {
		results := make([]any, len(level))
		pruned := make([]bool, len(level))
		e.ParallelFor(len(level), func(wk, i int) {
			x := level[i]
			// Recover here (inside the per-node frame) rather than relying on
			// the worker-level trap alone, so a panicking visit is recorded
			// with the node that poisoned it.
			defer func() {
				if rec := recover(); rec != nil {
					e.recordPanic(rec, x, true)
				}
			}()
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
		resCur := make(map[bitset.AttrSet]any, len(level))
		for i, x := range level {
			resCur[x] = results[i]
		}
		resPrev = resCur
		if e.Interrupted() {
			// A partially visited level must not prune: the zero-value pruned
			// flags of unvisited nodes are meaningless, and Run stops before
			// the next level is visited anyway.
			return level
		}
		kept := level[:0]
		for i := range level {
			if !pruned[i] {
				kept = append(kept, level[i])
			}
		}
		return kept
	})
}

// partTable is the partition window of a DAG traversal: per-level maps under
// one RWMutex, read from visit callbacks on any worker and written when a
// node's partition is derived. Whole levels are dropped once no future node
// can read them (level j is released at levelDone(j+2)), mirroring the
// barrier path's three-level retention window.
type partTable struct {
	mu     sync.RWMutex
	levels []map[bitset.AttrSet]*partition.Partition
}

func newPartTable(numAttrs int) *partTable {
	t := &partTable{levels: make([]map[bitset.AttrSet]*partition.Partition, numAttrs+1)}
	for i := range t.levels {
		t.levels[i] = make(map[bitset.AttrSet]*partition.Partition)
	}
	return t
}

func (t *partTable) get(x bitset.AttrSet) *partition.Partition {
	t.mu.RLock()
	defer t.mu.RUnlock()
	m := t.levels[x.Len()]
	if m == nil {
		return nil
	}
	return m[x]
}

func (t *partTable) put(level int, x bitset.AttrSet, p *partition.Partition) {
	t.mu.Lock()
	t.levels[level][x] = p
	t.mu.Unlock()
}

func (t *partTable) drop(level int) {
	if level < 0 {
		return
	}
	t.mu.Lock()
	t.levels[level] = nil
	t.mu.Unlock()
}

func (t *partTable) count() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, m := range t.levels {
		n += len(m)
	}
	return n
}

// nodeTask is one runnable lattice node: its dependencies are complete and
// their results are captured, only its partition and visit remain.
type nodeTask struct {
	x     bitset.AttrSet
	level int
	deps  []any
}

// dagRun is the shared state of one DAG traversal. Scheduling state — the
// deques, the waiting-candidate counters, the level accounting — lives under
// one central mutex with a sync.Cond for idle workers. A lock-free deque
// would shave contention, but one handout costs tens of nanoseconds while the
// median node costs tens of microseconds (a partition refinement plus
// validation), so the mutex is ~3 orders of magnitude below the work it
// guards; the simplicity is worth far more than the cycles.
type dagRun struct {
	e     *Engine
	visit NodeVisit

	mu       sync.Mutex
	cond     *sync.Cond
	sleepers int
	done     bool

	// deques holds one LIFO stack per worker: owners push and pop at the
	// tail (depth-first, cache-warm), thieves take the OLDEST task from the
	// front of the longest victim deque — old tasks sit low in the lattice
	// and fan out the most work, so stealing them spreads load fastest.
	deques [][]*nodeTask

	// waiting[l] counts, per level-l candidate, how many of its immediate
	// subsets have completed unpruned. A candidate becomes runnable exactly
	// when the count reaches l — all l immediate subsets survived — which is
	// the same closure the barrier path's prefix-join + allSubsetsPresent
	// computes. The map for level l+1 is dropped wholesale at levelDone(l),
	// discarding candidates that can no longer complete.
	waiting []map[bitset.AttrSet]int

	// results[l] maps completed level-l nodes to their visit results; read
	// when a level-(l+1) candidate's deps are captured, released at
	// levelDone(l) (after which no level-l completion can create candidates).
	results []map[bitset.AttrSet]any

	// Per-level accounting for progress coherence under out-of-order
	// completion: outstanding counts created-but-not-completed tasks,
	// dispatchedAt counts nodes handed to visit, startedAt stamps the first
	// dispatch. levelDone(l) requires levelDone(l-1), so level events fire in
	// level order even when deep nodes finish before shallow stragglers.
	outstanding  []int
	dispatchedAt []int
	startedAt    []time.Time
	levelDone    []bool
	// visitedThrough accumulates dispatchedAt over completed levels: the
	// level-lv event reports the nodes visited through level lv — the
	// barrier's meaning of NodesVisited — not the global dispatch counter,
	// which double-reports deeper nodes already running and would repeat
	// across the levels of one completion cascade.
	visitedThrough int

	inflight     int  // tasks created and not yet completed
	dispatched   int  // nodes handed to visit (the node-budget meter)
	maxDispatchL int  // deepest level dispatched
	latched      bool // a handout refused to dispatch: interrupt or budget

	// Store hit/miss tallies, folded into Stats after the workers join. Kept
	// here (not in e.stats) because exec probes the store off-mutex.
	hits, misses int
}

// runNodesDAG executes the traversal under the dependency-aware scheduler.
func (e *Engine) runNodesDAG(root any, visit NodeVisit) {
	// Contain panics raised on the traversal goroutine itself (seeding, the
	// inline worker loop's scheduling state) and make sure the window table is
	// retired even when the folding code below is unwound past.
	defer e.trapTraversal()
	defer func() { e.dagParts = nil }()
	e.started = time.Now()
	if e.budget.Timeout > 0 {
		e.deadline = e.started.Add(e.budget.Timeout)
	}
	r := &dagRun{e: e, visit: visit}
	r.cond = sync.NewCond(&r.mu)
	r.deques = make([][]*nodeTask, e.workers)
	n := e.numAttrs
	r.waiting = make([]map[bitset.AttrSet]int, n+2)
	r.results = make([]map[bitset.AttrSet]any, n+2)
	for l := 1; l <= n; l++ {
		r.waiting[l] = make(map[bitset.AttrSet]int)
		r.results[l] = make(map[bitset.AttrSet]any)
	}
	r.outstanding = make([]int, n+2)
	r.dispatchedAt = make([]int, n+2)
	r.startedAt = make([]time.Time, n+2)
	r.levelDone = make([]bool, n+2)
	r.levelDone[0] = true // level 0 (the empty set) is conceptually complete

	// Seed: the empty-set partition, then one task per singleton (root is
	// every singleton's sole dependency). Tasks are dealt round-robin so all
	// workers start busy; the window table is published before any worker
	// goroutine exists.
	e.dagParts = newPartTable(n)
	empty := bitset.AttrSet(0)
	p0, ok := r.lookupStore(empty)
	if !ok {
		p0 = partition.FromConstant(e.enc.NumRows())
		e.storePut(empty, p0)
	}
	e.dagParts.put(0, empty, p0)
	for a := 0; a < n; a++ {
		t := &nodeTask{x: bitset.NewAttrSet(a), level: 1, deps: []any{root}}
		wk := a % e.workers
		r.deques[wk] = append(r.deques[wk], t)
	}
	r.outstanding[1] = n
	r.inflight = n

	if e.workers == 1 {
		r.worker(0)
	} else {
		var wg sync.WaitGroup
		for wk := 0; wk < e.workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				r.worker(wk)
			}(wk)
		}
		wg.Wait()
	}

	// Fold the run into the engine's stats. Interrupted means a handout
	// refused to dispatch (interrupt or budget latched while work remained)
	// or tasks were abandoned outright; a traversal that drains naturally
	// never latches, because done is observed before the signals are checked.
	e.stats.NodesVisited += r.dispatched
	if r.maxDispatchL > e.stats.MaxLevelReached {
		e.stats.MaxLevelReached = r.maxDispatchL
	}
	e.stats.PartitionHits += r.hits
	e.stats.PartitionMisses += r.misses
	if r.latched || r.inflight > 0 {
		e.stats.Interrupted = true
	}
}

// worker is one scheduling loop: pull a runnable node, derive its partition,
// visit it, complete it (possibly unlocking supersets), repeat. A panic
// escaping the loop (scheduling-state corruption, an injected handout fault)
// is recovered here so it can never kill the process: the failure is latched
// in the engine and the run aborted. Panics inside node processing are
// recovered one frame deeper, in exec, where the node is known.
func (r *dagRun) worker(wk int) {
	defer func() {
		if rec := recover(); rec != nil {
			r.e.recordPanic(rec, 0, false)
			r.abort()
		}
	}()
	for {
		t := r.next(wk)
		if t == nil {
			return
		}
		r.exec(wk, t)
	}
}

// abort ends the traversal after a contained panic: done wakes every sleeping
// worker, latched marks the run interrupted (abandoned tasks keep inflight
// positive as well). The failed node's task is never completed — its results
// may be inconsistent, and the engine's latched error supersedes them.
func (r *dagRun) abort() {
	r.mu.Lock()
	r.latched = true
	r.done = true
	r.cond.Broadcast()
	r.mu.Unlock()
}

// next hands out one runnable node, or nil when the traversal is over. The
// cancellation, deadline and node-budget checks live here, on every handout,
// so an interrupt abandons at most the nodes already running — latency is
// bounded by one node, not one level.
func (r *dagRun) next(wk int) *nodeTask {
	e := r.e
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.done {
			return nil
		}
		if e.checkInterrupt() || (e.budget.MaxNodes > 0 && r.dispatched >= e.budget.MaxNodes) {
			e.stop.Store(true)
			r.latched = true
			r.done = true
			r.cond.Broadcast()
			return nil
		}
		if t := r.pop(wk); t != nil {
			faultinject.Hit(faultinject.NodeDispatch)
			r.dispatched++
			r.dispatchedAt[t.level]++
			if r.startedAt[t.level].IsZero() {
				r.startedAt[t.level] = time.Now()
			}
			if t.level > r.maxDispatchL {
				r.maxDispatchL = t.level
			}
			return t
		}
		r.sleepers++
		r.cond.Wait()
		r.sleepers--
	}
}

// pop takes the newest task from the worker's own deque, else steals the
// oldest task from the longest other deque.
func (r *dagRun) pop(wk int) *nodeTask {
	if d := r.deques[wk]; len(d) > 0 {
		t := d[len(d)-1]
		d[len(d)-1] = nil
		r.deques[wk] = d[:len(d)-1]
		return t
	}
	victim, best := -1, 0
	for v, d := range r.deques {
		if len(d) > best {
			victim, best = v, len(d)
		}
	}
	if victim < 0 {
		return nil
	}
	d := r.deques[victim]
	faultinject.Hit(faultinject.NodeSteal)
	t := d[0]
	r.deques[victim] = d[1:]
	return t
}

// lookupStore probes the shared store, tallying hits and misses in the run
// (the engine's counters are not safe to touch off-mutex).
func (r *dagRun) lookupStore(x bitset.AttrSet) (*partition.Partition, bool) {
	if r.e.store == nil {
		return nil, false
	}
	p, ok := r.e.store.Get(x)
	r.mu.Lock()
	if ok {
		r.hits++
	} else {
		r.misses++
	}
	r.mu.Unlock()
	return p, ok
}

// exec derives the node's stripped partition (store-first: a hit skips the
// derivation entirely), publishes it to the window, runs the visit and
// completes the node.
func (r *dagRun) exec(wk int, t *nodeTask) {
	defer func() {
		if rec := recover(); rec != nil {
			r.e.recordPanic(rec, t.x, true)
			r.abort()
		}
	}()
	e := r.e
	p, ok := r.lookupStore(t.x)
	if !ok {
		if t.level == 1 {
			a := t.x.Min()
			p = partition.FromColumn(e.enc.Column(a), e.enc.Cardinality[a])
		} else {
			// The barrier path's derivation rule: every immediate subset of
			// x completed before x became runnable, and their partitions stay
			// in the window until x's level is done.
			p = e.derive(t.x, e.dagParts.get, e.scratch[wk])
		}
		e.storePut(t.x, p)
	}
	e.dagParts.put(t.level, t.x, p)
	res, pruned := r.visit(wk, t.level, t.x, t.deps)
	r.complete(wk, t, res, pruned)
}

// complete records a node's result, turns its unpruned supersets runnable
// when their last dependency arrives, and advances level accounting.
func (r *dagRun) complete(wk int, t *nodeTask, res any, pruned bool) {
	e := r.e
	r.mu.Lock()
	defer r.mu.Unlock()
	l := t.level
	r.results[l][t.x] = res
	r.outstanding[l]--
	r.inflight--
	created := 0
	if !pruned && l < e.numAttrs && (e.maxLevel <= 0 || l < e.maxLevel) && !e.stopped() {
		w := r.waiting[l+1]
		resL := r.results[l]
		for a := 0; a < e.numAttrs; a++ {
			if t.x.Contains(a) {
				continue
			}
			c := t.x.Add(a)
			w[c]++
			if w[c] < l+1 {
				continue
			}
			// All l+1 immediate subsets completed unpruned: capture their
			// results as deps (ascending removed attribute, the NodeVisit
			// contract) and push the node on this worker's deque.
			delete(w, c)
			deps := make([]any, 0, l+1)
			c.ForEach(func(b int) {
				deps = append(deps, resL[c.Remove(b)])
			})
			r.deques[wk] = append(r.deques[wk], &nodeTask{x: c, level: l + 1, deps: deps})
			r.outstanding[l+1]++
			r.inflight++
			created++
		}
	}
	r.checkLevelDone(l)
	if r.inflight == 0 {
		r.done = true
		r.cond.Broadcast()
	} else if created > 0 && r.sleepers > 0 {
		if created == 1 {
			r.cond.Signal()
		} else {
			r.cond.Broadcast()
		}
	}
}

// checkLevelDone fires level completions in level order: level l is done once
// level l-1 is done (no more level-l candidates can appear) and no level-l
// task is outstanding. Completion releases state no future node can read —
// the waiting map one level up, the level's own results, the partition window
// two levels down — and emits the level's progress event. Events therefore
// stay monotone in Level and NodesVisited even when deep nodes finish before
// shallow stragglers; levels whose tasks were abandoned by an interrupt never
// fire (partial levels emit no event under the DAG scheduler).
func (r *dagRun) checkLevelDone(l int) {
	e := r.e
	for lv := l; lv <= e.numAttrs; lv++ {
		if !r.levelDone[lv-1] || r.outstanding[lv] != 0 {
			return
		}
		if r.levelDone[lv] {
			continue
		}
		r.levelDone[lv] = true
		r.waiting[lv+1] = nil
		r.results[lv] = nil
		e.dagParts.drop(lv - 2)
		r.visitedThrough += r.dispatchedAt[lv]
		if r.dispatchedAt[lv] == 0 {
			continue // an empty frontier level: nothing to report
		}
		if e.onEnd != nil {
			e.onEnd(lv, time.Since(r.startedAt[lv]))
		}
		if e.onProgress != nil {
			e.onProgress(ProgressEvent{
				Level:            lv,
				Nodes:            r.dispatchedAt[lv],
				NodesVisited:     r.visitedThrough,
				PartitionsCached: e.partitionsCached(),
				Elapsed:          time.Since(e.started),
			})
		}
	}
}
