// Package lattice owns the level-wise apriori driver shared by every
// algorithm in this repository that traverses the set-containment lattice of
// attribute sets with stripped partitions: FASTOD (internal/core), the TANE
// baseline (internal/tane), and the approximate and bidirectional extensions
// (internal/approx, internal/bidir).
//
// The Engine factors out what those traversals have in common — singleton
// seeding, prefix-block joins for the next level (Algorithm 2 of the paper),
// partition derivation (each node refines its smallest immediate subset's
// partition by one rank column), the bounded per-level partition retention
// window, and a chunked parallel executor — while each algorithm keeps
// ownership of its candidate-set bookkeeping, validation and pruning inside a
// per-level visit callback. A shared PartitionStore memoizes stripped
// partitions across runs (e.g. the pruned and un-pruned FASTOD passes of
// Figure 6, or repeated Discover calls behind the advisor) under a
// configurable memory bound.
package lattice

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/faultinject"
	"repro/internal/partition"
	"repro/internal/relation"
)

// Config configures an Engine.
type Config struct {
	// Ctx, when non-nil, is checked cooperatively throughout the traversal:
	// at every level barrier and between ParallelFor chunk handouts (barrier
	// scheduler) or at every node handout (DAG scheduler). A cancelled
	// context interrupts the run within one chunk — respectively one node —
	// of work; the engine keeps everything computed so far and reports
	// Stats.Interrupted. Nil behaves like context.Background().
	Ctx context.Context
	// Scheduler selects how node work is ordered for the node-reentrant
	// traversal API (RunNodes): the dependency-aware DAG scheduler (the
	// default) or the level-synchronous barrier path. See Scheduler. The
	// level-callback Run API always uses the barrier path.
	Scheduler Scheduler
	// Workers is the number of goroutines used per lattice level, with the
	// same convention as core.Options.Workers: 0 selects runtime.GOMAXPROCS,
	// 1 forces the fully sequential path, negatives clamp to 1.
	Workers int
	// MaxLevel, when positive, stops the traversal after processing the given
	// lattice level. Unlike a budget interrupt, stopping at MaxLevel is a
	// normal completion: the caller asked for a bounded traversal.
	MaxLevel int
	// Budget bounds the traversal's wall-clock time and visited node count;
	// see Budget. An exhausted budget interrupts the run like a cancelled
	// context does.
	Budget Budget
	// Store, when non-nil, is consulted before any stripped partition is
	// computed and receives every partition the run derives, so partitions are
	// reused across runs that share the store. Nil disables cross-run caching;
	// the per-run retention window still guarantees every partition a level
	// needs is available.
	Store *PartitionStore
	// OnLevelEnd, when non-nil, is invoked after each level has been visited
	// and the next level generated, with the wall-clock time the whole level
	// took. Clients use it to record per-level statistics.
	OnLevelEnd func(level int, elapsed time.Duration)
	// OnProgress, when non-nil, receives one ProgressEvent per completed
	// level, including the partial level of an interrupted run. It is invoked
	// from the traversal goroutine (never concurrently).
	OnProgress func(ProgressEvent)
}

// Stats aggregates the work counters the engine maintains on behalf of its
// clients.
type Stats struct {
	// NodesVisited is the total number of lattice nodes handed to visit
	// callbacks.
	NodesVisited int
	// MaxLevelReached is the deepest lattice level that produced nodes.
	MaxLevelReached int
	// PartitionHits and PartitionMisses count the store lookups for lattice
	// node partitions during this run. Both stay zero without a Store.
	PartitionHits   int
	PartitionMisses int
	// Interrupted reports that the traversal stopped early because the
	// context was cancelled or the budget was exhausted. Everything computed
	// before the interrupt is retained; NodesVisited counts the nodes handed
	// to visit callbacks, including those of a partially processed level.
	Interrupted bool
}

// Engine drives one level-wise traversal over one encoded relation. It is not
// safe for concurrent use; concurrent discoveries each build their own Engine
// (they may share a PartitionStore, which is internally synchronized).
type Engine struct {
	enc        *relation.Encoded
	ctx        context.Context
	scheduler  Scheduler
	workers    int
	maxLevel   int
	budget     Budget
	store      *PartitionStore
	onEnd      func(int, time.Duration)
	onProgress func(ProgressEvent)

	// started and deadline frame the run's wall clock: both are set once at
	// the top of Run and only read afterwards, including from worker
	// goroutines. A zero deadline means no timeout.
	started  time.Time
	deadline time.Time
	// stop is the cooperative interrupt flag, latched by checkInterrupt from
	// any goroutine and polled between ParallelFor chunk handouts.
	stop atomic.Bool
	// fail latches the first recovered worker panic (see panic.go); failMu
	// guards it because workers recover concurrently. Read through Err.
	failMu sync.Mutex
	fail   *PanicError

	numAttrs int
	all      bitset.AttrSet

	// scratch holds one partition-kernel workspace per worker, reused across
	// all levels of the run.
	scratch []*partition.Scratch

	// parts retains the stripped partitions of the last three lattice levels,
	// keyed by level then attribute set. The maps are written only at level
	// barriers and are read-only while a level's nodes are being visited, so
	// visit callbacks may read them from any worker goroutine. Used by the
	// barrier path only.
	parts map[int]map[bitset.AttrSet]*partition.Partition

	// dagParts is the RWMutex-guarded partition window of an active DAG
	// traversal; non-nil exactly while runNodesDAG executes. Partition routes
	// through it when set, so visit callbacks are scheduler-agnostic.
	dagParts *partTable

	stats Stats
}

// New validates the relation and builds an engine.
func New(enc *relation.Encoded, cfg Config) (*Engine, error) {
	if enc == nil {
		return nil, fmt.Errorf("lattice: nil relation")
	}
	if enc.NumCols() == 0 {
		return nil, fmt.Errorf("lattice: relation has no columns")
	}
	if enc.NumCols() > bitset.MaxAttrs {
		return nil, fmt.Errorf("lattice: relation has %d columns, maximum is %d", enc.NumCols(), bitset.MaxAttrs)
	}
	if cfg.Store != nil {
		if err := cfg.Store.bind(enc); err != nil {
			return nil, err
		}
	}
	ctx := cfg.Ctx
	if ctx == nil {
		//lint:allow ctxfirst ctx reaches New through Config.Ctx; nil means background by documented default
		ctx = context.Background()
	}
	e := &Engine{
		enc:        enc,
		ctx:        ctx,
		scheduler:  cfg.Scheduler.resolve(),
		workers:    ResolveWorkers(cfg.Workers),
		maxLevel:   cfg.MaxLevel,
		budget:     cfg.Budget,
		store:      cfg.Store,
		onEnd:      cfg.OnLevelEnd,
		onProgress: cfg.OnProgress,
		numAttrs:   enc.NumCols(),
		parts:      make(map[int]map[bitset.AttrSet]*partition.Partition),
	}
	e.scratch = make([]*partition.Scratch, e.workers)
	for i := range e.scratch {
		e.scratch[i] = partition.NewScratch()
	}
	for a := 0; a < e.numAttrs; a++ {
		e.all = e.all.Add(a)
	}
	return e, nil
}

// Workers returns the resolved worker count (>= 1). Clients size per-worker
// shards (counters, buffers) with it.
func (e *Engine) Workers() int { return e.workers }

// Scratch returns the engine's reusable partition workspace for one worker
// index (as handed to ParallelFor and NodeVisit callbacks). The engine only
// ever uses scratch i from worker goroutine i — while generating the next
// level on the barrier path (which never overlaps a visit callback) or while
// deriving a node's partition on the DAG path (on the same goroutine that
// then runs the node's visit) — so visit callbacks are free to use their
// worker's scratch for swap checks, removal counting and ad-hoc products,
// keeping the whole validation hot path allocation-free. A scratch must never
// be used from a different worker index than the one it was requested for.
func (e *Engine) Scratch(worker int) *partition.Scratch { return e.scratch[worker] }

// All returns the full schema R as an attribute set.
func (e *Engine) All() bitset.AttrSet { return e.all }

// Stats returns the engine's work counters accumulated so far.
func (e *Engine) Stats() Stats { return e.stats }

// Interrupted reports whether the traversal has been interrupted by context
// cancellation or budget exhaustion. Visit callbacks may call it after their
// ParallelFor returns to skip work whose inputs are incomplete (an
// interrupted ParallelFor leaves the remaining per-item slots untouched).
func (e *Engine) Interrupted() bool { return e.stats.Interrupted || e.stop.Load() }

// checkInterrupt evaluates the cancellation signals — the latched stop flag,
// the context, the deadline — and latches the stop flag when any fires. It is
// called between chunk handouts from worker goroutines and at level barriers,
// so it must stay cheap: one atomic load on the fast path.
func (e *Engine) checkInterrupt() bool {
	if e.stop.Load() {
		return true
	}
	select {
	case <-e.ctx.Done():
		e.stop.Store(true)
		return true
	default:
	}
	if !e.deadline.IsZero() && !time.Now().Before(e.deadline) {
		e.stop.Store(true)
		return true
	}
	return false
}

// overNodeBudget reports whether the node budget is exhausted. It is only
// called at level barriers (stats are owned by the traversal goroutine).
func (e *Engine) overNodeBudget() bool {
	return e.budget.MaxNodes > 0 && e.stats.NodesVisited >= e.budget.MaxNodes
}

// partitionsCached counts the stripped partitions currently retained for
// progress reporting: the shared store when configured (partitions survive
// the run), otherwise the run's own retention window.
func (e *Engine) partitionsCached() int {
	if e.store != nil {
		return e.store.Len()
	}
	if t := e.dagParts; t != nil {
		return t.count()
	}
	n := 0
	for _, m := range e.parts {
		n += len(m)
	}
	return n
}

// finishLevel stamps the completed (possibly partial) level's wall-clock time
// and emits its progress event.
func (e *Engine) finishLevel(l, nodes int, start time.Time) {
	if e.onEnd != nil {
		e.onEnd(l, time.Since(start))
	}
	if e.onProgress != nil {
		e.onProgress(ProgressEvent{
			Level:            l,
			Nodes:            nodes,
			NodesVisited:     e.stats.NodesVisited,
			PartitionsCached: e.partitionsCached(),
			Elapsed:          time.Since(e.started),
		})
	}
}

// Partition returns the stripped partition of an attribute set from the
// retention window. During the visit of a level-l node, the partitions of
// levels l-2, l-1 and l are available — exactly what constancy (context size
// l-1) and order-compatibility (context size l-2) validation need. It is safe
// to call from visit worker goroutines; under the DAG scheduler the window is
// per-node rather than per-level (a level-j partition is only released once
// every node that could still read it has completed).
func (e *Engine) Partition(x bitset.AttrSet) *partition.Partition {
	if t := e.dagParts; t != nil {
		return t.get(x)
	}
	return e.parts[x.Len()][x]
}

// ParallelFor shards n items across the engine's worker pool; see the
// package-level ParallelFor for the contract. Unlike the package-level
// function, the engine's ParallelFor is interruptible: the cancellation and
// budget signals are polled between chunk handouts, and once one fires the
// remaining items are left unprocessed (their per-item output slots keep
// their zero values). Callers detect this with Interrupted and must not treat
// the per-item results as complete afterwards; the engine itself stops the
// traversal before any partially generated level is visited.
func (e *Engine) ParallelFor(n int, fn func(worker, item int)) {
	parallelForChunk(e.workers, n, chunkFor(e.workers, n), e.checkInterrupt, e.trapWorker, fn)
}

// Run executes the level-wise traversal. Starting from the singleton level,
// it calls visit once per level with the level number and its nodes; visit
// returns the surviving nodes (its pruning decision — return the input slice
// unchanged to keep everything), and Run generates the next level by joining
// prefix blocks of the survivors, keeping only candidates whose every
// immediate subset survived, and deriving each new node's partition (from the
// store when shared, by a parallel refinement of its smallest immediate
// subset's partition otherwise; see derive).
//
// Cancellation and budget signals interrupt the traversal cooperatively: at
// every level barrier and — via the engine's ParallelFor — between chunk
// handouts inside a level, so the interrupt latency is bounded by one chunk
// of work. An interrupted run keeps everything already computed, never visits
// a partially generated level, and reports Stats.Interrupted.
func (e *Engine) Run(visit func(level int, nodes []bitset.AttrSet) []bitset.AttrSet) {
	defer e.trapTraversal()
	e.started = time.Now()
	if e.budget.Timeout > 0 {
		e.deadline = e.started.Add(e.budget.Timeout)
	}
	level := e.firstLevel()
	for l := 1; len(level) > 0 && (e.maxLevel <= 0 || l <= e.maxLevel); l++ {
		// The interrupt may have fired between levels (or during firstLevel,
		// whose singleton partitions would then be incomplete), and the node
		// budget is accounted at this barrier: either way the remaining work
		// is abandoned before the level is visited.
		if e.checkInterrupt() || e.overNodeBudget() {
			e.stop.Store(true)
			e.stats.Interrupted = true
			break
		}
		start := time.Now()
		nodes := len(level)
		e.stats.NodesVisited += nodes
		e.stats.MaxLevelReached = l
		kept := visit(l, level)
		if e.stopped() {
			// The level was only partially processed; its statistics are
			// still stamped so partial reports stay coherent.
			e.stats.Interrupted = true
			e.finishLevel(l, nodes, start)
			break
		}
		if e.maxLevel > 0 && l == e.maxLevel {
			// The loop is about to terminate; don't pay for the partitions
			// of a level that will never be visited.
			level = nil
		} else {
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

// stopped reports whether the interrupt flag is latched, without re-deriving
// the signals.
func (e *Engine) stopped() bool { return e.stop.Load() }

// storeGet consults the shared store, counting hits and misses. New has
// bound the store to this engine's relation, so a stored partition is always
// the right one.
func (e *Engine) storeGet(x bitset.AttrSet) (*partition.Partition, bool) {
	if e.store == nil {
		return nil, false
	}
	p, ok := e.store.Get(x)
	if ok {
		e.stats.PartitionHits++
	} else {
		e.stats.PartitionMisses++
	}
	return p, ok
}

func (e *Engine) storePut(x bitset.AttrSet, p *partition.Partition) {
	if e.store != nil {
		e.store.Put(x, p)
	}
}

// firstLevel seeds the empty-set partition and the singleton attribute sets;
// per-column partitions are independent and are built in parallel, except
// those already present in the shared store.
func (e *Engine) firstLevel() []bitset.AttrSet {
	empty := bitset.AttrSet(0)
	p0, ok := e.storeGet(empty)
	if !ok {
		p0 = partition.FromConstant(e.enc.NumRows())
		e.storePut(empty, p0)
	}
	e.parts[0] = map[bitset.AttrSet]*partition.Partition{empty: p0}

	level := make([]bitset.AttrSet, e.numAttrs)
	partsArr := make([]*partition.Partition, e.numAttrs)
	miss := make([]int, 0, e.numAttrs)
	for a := 0; a < e.numAttrs; a++ {
		x := bitset.NewAttrSet(a)
		level[a] = x
		if p, ok := e.storeGet(x); ok {
			partsArr[a] = p
		} else {
			miss = append(miss, a)
		}
	}
	e.ParallelFor(len(miss), func(_, k int) {
		a := miss[k]
		partsArr[a] = partition.FromColumn(e.enc.Column(a), e.enc.Cardinality[a])
	})
	e.parts[1] = make(map[bitset.AttrSet]*partition.Partition, e.numAttrs)
	for a := 0; a < e.numAttrs; a++ {
		e.parts[1][level[a]] = partsArr[a]
	}
	for _, a := range miss {
		e.storePut(level[a], partsArr[a])
	}
	return level
}

// nextLevel is Algorithm 2 of the paper: it joins pairs of surviving nodes
// that share all but one attribute (prefix blocks), keeps only candidates
// whose every immediate subset survived, and derives the new nodes'
// partitions (derive). Join enumeration is sequential (cheap bit-set work);
// the derivations — the dominant cost of level generation — run in parallel,
// each worker reusing its own scratch buffer. The shared store is probed
// store-first, during candidate enumeration itself: a hit skips the
// derivation entirely, so a warm store reduces level generation to bit-set
// work plus map lookups.
func (e *Engine) nextLevel(level []bitset.AttrSet, l int) []bitset.AttrSet {
	if len(level) == 0 {
		return nil
	}
	present := make(map[bitset.AttrSet]bool, len(level))
	for _, x := range level {
		present[x] = true
	}
	// Prefix blocks: nodes that agree on everything except their largest
	// attribute. Sorting the block members keeps generation deterministic.
	blocks := make(map[bitset.AttrSet][]int)
	for _, x := range level {
		last := x.Max()
		prefix := x.Remove(last)
		blocks[prefix] = append(blocks[prefix], last)
	}
	prefixes := make([]bitset.AttrSet, 0, len(blocks))
	for prefix := range blocks {
		prefixes = append(prefixes, prefix)
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i] < prefixes[j] })

	curParts := e.parts[l]
	next := make([]bitset.AttrSet, 0)
	partsArr := make([]*partition.Partition, 0)
	// miss lists the candidate indexes the store did not hold; only those are
	// derived.
	miss := make([]int, 0)
	for _, prefix := range prefixes {
		members := blocks[prefix]
		sort.Ints(members)
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				b, c := members[i], members[j]
				x := prefix.Add(b).Add(c)
				if !allSubsetsPresent(x, present) {
					continue
				}
				if p, ok := e.storeGet(x); ok {
					next = append(next, x)
					partsArr = append(partsArr, p)
					continue
				}
				miss = append(miss, len(next))
				next = append(next, x)
				partsArr = append(partsArr, nil)
			}
		}
	}

	parent := func(y bitset.AttrSet) *partition.Partition { return curParts[y] }
	e.ParallelFor(len(miss), func(wk, k int) {
		i := miss[k]
		x := next[i]
		// A panic inside the derivation (an invariant violation, or an
		// injected fault) is recorded with the node it was computing, so the
		// recovered stack names the offending attribute set; the worker-level
		// trap would only know the goroutine.
		defer func() {
			if rec := recover(); rec != nil {
				e.recordPanic(rec, x, true)
			}
		}()
		partsArr[i] = e.derive(x, parent, e.scratch[wk])
	})
	for _, i := range miss {
		e.storePut(next[i], partsArr[i])
	}
	nextParts := make(map[bitset.AttrSet]*partition.Partition, len(next))
	for i, x := range next {
		nextParts[x] = partsArr[i]
	}
	e.parts[l+1] = nextParts
	return next
}

// derive computes the stripped partition of a level-l node x (l >= 2) from
// its immediate subsets, using Π(X) = Π(X \ {A}) · Π(A) for any A in X: it
// takes the immediate subset X \ {A} with the smallest stripped partition
// and refines it by A's rank column, so the cost is linear in that smallest
// Size(). Ties go to the largest A. Both schedulers derive every node through
// this one rule, and a parent's Size does not depend on how it was derived,
// so a given attribute set always gets the same partition, class order
// included. parent must return the partition of every immediate subset of x.
func (e *Engine) derive(x bitset.AttrSet, parent func(bitset.AttrSet) *partition.Partition, s *partition.Scratch) *partition.Partition {
	var base *partition.Partition
	refineBy := -1
	x.ForEach(func(a int) {
		if p := parent(x.Remove(a)); base == nil || p.Size() <= base.Size() {
			base, refineBy = p, a
		}
	})
	faultinject.Hit(faultinject.PartitionProduct)
	return base.RefineWith(e.enc.Column(refineBy), s)
}

func allSubsetsPresent(x bitset.AttrSet, present map[bitset.AttrSet]bool) bool {
	ok := true
	x.ForEach(func(a int) {
		if ok && !present[x.Remove(a)] {
			ok = false
		}
	})
	return ok
}
