// Package lattice owns the level-wise apriori driver shared by every
// algorithm in this repository that traverses the set-containment lattice of
// attribute sets with stripped partitions: FASTOD (internal/core), the TANE
// baseline (internal/tane), and the approximate and bidirectional extensions
// (internal/approx, internal/bidir).
//
// The Engine factors out what those traversals have in common — singleton
// seeding, the level-synchronous traversal (Algorithm 1: every node of level
// l is visited before level l+1 is generated), prefix-block joins for the
// next level (Algorithm 2), partition derivation (each node refines its
// smallest immediate subset's partition by one rank column), and a parallel
// executor — while each algorithm keeps ownership of its candidate-set
// bookkeeping, validation and pruning inside a per-node visit callback
// (RunNodes, generic over the algorithm's node result).
//
// A run keeps its state in a dense level table: each level is its attribute
// sets in lexicographic order with parallel slices of partitions, results and
// immediate-subset indexes, and only the last three levels are retained.
// Every read a visit makes — its own partition, those of its immediate and
// second-order subsets (through Node), its subsets' results (deps) — is a
// slice index. A shared PartitionStore memoizes stripped partitions across
// runs (e.g. the pruned and un-pruned FASTOD passes of Figure 6, or repeated
// Discover calls behind the advisor) under a configurable memory bound; it is
// probed only while a level is generated.
package lattice

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/partition"
	"repro/internal/relation"
)

// Config configures an Engine.
type Config struct {
	// Ctx, when non-nil, is checked cooperatively throughout the traversal:
	// at every level barrier, at every node handout of a level's visits, and
	// between ParallelFor chunk handouts (level generation, client fan-outs).
	// A cancelled context interrupts the run within one node per worker; the
	// engine keeps everything computed so far and reports Stats.Interrupted.
	// Nil behaves like context.Background().
	Ctx context.Context
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
	// reused across runs that share the store. It is probed only while a level
	// is generated; visits read partitions from the run's level table. Nil
	// disables cross-run caching and changes no result.
	Store *PartitionStore
	// OnLevelEnd, when non-nil, is invoked after each level has been visited
	// and the next level generated, with the wall-clock time the whole level
	// took. Clients use it to record per-level statistics.
	OnLevelEnd func(level int, elapsed time.Duration)
	// OnProgress, when non-nil, receives one ProgressEvent per visited
	// level, including the partial level of an interrupted run: that event
	// counts the nodes actually handed to visit before the interrupt. A level
	// abandoned before its first handout emits no event. It is invoked from
	// the traversal goroutine (never concurrently).
	OnProgress func(ProgressEvent)
}

// Stats aggregates the work counters the engine maintains on behalf of its
// clients.
type Stats struct {
	// NodesVisited is the total number of lattice nodes handed to visit
	// callbacks. It never exceeds Budget.MaxNodes when that is set.
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
	workers    int
	maxLevel   int
	budget     Budget
	store      *PartitionStore
	onEnd      func(int, time.Duration)
	onProgress func(ProgressEvent)

	// started and deadline frame the run's wall clock: both are set once at
	// the top of RunNodes and only read afterwards, including from worker
	// goroutines. A zero deadline means no timeout.
	started  time.Time
	deadline time.Time
	// stop is the cooperative interrupt flag, latched by checkInterrupt from
	// any goroutine and polled at every node and chunk handout.
	stop atomic.Bool
	// dispatched counts node handouts, the Budget.MaxNodes meter (see
	// dispatch).
	dispatched atomic.Int64
	// fail latches the first recovered worker panic (see panic.go); failMu
	// guards it because workers recover concurrently. Read through Err.
	failMu sync.Mutex
	fail   *PanicError

	numAttrs int
	all      bitset.AttrSet

	// scratch holds one partition-kernel workspace per worker, reused across
	// all levels of the run.
	scratch []*partition.Scratch

	// win is the level table: win[0] is the level being visited, win[1] and
	// win[2] the two before it. It is written only at level barriers, so
	// Node handles read it from any worker goroutine without locks.
	win [3]*level

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
		workers:    ResolveWorkers(cfg.Workers),
		maxLevel:   cfg.MaxLevel,
		budget:     cfg.Budget,
		store:      cfg.Store,
		onEnd:      cfg.OnLevelEnd,
		onProgress: cfg.OnProgress,
		numAttrs:   enc.NumCols(),
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
// index (as handed to ParallelFor and RunNodes visits). The engine only
// uses scratch i from worker goroutine i while generating the next level,
// which never overlaps a visit callback, so visit callbacks are free to use
// their worker's scratch for swap checks, removal counting and ad-hoc
// products, keeping the whole validation hot path allocation-free. A scratch
// must never be used from a different worker index than the one it was
// requested for.
func (e *Engine) Scratch(worker int) *partition.Scratch { return e.scratch[worker] }

// All returns the full schema R as an attribute set.
func (e *Engine) All() bitset.AttrSet { return e.all }

// Stats returns the engine's work counters accumulated so far.
func (e *Engine) Stats() Stats { return e.stats }

// checkInterrupt evaluates the cancellation signals — the latched stop flag,
// the context, the deadline — and latches the stop flag when any fires. It is
// called at every node and chunk handout from worker goroutines and at level
// barriers, so it must stay cheap: one atomic load on the fast path.
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
// the run), otherwise the partitions in the run's level table.
func (e *Engine) partitionsCached() int {
	if e.store != nil {
		return e.store.Len()
	}
	n := 0
	for _, lv := range e.win {
		if lv != nil {
			n += len(lv.parts)
		}
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

// ParallelFor shards n items across the engine's worker pool; see the
// package-level ParallelFor for the contract. Unlike the package-level
// function, the engine's ParallelFor is interruptible: the cancellation and
// budget signals are polled between chunk handouts, and once one fires the
// remaining items are left unprocessed (their per-item output slots keep
// their zero values); the traversal then stops before any partially
// generated level is visited.
func (e *Engine) ParallelFor(n int, fn func(worker, item int)) {
	parallelForChunk(e.workers, n, chunkFor(e.workers, n), e.checkInterrupt, e.trapWorker, fn)
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
