package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/canonical"
	"repro/internal/lattice"
	"repro/internal/partition"
	"repro/internal/relation"
)

// Discover runs FASTOD with a background context; see DiscoverContext.
func Discover(enc *relation.Encoded, opts Options) (*Result, error) {
	//lint:allow ctxfirst convenience wrapper kept for callers that cannot cancel; DiscoverContext is the cancellable entry point
	return DiscoverContext(context.Background(), enc, opts)
}

// DiscoverContext runs FASTOD (Algorithm 1 of the paper) over an encoded
// relation instance and returns the complete, minimal set of canonical ODs
// that hold, or — with Options.DisablePruning — every valid OD, minimal or
// not. The context and Options.Budget are checked cooperatively — at level
// barriers and at every node handout; a cancelled or over-budget run returns
// the ODs discovered so far with Stats.Interrupted set rather than an error.
func DiscoverContext(ctx context.Context, enc *relation.Encoded, opts Options) (*Result, error) {
	if enc == nil {
		return nil, fmt.Errorf("core: nil relation")
	}
	if enc.NumCols() == 0 {
		return nil, fmt.Errorf("core: relation has no columns")
	}
	if enc.NumCols() > bitset.MaxAttrs {
		return nil, fmt.Errorf("core: relation has %d columns, maximum is %d", enc.NumCols(), bitset.MaxAttrs)
	}
	start := time.Now()
	d, err := newDiscoverer(ctx, enc, opts)
	if err != nil {
		return nil, err
	}
	if opts.DisablePruning {
		d.runNoPruning()
	} else {
		d.run()
	}
	if err := d.eng.Err(); err != nil {
		// A recovered worker panic: the per-node state merged so far may be
		// incoherent (unlike a budget interrupt, which stops at safe points),
		// so fail the discovery rather than report a partial.
		return nil, err
	}
	res := d.result
	if !opts.CountOnly {
		// Node completion order within a level varies with the worker
		// schedule; the total order restores a byte-identical output for any
		// worker count.
		canonical.Sort(res.ODs)
		res.Counts = canonical.CountByKind(res.ODs)
	}
	res.Elapsed = time.Since(start)
	res.ColumnNames = append([]string(nil), enc.ColumnNames...)
	return res, nil
}

// discoverer carries the per-run state of the lattice traversal. The
// traversal itself — node generation and scheduling, partition products and
// retention, the worker pool — is owned by the shared lattice engine; this
// type contributes FASTOD's candidate-set bookkeeping (Algorithms 3 and 4)
// through the engine's node-reentrant visit callback.
type discoverer struct {
	enc  *relation.Encoded
	opts Options

	numAttrs int
	all      bitset.AttrSet // the full schema R
	eng      *lattice.Engine

	// shards accumulate per-worker validation counters across the whole run;
	// they are summed into the result at finish (addition commutes, so the
	// totals match a sequential run exactly).
	shards []checkShard

	// mu guards the node-completion merge: the result's OD list and counters,
	// the per-level stats. The nodes of a level complete in a worker-dependent
	// order and each merges as it completes; determinism survives because
	// counters commute and the OD list is sorted in a total order at the end
	// of the run.
	mu         sync.Mutex
	levelStats map[int]*LevelStat

	result *Result
}

// nodeState is the per-node result the traversal threads along dependency
// edges: the node's candidate sets C+c(X) and C+s(X), exactly the state
// Algorithm 3 reads from the immediate subsets of each node it processes.
type nodeState struct {
	cc bitset.AttrSet
	cs bitset.PairSet
}

func newDiscoverer(ctx context.Context, enc *relation.Encoded, opts Options) (*discoverer, error) {
	d := &discoverer{
		enc:        enc,
		opts:       opts,
		numAttrs:   enc.NumCols(),
		levelStats: make(map[int]*LevelStat),
		result:     &Result{},
	}
	eng, err := lattice.New(enc, lattice.Config{
		Ctx:        ctx,
		Workers:    opts.Workers,
		MaxLevel:   opts.MaxLevel,
		Budget:     opts.Budget,
		Store:      opts.Partitions,
		OnLevelEnd: d.levelEnd,
		OnProgress: opts.Progress,
	})
	if err != nil {
		return nil, err
	}
	d.eng = eng
	d.all = eng.All()
	d.shards = make([]checkShard, eng.Workers())
	return d, nil
}

// levelEnd stamps a visited level's wall-clock time and, when requested,
// publishes its LevelStat. The engine invokes it in level order, once the
// level's visits are done and the next level is generated; a level cut short
// by an interrupt is published too, with the nodes it actually visited.
func (d *discoverer) levelEnd(l int, elapsed time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.levelStats[l]
	if st == nil {
		return
	}
	st.Elapsed = elapsed
	if d.opts.CollectLevelStats {
		d.result.Levels = append(d.result.Levels, *st)
	}
	delete(d.levelStats, l)
}

// flushNode merges one completed node into the run: its discovered ODs, the
// per-kind counters, its level's stats and the pruning tally.
func (d *discoverer) flushNode(l int, buf *emitBuffer, pruned bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.levelStats[l]
	if st == nil {
		st = &LevelStat{Level: l}
		d.levelStats[l] = st
	}
	st.Nodes++
	st.Constancy += buf.constancy
	st.OrderCompat += buf.orderCompat
	d.result.Counts.Constancy += buf.constancy
	d.result.Counts.OrderCompat += buf.orderCompat
	d.result.Counts.Total += buf.constancy + buf.orderCompat
	d.result.ODs = append(d.result.ODs, buf.ods...)
	if pruned {
		d.result.Stats.NodesPruned++
	}
}

// finish folds the per-worker shards and the engine's traversal counters into
// the result.
func (d *discoverer) finish() {
	d.mergeShards(d.shards)
	st := d.eng.Stats()
	d.result.Stats.NodesVisited = st.NodesVisited
	d.result.Stats.MaxLevelReached = st.MaxLevelReached
	d.result.Stats.PartitionHits = st.PartitionHits
	d.result.Stats.PartitionMisses = st.PartitionMisses
	d.result.Stats.Interrupted = st.Interrupted
}

// run executes FASTOD with the full candidate-set machinery (Algorithms 1-4).
// The root state seeds every singleton with C+c(∅) = R and C+s(∅) = ∅.
func (d *discoverer) run() {
	root := &nodeState{cc: d.all}
	d.eng.RunNodes(root, d.visitNode)
	d.finish()
}

// visitNode is Algorithm 3 for one lattice node: it derives the candidate
// sets C+c(X) and C+s(X) from the immediate-subset states in deps, validates
// the candidate ODs, emits the minimal ones, and decides Algorithm 4's
// pruning (both candidate sets empty — Lemma 11). It only reads the node's
// deps and the engine's partition window, so it is node-reentrant: the
// engine runs it concurrently on the nodes of one level.
func (d *discoverer) visitNode(wk, l int, x bitset.AttrSet, deps []any) (any, bool) {
	sh := &d.shards[wk]
	// deps are ordered by ascending removed attribute, so the state of X\{a}
	// sits at a's rank within X.
	prev := func(a int) *nodeState { return deps[x.Rank(a)].(*nodeState) }

	// Pass 1 (lines 1-8): candidate sets from the immediate subsets.
	st := candidates(d.all, x, deps)

	// Pass 2 (lines 9-25): validation and emission.
	var buf emitBuffer

	// Constancy candidates X\A: [] ↦ A for A ∈ X ∩ C+c(X) (Lemma 7).
	x.Intersect(st.cc).ForEach(func(a int) {
		ctx := x.Remove(a)
		if d.checkConstancy(ctx, x, sh) {
			d.bufferOD(&buf, canonical.NewConstancy(ctx, a))
			st.cc = st.cc.Remove(a)
			st.cc = st.cc.Intersect(x) // remove all B ∈ R \ X (line 14)
		}
	})

	// Order-compatibility candidates X\{A,B}: A ~ B for {A,B} ∈ C+s(X)
	// (Lemma 8).
	st.cs.ForEach(func(p bitset.Pair) {
		a, b := p.A, p.B
		if !prev(b).cc.Contains(a) || !prev(a).cc.Contains(b) {
			st.cs.Remove(p) // line 19: constancy in a sub-context makes it non-minimal
			return
		}
		ctx := x.Remove(a).Remove(b)
		valid, minimal := d.checkOrderCompat(ctx, a, b, sh, d.eng.Scratch(wk))
		if valid {
			if minimal {
				d.bufferOD(&buf, canonical.NewOrderCompatible(ctx, a, b))
			}
			st.cs.Remove(p) // line 22
		}
	})

	pruned := l >= 2 && !d.opts.DisableNodePruning && st.cc.IsEmpty() && st.cs.IsEmpty()
	d.flushNode(l, &buf, pruned)
	return st, pruned
}

// candidates is Pass 1 of Algorithm 3 (lines 1-8): it derives C+c(X) and
// C+s(X) from the states of X's immediate subsets, deps ordered by ascending
// removed attribute. Lines 5-8 keep {A,B} ⊆ X only if it is in C+s(X\{D}) for
// every D ∈ X\{A,B}; since C+s(X\{D}) holds only pairs inside X\{D}, that is
// one word-parallel intersection per D of C+s(X\{D}) ∪ {pairs containing D}.
// The same formula yields {{A,B}} at level 2 and ∅ at level 1.
func candidates(all, x bitset.AttrSet, deps []any) *nodeState {
	st := &nodeState{cc: all, cs: bitset.PairsWithin(x)}
	i := 0
	x.ForEach(func(a int) {
		sub := deps[i].(*nodeState)
		st.cc = st.cc.Intersect(sub.cc)
		st.cs.IntersectExcept(&sub.cs, a)
		i++
	})
	return st
}

// checkConstancy validates X\A: [] ↦ A using the partition-error criterion of
// Section 4.6: the FD holds iff e(Π_ctx) == e(Π_x), because Π_x refines
// Π_ctx. When the context is a superkey the OD holds trivially (Lemma 12) and
// the comparison is skipped under key pruning. Counters go to the calling
// worker's shard; the engine guarantees the partitions of a node and its two
// preceding levels are readable while the node runs.
func (d *discoverer) checkConstancy(ctx, x bitset.AttrSet, sh *checkShard) bool {
	sh.fdChecks++
	ctxPart := d.eng.Partition(ctx)
	if !d.opts.DisableKeyPruning && ctxPart.IsSuperkey() {
		sh.keyPrunes++
		return true
	}
	return ctxPart.Error() == d.eng.Partition(x).Error()
}

// checkOrderCompat validates X\{A,B}: A ~ B by scanning the equivalence
// classes of the context partition for swaps (HasSwapWith: each class
// radix-sorted by A-rank, then one pass checking that B never decreases
// across strictly larger A), using the calling worker's engine scratch so
// the check allocates nothing. It returns
// (valid, minimal): when the context is a superkey the OD is valid but never
// minimal (Lemma 13), so it is removed from the candidate set without being
// emitted.
func (d *discoverer) checkOrderCompat(ctx bitset.AttrSet, a, b int, sh *checkShard, s *partition.Scratch) (valid, minimal bool) {
	sh.swapChecks++
	ctxPart := d.eng.Partition(ctx)
	if !d.opts.DisableKeyPruning && ctxPart.IsSuperkey() {
		sh.keyPrunes++
		return true, false
	}
	colA, colB := d.enc.Column(a), d.enc.Column(b)
	if d.opts.NaiveSwapCheck {
		return !ctxPart.HasSwapNaive(colA, colB), true
	}
	return !ctxPart.HasSwapWith(colA, colB, s), true
}

// runNoPruning enumerates the full set lattice and validates every candidate
// OD without any minimality reasoning. It reproduces the "FASTOD-No Pruning"
// configuration of Figure 6: the output contains every valid OD, including
// all the redundant ones. Nodes carry no state (the validations only read the
// partition window), so the visit ignores root and deps and never prunes.
func (d *discoverer) runNoPruning() {
	d.eng.RunNodes(nil, func(wk, l int, x bitset.AttrSet, _ []any) (any, bool) {
		sh := &d.shards[wk]
		var buf emitBuffer
		attrs := x.Attrs()
		for _, a := range attrs {
			ctx := x.Remove(a)
			if d.checkConstancy(ctx, x, sh) {
				d.bufferOD(&buf, canonical.NewConstancy(ctx, a))
			}
		}
		if l >= 2 {
			for p := 0; p < len(attrs); p++ {
				for q := p + 1; q < len(attrs); q++ {
					a, b := attrs[p], attrs[q]
					ctx := x.Remove(a).Remove(b)
					if valid, _ := d.checkOrderCompat(ctx, a, b, sh, d.eng.Scratch(wk)); valid {
						d.bufferOD(&buf, canonical.NewOrderCompatible(ctx, a, b))
					}
				}
			}
		}
		d.flushNode(l, &buf, false)
		return nil, false
	})
	d.finish()
}
