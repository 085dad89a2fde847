package core

import (
	"context"
	"fmt"
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
// traversal itself — node generation, partition derivation and retention,
// the worker pool — is owned by the shared lattice engine; this type
// contributes FASTOD's candidate-set bookkeeping (Algorithms 3 and 4)
// through the engine's node-reentrant visit callback.
type discoverer struct {
	enc  *relation.Encoded
	opts Options

	all bitset.AttrSet // the full schema R
	eng *lattice.Engine

	// shards hold each worker's share of the run (see checkShard).
	shards []checkShard

	result *Result
}

// nodeState is the per-node result the traversal threads along dependency
// edges: the node's candidate sets C+c(X) and C+s(X), exactly the state
// Algorithm 3 reads from the immediate subsets of each node it processes.
// It lives by value in the engine's per-level result slab; the rows of cs
// come from the visiting worker's arena.
type nodeState struct {
	cc bitset.AttrSet
	cs bitset.PairSet
}

func newDiscoverer(ctx context.Context, enc *relation.Encoded, opts Options) (*discoverer, error) {
	d := &discoverer{
		enc:    enc,
		opts:   opts,
		result: &Result{},
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
	st := d.drainLevel()
	if st.Nodes == 0 {
		return
	}
	st.Level, st.Elapsed = l, elapsed
	if d.opts.CollectLevelStats {
		d.result.Levels = append(d.result.Levels, st)
	}
}

// finish folds the per-worker shards and the engine's traversal counters into
// the result.
func (d *discoverer) finish() {
	d.drainLevel()
	d.mergeShards()
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
	lattice.RunNodes(d.eng, nodeState{cc: d.all}, d.visitNode)
	d.finish()
}

// visitNode is Algorithm 3 for one lattice node: it derives the candidate
// sets C+c(X) and C+s(X) from the immediate-subset states in deps, validates
// the candidate ODs, emits the minimal ones, and decides Algorithm 4's
// pruning (both candidate sets empty — Lemma 11). It only reads the node's
// deps and the partitions its Node handle serves, so it is node-reentrant:
// the engine runs it concurrently on the nodes of one level.
func (d *discoverer) visitNode(wk int, n lattice.Node, deps []*nodeState) (nodeState, bool) {
	sh := &d.shards[wk]
	x := n.Set

	// Pass 1 (lines 1-8): candidate sets from the immediate subsets.
	st := candidates(d.all, x, deps, sh.carve(d.enc.NumCols()))

	// Pass 2 (lines 9-25): validation and emission.
	// Constancy candidates X\A: [] ↦ A for A ∈ X ∩ C+c(X) (Lemma 7).
	x.Intersect(st.cc).ForEach(func(a int) {
		if d.checkConstancy(n, a, sh) {
			d.emit(sh, canonical.NewConstancy(x.Remove(a), a))
			st.cc = st.cc.Remove(a)
			st.cc = st.cc.Intersect(x) // remove all B ∈ R \ X (line 14)
		}
	})

	// Order-compatibility candidates X\{A,B}: A ~ B for {A,B} ∈ C+s(X)
	// (Lemma 8). deps are ordered by ascending removed attribute, so the
	// state of X\{a} sits at a's rank within X.
	st.cs.ForEach(func(p bitset.Pair) {
		a, b := p.A, p.B
		if !deps[x.Rank(b)].cc.Contains(a) || !deps[x.Rank(a)].cc.Contains(b) {
			st.cs.Remove(p) // line 19: constancy in a sub-context makes it non-minimal
			return
		}
		valid, minimal := d.checkOrderCompat(n, a, b, sh, d.eng.Scratch(wk))
		if valid {
			if minimal {
				d.emit(sh, canonical.NewOrderCompatible(x.Remove(a).Remove(b), a, b))
			}
			st.cs.Remove(p) // line 22
		}
	})

	pruned := n.Level >= 2 && !d.opts.DisableNodePruning && st.cc.IsEmpty() && st.cs.IsEmpty()
	sh.flushNode(pruned)
	return st, pruned
}

// candidates is Pass 1 of Algorithm 3 (lines 1-8): it derives C+c(X) and
// C+s(X) from the states of X's immediate subsets, deps ordered by ascending
// removed attribute, storing C+s(X) in rows (at least X.Max()+1 words, see
// bitset.PairsWithin). Lines 5-8 keep {A,B} ⊆ X only if it is in C+s(X\{D})
// for every D ∈ X\{A,B}; since C+s(X\{D}) holds only pairs inside X\{D},
// that is one word-parallel intersection per D of C+s(X\{D}) ∪ {pairs
// containing D}. The same formula yields {{A,B}} at level 2 and ∅ at level 1.
func candidates(all, x bitset.AttrSet, deps []*nodeState, rows []bitset.AttrSet) nodeState {
	st := nodeState{cc: all, cs: bitset.PairsWithin(x, rows)}
	i := 0
	for v := x; v != 0; v &= v - 1 {
		sub := deps[i]
		st.cc = st.cc.Intersect(sub.cc)
		st.cs.IntersectExcept(&sub.cs, v.Min())
		i++
	}
	return st
}

// checkConstancy validates X\A: [] ↦ A using the partition-error criterion of
// Section 4.6: the FD holds iff e(Π_ctx) == e(Π_x), because Π_x refines
// Π_ctx. When the context is a superkey the OD holds trivially (Lemma 12) and
// the comparison is skipped under key pruning. Counters go to the calling
// worker's shard; the context is the node minus a, read through the node
// handle.
func (d *discoverer) checkConstancy(n lattice.Node, a int, sh *checkShard) bool {
	sh.fdChecks++
	ctxPart := n.SubPartition(a)
	if !d.opts.DisableKeyPruning && ctxPart.IsSuperkey() {
		sh.keyPrunes++
		return true
	}
	return ctxPart.Error() == n.Partition().Error()
}

// checkOrderCompat validates X\{A,B}: A ~ B by scanning the equivalence
// classes of the context partition for swaps (HasSwapWith: each class
// radix-sorted by A-rank, then one pass checking that B never decreases
// across strictly larger A), using the calling worker's engine scratch so
// the check allocates nothing. It returns
// (valid, minimal): when the context is a superkey the OD is valid but never
// minimal (Lemma 13), so it is removed from the candidate set without being
// emitted. The context is the node minus a and b.
func (d *discoverer) checkOrderCompat(n lattice.Node, a, b int, sh *checkShard, s *partition.Scratch) (valid, minimal bool) {
	sh.swapChecks++
	ctxPart := n.SubSubPartition(a, b)
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
// all the redundant ones. Nodes carry no state (the validations only read
// partitions through the node handle), so the visit ignores deps and never
// prunes.
func (d *discoverer) runNoPruning() {
	lattice.RunNodes(d.eng, struct{}{}, func(wk int, n lattice.Node, _ []*struct{}) (struct{}, bool) {
		sh := &d.shards[wk]
		x := n.Set
		attrs := x.Attrs()
		for _, a := range attrs {
			if d.checkConstancy(n, a, sh) {
				d.emit(sh, canonical.NewConstancy(x.Remove(a), a))
			}
		}
		if n.Level >= 2 {
			for p := 0; p < len(attrs); p++ {
				for q := p + 1; q < len(attrs); q++ {
					a, b := attrs[p], attrs[q]
					if valid, _ := d.checkOrderCompat(n, a, b, sh, d.eng.Scratch(wk)); valid {
						d.emit(sh, canonical.NewOrderCompatible(x.Remove(a).Remove(b), a, b))
					}
				}
			}
		}
		sh.flushNode(false)
		return struct{}{}, false
	})
	d.finish()
}
