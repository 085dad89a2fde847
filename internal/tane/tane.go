// Package tane is a clean-room implementation of the TANE functional
// dependency discovery algorithm (Huhtala et al., ICDE 1998), the FD-only
// baseline the paper compares FASTOD against in Experiment 4. Like FASTOD it
// traverses the set-containment lattice level by level with stripped
// partitions and candidate sets — the traversal itself (node generation,
// partition products, the worker pool) is the shared engine in
// internal/lattice — but it only looks for splits, so it cannot discover
// order semantics.
package tane

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/lattice"
	"repro/internal/relation"
)

// FD is a minimal functional dependency LHS → RHS with a single right-hand
// side attribute, the canonical output form of TANE.
type FD struct {
	LHS bitset.AttrSet
	RHS int
}

// String renders the FD with attribute indexes.
func (fd FD) String() string { return fmt.Sprintf("%s -> %d", fd.LHS, fd.RHS) }

// NamesString renders the FD with attribute names.
func (fd FD) NamesString(names []string) string {
	rhs := fmt.Sprintf("#%d", fd.RHS)
	if fd.RHS >= 0 && fd.RHS < len(names) {
		rhs = names[fd.RHS]
	}
	return fd.LHS.Names(names) + " -> " + rhs
}

// Options configures a TANE run.
type Options struct {
	// MaxLevel, when positive, bounds the lattice level that is processed.
	MaxLevel int
	// Workers is the number of goroutines processing lattice nodes, with the
	// same convention as core.Options.Workers (0 = GOMAXPROCS, 1 =
	// sequential). The output is identical regardless of the setting.
	Workers int
	// Budget bounds the run's wall-clock time and visited lattice nodes; see
	// core.Options.Budget for the interrupt semantics.
	Budget lattice.Budget
	// Progress, when non-nil, receives one event per completed lattice level;
	// see core.Options.Progress.
	Progress func(lattice.ProgressEvent)
	// Partitions, when non-nil, shares stripped partitions with other runs
	// over the same relation; see core.Options.Partitions.
	Partitions *lattice.PartitionStore
}

// Result is the outcome of a TANE run.
type Result struct {
	FDs     []FD
	Elapsed time.Duration
	// NodesVisited counts lattice nodes processed, for comparison with FASTOD.
	NodesVisited int
	// Stats carries the engine's traversal counters (nodes, partition store
	// hits/misses, interruption).
	Stats lattice.Stats
	// Interrupted reports that the run stopped early on context cancellation
	// or budget exhaustion; FDs then holds everything found up to the
	// interrupt.
	Interrupted bool
}

// Discover runs TANE with a background context; see DiscoverContext.
func Discover(enc *relation.Encoded, opts Options) (*Result, error) {
	//lint:allow ctxfirst convenience wrapper kept for callers that cannot cancel; DiscoverContext is the cancellable entry point
	return DiscoverContext(context.Background(), enc, opts)
}

// DiscoverContext runs TANE over an encoded relation and returns the complete
// set of minimal, non-trivial functional dependencies with singleton
// right-hand sides. Cancellation and Options.Budget are honored cooperatively
// (see core.DiscoverContext): an interrupted run returns partial FDs with
// Interrupted set.
func DiscoverContext(ctx context.Context, enc *relation.Encoded, opts Options) (*Result, error) {
	if enc == nil || enc.NumCols() == 0 {
		return nil, fmt.Errorf("tane: empty relation")
	}
	if enc.NumCols() > bitset.MaxAttrs {
		return nil, fmt.Errorf("tane: relation has %d columns, maximum is %d", enc.NumCols(), bitset.MaxAttrs)
	}
	start := time.Now()
	eng, err := lattice.New(enc, lattice.Config{
		Ctx:        ctx,
		Workers:    opts.Workers,
		MaxLevel:   opts.MaxLevel,
		Budget:     opts.Budget,
		Store:      opts.Partitions,
		OnProgress: opts.Progress,
	})
	if err != nil {
		return nil, err
	}
	all := eng.All()
	res := &Result{}

	// The per-node visit: derive C+(X) from the immediate-subset candidate
	// sets in deps, validate X\A → A for A ∈ X ∩ C+(X) against the
	// partitions the node handle serves, and prune nodes whose candidate set
	// empties (no superset can yield a minimal FD). Discovered FDs are merged
	// under a mutex at node completion — emission order is
	// schedule-dependent, the final total-order sort restores determinism.
	var mu sync.Mutex
	lattice.RunNodes(eng, all, func(wk int, n lattice.Node, deps []*bitset.AttrSet) (bitset.AttrSet, bool) {
		x := n.Set
		cc := all
		for _, sub := range deps {
			cc = cc.Intersect(*sub)
		}
		var found []FD
		for _, a := range x.Intersect(cc).Attrs() {
			if ctxPart := n.SubPartition(a); ctxPart.IsSuperkey() || ctxPart.Error() == n.Partition().Error() {
				found = append(found, FD{LHS: x.Remove(a), RHS: a})
				cc = cc.Remove(a)
				cc = cc.Intersect(x)
			}
		}
		if len(found) > 0 {
			mu.Lock()
			res.FDs = append(res.FDs, found...)
			mu.Unlock()
		}
		return cc, n.Level >= 2 && cc.IsEmpty()
	})
	if err := eng.Err(); err != nil {
		// A recovered worker panic: the FDs merged so far may be incoherent,
		// so fail the discovery instead of reporting a partial.
		return nil, err
	}
	res.Stats = eng.Stats()
	res.NodesVisited = res.Stats.NodesVisited
	res.Interrupted = res.Stats.Interrupted

	sort.Slice(res.FDs, func(i, j int) bool {
		a, b := res.FDs[i], res.FDs[j]
		if a.LHS.Len() != b.LHS.Len() {
			return a.LHS.Len() < b.LHS.Len()
		}
		if a.LHS != b.LHS {
			return a.LHS < b.LHS
		}
		return a.RHS < b.RHS
	})
	res.Elapsed = time.Since(start)
	return res, nil
}
