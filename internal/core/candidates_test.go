package core

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// literalSwapCandidates is Algorithm 3, lines 5-8, as the paper states it,
// over map-backed pair sets: C+s(X) is {{A,B}} at level 2; above it, every
// pair of the union of the subsets' C+s survives only if each X\{D} with
// D ∉ {A,B} lists it too. subs maps D to C+s(X\{D}).
func literalSwapCandidates(x bitset.AttrSet, subs map[int]map[bitset.Pair]bool) map[bitset.Pair]bool {
	out := make(map[bitset.Pair]bool)
	switch {
	case x.Len() == 2:
		out[bitset.NewPair(x.Min(), x.Max())] = true
	case x.Len() > 2:
		union := make(map[bitset.Pair]bool)
		for _, cs := range subs {
			for p := range cs {
				union[p] = true
			}
		}
		for p := range union {
			keep := true
			x.Diff(p.AsSet()).ForEach(func(d int) {
				keep = keep && subs[d][p]
			})
			if keep {
				out[p] = true
			}
		}
	}
	return out
}

// TestCandidatesMatchLiteralAlgorithm3 checks the word-parallel derivation of
// C+c(X) and C+s(X) against the literal formulation, over random schemas and
// random immediate-subset states, each with width-sized candidate rows as the
// traversal carves them. Each C+s(X\{D}) is drawn from a shared base
// set (so the intersection keeps something) with per-subset noise, restricted
// to pairs inside X\{D} as the traversal guarantees.
func TestCandidatesMatchLiteralAlgorithm3(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 3000; trial++ {
		n := 3 + rng.Intn(14) // 3..16 attributes
		all := bitset.AttrSet(1<<uint(n) - 1)
		x := bitset.AttrSet(rng.Uint64()) & all
		if x.IsEmpty() {
			x = x.Add(rng.Intn(n))
		}
		base := make(map[bitset.Pair]bool)
		within := bitset.PairsWithin(x, nil)
		within.ForEach(func(p bitset.Pair) {
			if rng.Intn(4) != 0 {
				base[p] = true
			}
		})

		deps := make([]*nodeState, 0, x.Len())
		subs := make(map[int]map[bitset.Pair]bool)
		wantCC := all
		x.ForEach(func(d int) {
			sub := x.Remove(d)
			st := &nodeState{cc: bitset.AttrSet(rng.Uint64()) & all, cs: bitset.PairsWithin(0, make([]bitset.AttrSet, n))}
			wantCC = wantCC.Intersect(st.cc)
			m := make(map[bitset.Pair]bool)
			subPairs := bitset.PairsWithin(sub, nil)
			subPairs.ForEach(func(p bitset.Pair) {
				if base[p] != (rng.Intn(10) == 0) {
					st.cs.Add(p)
					m[p] = true
				}
			})
			deps = append(deps, st)
			subs[d] = m
		})

		got := candidates(all, x, deps, make([]bitset.AttrSet, n))
		want := literalSwapCandidates(x, subs)
		if got.cc != wantCC {
			t.Fatalf("trial %d X=%v: C+c = %v, want %v", trial, x, got.cc, wantCC)
		}
		if got.cs.Len() != len(want) {
			t.Fatalf("trial %d X=%v: |C+s| = %d, want %d", trial, x, got.cs.Len(), len(want))
		}
		got.cs.ForEach(func(p bitset.Pair) {
			if !want[p] {
				t.Fatalf("trial %d X=%v: C+s has %v, literal Algorithm 3 does not", trial, x, p)
			}
		})
	}
}

// TestCandidatesAllocFree: with caller-supplied rows, deriving a node's
// candidate sets allocates nothing — the per-node path of the traversal
// touches only the worker's arena and the level's result slab.
func TestCandidatesAllocFree(t *testing.T) {
	const n = 13
	all := bitset.AttrSet(1<<n - 1)
	x := bitset.NewAttrSet(1, 4, 5, 9, 12)
	deps := make([]*nodeState, 0, x.Len())
	x.ForEach(func(d int) {
		deps = append(deps, &nodeState{cc: all, cs: bitset.PairsWithin(x.Remove(d), make([]bitset.AttrSet, n))})
	})
	rows := make([]bitset.AttrSet, n)
	var st nodeState
	if allocs := testing.AllocsPerRun(100, func() { st = candidates(all, x, deps, rows) }); allocs != 0 {
		t.Errorf("candidates allocated %v times per call, want 0", allocs)
	}
	if want := x.Len() * (x.Len() - 1) / 2; st.cs.Len() != want {
		t.Errorf("|C+s| = %d, want every pair of X (%d)", st.cs.Len(), want)
	}
}
