package lattice

import (
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/faultinject"
	"repro/internal/partition"
)

// level is one level l of the dense level table: its attribute sets in
// lexicographic order of their ascending attribute lists, so each prefix
// block of Algorithm 2 is a contiguous run, with their partitions, and sub:
// sub[i*l+k] is the position in level l-1 of sets[i] minus its k-th smallest
// attribute. pruned is filled in by the level's visits.
type level struct {
	sets   []bitset.AttrSet
	parts  []*partition.Partition
	sub    []int32
	pruned []bool
}

// lexLess orders two attribute sets of equal size lexicographically: the set
// holding the smallest attribute in which they differ comes first.
func lexLess(x, y bitset.AttrSet) bool {
	d := x ^ y
	return x&d&-d != 0
}

// find returns the position of x in lv.sets at or after from, or -1.
func (lv *level) find(x bitset.AttrSet, from int) int {
	lo, hi := from, len(lv.sets)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); lexLess(lv.sets[m], x) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(lv.sets) && lv.sets[lo] == x {
		return lo
	}
	return -1
}

// Node is a visit's handle on one lattice node: its attribute set, its level
// and index access to the partitions its validations read. It is valid only
// during the visit it was handed to.
type Node struct {
	Set   bitset.AttrSet
	Level int
	i     int
	e     *Engine
}

// Partition returns the node's stripped partition.
func (n Node) Partition() *partition.Partition { return n.e.win[0].parts[n.i] }

// SubPartition returns the partition of Set minus a; a must be in Set.
func (n Node) SubPartition(a int) *partition.Partition { return n.e.win[1].parts[n.sub(a)] }

// SubSubPartition returns the partition of Set minus a and b, two distinct
// members of Set.
func (n Node) SubSubPartition(a, b int) *partition.Partition {
	j := n.e.win[1].sub[int(n.sub(a))*(n.Level-1)+n.Set.Remove(a).Rank(b)]
	return n.e.win[2].parts[j]
}

// sub is the position in the previous level of Set minus a.
func (n Node) sub(a int) int32 { return n.e.win[0].sub[n.i*n.Level+n.Set.Rank(a)] }

// firstLevel seeds the table with level 0 (the empty set) and level 1 (the
// singletons), building the column partitions the store lacks in parallel.
func (e *Engine) firstLevel() {
	p0, ok := e.storeGet(0)
	if !ok {
		p0 = partition.FromConstant(e.enc.NumRows())
		e.storePut(0, p0)
	}
	lv := &level{
		sets:  make([]bitset.AttrSet, e.numAttrs),
		parts: make([]*partition.Partition, e.numAttrs),
		sub:   make([]int32, e.numAttrs),
	}
	miss := make([]int, 0, e.numAttrs)
	for a := range lv.sets {
		lv.sets[a] = bitset.NewAttrSet(a)
		if lv.parts[a], ok = e.storeGet(lv.sets[a]); !ok {
			miss = append(miss, a)
		}
	}
	e.ParallelFor(len(miss), func(_, k int) {
		a := miss[k]
		lv.parts[a] = partition.FromColumn(e.enc.Column(a), e.enc.Cardinality[a])
	})
	for _, a := range miss {
		e.storePut(lv.sets[a], lv.parts[a])
	}
	e.win = [3]*level{lv, {sets: []bitset.AttrSet{0}, parts: []*partition.Partition{p0}}}
}

// nextLevel is Algorithm 2 over the level table: it joins the unpruned
// members of each prefix block of level l, keeps a candidate only if its
// every immediate subset is an unpruned node of level l, derives the new
// nodes' partitions and shifts the window. The join emits candidates in
// lexicographic order. The two joined parents are known positions; each
// other subset takes one binary search. The shared store is probed during
// the join, and only its misses are derived, in parallel.
func (e *Engine) nextLevel(l int) {
	cur := e.win[0]
	bound := 0 // every pair of unpruned block members
	forEachBlock(cur.sets, func(lo, hi int) {
		c := 0
		for _, p := range cur.pruned[lo:hi] {
			if !p {
				c++
			}
		}
		bound += c * (c - 1) / 2
	})
	next := &level{
		sets:  make([]bitset.AttrSet, 0, bound),
		parts: make([]*partition.Partition, 0, bound),
		sub:   make([]int32, 0, bound*(l+1)),
	}
	var miss []int32 // store misses, put in join order
	forEachBlock(cur.sets, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			prefix := cur.sets[i].Remove(cur.sets[i].Max())
		join:
			for j := i + 1; j < hi && !cur.pruned[i]; j++ {
				if cur.pruned[j] {
					continue
				}
				// Subsets by ascending removed attribute: those missing a
				// prefix attribute, which follow the block in lexicographic
				// order, then sets[j] and sets[i].
				x, base := cur.sets[i]|cur.sets[j], len(next.sub)
				for v := uint64(prefix); v != 0; v &= v - 1 {
					k := cur.find(x&^(1<<uint(bits.TrailingZeros64(v))), hi)
					if k < 0 || cur.pruned[k] {
						next.sub = next.sub[:base]
						continue join
					}
					next.sub = append(next.sub, int32(k))
				}
				next.sub = append(next.sub, int32(j), int32(i))
				p, ok := e.storeGet(x)
				if !ok && e.store != nil {
					miss = append(miss, int32(len(next.sets)))
				}
				next.sets = append(next.sets, x)
				next.parts = append(next.parts, p)
			}
		}
	})
	e.ParallelFor(len(next.sets), func(wk, i int) {
		if next.parts[i] != nil {
			return
		}
		x := next.sets[i]
		// Record a derivation panic with its node, which the worker-level
		// trap would not know.
		defer func() {
			if rec := recover(); rec != nil {
				e.recordPanic(rec, x, true)
			}
		}()
		next.parts[i] = e.derive(x, next.sub[i*(l+1):(i+1)*(l+1)], cur.parts, e.scratch[wk])
	})
	for _, i := range miss {
		e.storePut(next.sets[i], next.parts[i])
	}
	e.win = [3]*level{next, cur, e.win[1]}
}

// forEachBlock calls fn with the bounds [lo, hi) of every prefix block of a
// lexicographically sorted level: the runs of sets that agree on all but
// their largest attribute.
func forEachBlock(sets []bitset.AttrSet, fn func(lo, hi int)) {
	for lo, hi := 0, 0; lo < len(sets); lo = hi {
		prefix := sets[lo].Remove(sets[lo].Max())
		for hi = lo + 1; hi < len(sets) && sets[hi].Remove(sets[hi].Max()) == prefix; hi++ {
		}
		fn(lo, hi)
	}
}

// derive computes the stripped partition of a level-l node x (l >= 2) from
// its immediate subsets, using Π(X) = Π(X \ {A}) · Π(A) for any A in X: it
// takes the immediate subset X \ {A} with the smallest stripped partition
// and refines it by A's rank column, so the cost is linear in that smallest
// Size(). Ties go to the largest A. Every node is derived through this one
// rule, and a parent's Size does not depend on how it was derived, so a given
// attribute set always gets the same partition, class order included, at any
// worker count. sub is x's row of the level table and parents the previous
// level's partitions.
func (e *Engine) derive(x bitset.AttrSet, sub []int32, parents []*partition.Partition, s *partition.Scratch) *partition.Partition {
	var base *partition.Partition
	refineBy := -1
	for k, v := 0, uint64(x); v != 0; k, v = k+1, v&(v-1) {
		if p := parents[sub[k]]; base == nil || p.Size() <= base.Size() {
			base, refineBy = p, bits.TrailingZeros64(v)
		}
	}
	faultinject.Hit(faultinject.PartitionProduct)
	return base.RefineWith(e.enc.Column(refineBy), s)
}
