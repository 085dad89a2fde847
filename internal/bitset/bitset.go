// Package bitset provides compact attribute-set representations used by the
// level-wise lattice algorithms (FASTOD, TANE). A relation schema is limited
// to 64 attributes, which matches the widest dataset in the paper's
// evaluation (flight, 40 attributes) with room to spare.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxAttrs is the maximum number of attributes an AttrSet can hold.
const MaxAttrs = 64

// AttrSet is a set of attribute indexes in [0, MaxAttrs), stored as a bitmask.
// The zero value is the empty set. AttrSet is a value type: all operations
// return new sets and never mutate the receiver.
type AttrSet uint64

// NewAttrSet builds a set containing the given attribute indexes.
// It panics if an index is out of range, since that is a programming error.
func NewAttrSet(attrs ...int) AttrSet {
	var s AttrSet
	for _, a := range attrs {
		s = s.Add(a)
	}
	return s
}

// Add returns the set with attribute a added.
func (s AttrSet) Add(a int) AttrSet {
	checkIndex(a)
	return s | (1 << uint(a))
}

// Remove returns the set with attribute a removed.
func (s AttrSet) Remove(a int) AttrSet {
	checkIndex(a)
	return s &^ (1 << uint(a))
}

// Contains reports whether attribute a is in the set.
func (s AttrSet) Contains(a int) bool {
	checkIndex(a)
	return s&(1<<uint(a)) != 0
}

// Union returns the union of s and t.
func (s AttrSet) Union(t AttrSet) AttrSet { return s | t }

// Intersect returns the intersection of s and t.
func (s AttrSet) Intersect(t AttrSet) AttrSet { return s & t }

// Diff returns s with all attributes of t removed.
func (s AttrSet) Diff(t AttrSet) AttrSet { return s &^ t }

// IsEmpty reports whether the set has no attributes.
func (s AttrSet) IsEmpty() bool { return s == 0 }

// Len returns the number of attributes in the set.
func (s AttrSet) Len() int { return bits.OnesCount64(uint64(s)) }

// IsSubsetOf reports whether every attribute of s is also in t.
func (s AttrSet) IsSubsetOf(t AttrSet) bool { return s&^t == 0 }

// Equal reports whether the two sets contain exactly the same attributes.
func (s AttrSet) Equal(t AttrSet) bool { return s == t }

// Attrs returns the attribute indexes in ascending order.
func (s AttrSet) Attrs() []int {
	out := make([]int, 0, s.Len())
	for v := uint64(s); v != 0; {
		a := bits.TrailingZeros64(v)
		out = append(out, a)
		v &^= 1 << uint(a)
	}
	return out
}

// Min returns the smallest attribute in the set, or -1 if the set is empty.
func (s AttrSet) Min() int {
	if s == 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(s))
}

// Max returns the largest attribute in the set, or -1 if the set is empty.
func (s AttrSet) Max() int { return bits.Len64(uint64(s)) - 1 }

// ForEach calls fn for every attribute in ascending order.
func (s AttrSet) ForEach(fn func(a int)) {
	for v := uint64(s); v != 0; {
		a := bits.TrailingZeros64(v)
		fn(a)
		v &^= 1 << uint(a)
	}
}

// Rank returns the number of attributes in s smaller than a — the position of
// a in the ascending enumeration of s when a is a member. The lattice
// algorithms use it to index per-node dependency slices that are ordered by
// ascending removed attribute.
func (s AttrSet) Rank(a int) int {
	checkIndex(a)
	return bits.OnesCount64(uint64(s) & (1<<uint(a) - 1))
}

// Subsets returns every proper subset of s obtained by removing exactly one
// attribute, in ascending order of the removed attribute.
func (s AttrSet) Subsets() []AttrSet {
	out := make([]AttrSet, 0, s.Len())
	s.ForEach(func(a int) { out = append(out, s.Remove(a)) })
	return out
}

// String renders the set like {0,2,5} using attribute indexes.
func (s AttrSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(a int) {
		if !first {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", a)
		first = false
	})
	b.WriteByte('}')
	return b.String()
}

// Names renders the set like {A,C} using the provided attribute names,
// sorted by attribute index.
func (s AttrSet) Names(names []string) string {
	parts := make([]string, 0, s.Len())
	s.ForEach(func(a int) {
		if a < len(names) {
			parts = append(parts, names[a])
		} else {
			parts = append(parts, fmt.Sprintf("#%d", a))
		}
	})
	return "{" + strings.Join(parts, ",") + "}"
}

// checkIndex guards the package's one invariant. The panic deliberately does
// not try to name a lattice node — this package sits below the lattice and
// cannot know one; the engine's recovery frames add that context
// (lattice.PanicContext) when the panic crosses a worker boundary.
func checkIndex(a int) {
	if a < 0 || a >= MaxAttrs {
		panic(fmt.Sprintf("bitset: attribute index %d out of range [0,%d)", a, MaxAttrs))
	}
}

// Pair is an unordered pair of distinct attributes {A,B}. It is normalized so
// that A < B, which makes it usable as a map key and comparable.
type Pair struct {
	A, B int
}

// NewPair returns the normalized pair for attributes a and b.
// It panics if a == b because canonical order-compatibility ODs are defined
// only over distinct attributes.
func NewPair(a, b int) Pair {
	checkIndex(a)
	checkIndex(b)
	if a == b {
		panic(fmt.Sprintf("bitset: pair requires distinct attributes, got %d twice", a))
	}
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// AsSet returns the pair as a two-attribute set.
func (p Pair) AsSet() AttrSet { return NewAttrSet(p.A, p.B) }

// String renders the pair like (1,3).
func (p Pair) String() string { return fmt.Sprintf("(%d,%d)", p.A, p.B) }

// PairSet is a set of unordered attribute pairs, stored as a triangular bit
// matrix: row A holds every B > A with {A,B} in the set. It backs the C+s(X)
// candidate sets in FASTOD. PairSet is a plain value with no pointers, so
// copying it copies the set; the zero value is the empty set. Every operation
// visits only the non-empty rows.
type PairSet struct {
	rows [MaxAttrs]AttrSet
	live AttrSet // a ∈ live iff rows[a] is non-empty
}

// PairsWithin returns every pair of distinct attributes of x.
func PairsWithin(x AttrSet) PairSet {
	var ps PairSet
	x.ForEach(func(a int) {
		ps.setRow(a, x&^(1<<uint(a+1)-1))
	})
	return ps
}

// setRow stores row a and keeps live in step with it.
func (ps *PairSet) setRow(a int, row AttrSet) {
	ps.rows[a] = row
	if row.IsEmpty() {
		ps.live = ps.live.Remove(a)
	} else {
		ps.live = ps.live.Add(a)
	}
}

// Add inserts the pair into the set.
func (ps *PairSet) Add(p Pair) { ps.setRow(p.A, ps.rows[p.A].Add(p.B)) }

// Remove deletes the pair from the set. Removing an absent pair is a no-op.
func (ps *PairSet) Remove(p Pair) { ps.setRow(p.A, ps.rows[p.A].Remove(p.B)) }

// Contains reports whether the pair is in the set.
func (ps *PairSet) Contains(p Pair) bool { return ps.rows[p.A].Contains(p.B) }

// Len returns the number of pairs in the set.
func (ps *PairSet) Len() int {
	n := 0
	ps.live.ForEach(func(a int) { n += ps.rows[a].Len() })
	return n
}

// IsEmpty reports whether the set has no pairs.
func (ps *PairSet) IsEmpty() bool { return ps.live.IsEmpty() }

// ForEach calls fn for every pair in (A,B) order. fn may remove the pair it is
// given, and any pair already visited, without disturbing the iteration.
func (ps *PairSet) ForEach(fn func(p Pair)) {
	ps.live.ForEach(func(a int) {
		for v := uint64(ps.rows[a]); v != 0; v &= v - 1 {
			fn(Pair{A: a, B: bits.TrailingZeros64(v)})
		}
	})
}

// Union returns the pairs present in either set.
func (ps *PairSet) Union(other *PairSet) PairSet {
	out := *ps
	other.live.ForEach(func(a int) { out.setRow(a, out.rows[a]|other.rows[a]) })
	return out
}

// Intersect returns the pairs present in both sets.
func (ps *PairSet) Intersect(other *PairSet) PairSet {
	out := *ps
	ps.live.ForEach(func(a int) { out.setRow(a, out.rows[a]&other.rows[a]) })
	return out
}

// IntersectExcept removes every pair that is absent from other and does not
// contain attribute d: ps becomes ps ∩ (other ∪ {p : d ∈ p}). It is one word
// operation per non-empty row.
func (ps *PairSet) IntersectExcept(other *PairSet, d int) {
	checkIndex(d)
	// Row a < d keeps its pair (a,d) through bit; no row a > d holds d, and
	// row d holds only pairs containing d, so it is left as it is.
	bit := AttrSet(1) << uint(d)
	ps.live.Remove(d).ForEach(func(a int) {
		ps.setRow(a, ps.rows[a]&(other.rows[a]|bit))
	})
}
