package bitset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestAttrSetBasics(t *testing.T) {
	s := NewAttrSet(1, 3, 5)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	for _, a := range []int{1, 3, 5} {
		if !s.Contains(a) {
			t.Errorf("Contains(%d) = false, want true", a)
		}
	}
	for _, a := range []int{0, 2, 4, 63} {
		if s.Contains(a) {
			t.Errorf("Contains(%d) = true, want false", a)
		}
	}
	if got := s.String(); got != "{1,3,5}" {
		t.Errorf("String = %q, want {1,3,5}", got)
	}
}

func TestAttrSetAddRemoveIdempotent(t *testing.T) {
	s := NewAttrSet(2)
	if s.Add(2) != s {
		t.Error("adding an existing attribute changed the set")
	}
	if s.Remove(7) != s {
		t.Error("removing an absent attribute changed the set")
	}
	if !s.Remove(2).IsEmpty() {
		t.Error("removing the only attribute did not produce the empty set")
	}
}

func TestAttrSetOps(t *testing.T) {
	a := NewAttrSet(0, 1, 2)
	b := NewAttrSet(2, 3)
	if got := a.Union(b); !got.Equal(NewAttrSet(0, 1, 2, 3)) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); !got.Equal(NewAttrSet(2)) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Diff(b); !got.Equal(NewAttrSet(0, 1)) {
		t.Errorf("Diff = %v", got)
	}
	if !NewAttrSet(1).IsSubsetOf(a) || b.IsSubsetOf(a) {
		t.Error("IsSubsetOf incorrect")
	}
	if !AttrSet(0).IsSubsetOf(a) {
		t.Error("empty set must be a subset of everything")
	}
}

func TestAttrSetAttrsSorted(t *testing.T) {
	s := NewAttrSet(9, 4, 63, 0)
	got := s.Attrs()
	want := []int{0, 4, 9, 63}
	if len(got) != len(want) {
		t.Fatalf("Attrs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Attrs = %v, want %v", got, want)
		}
	}
}

func TestAttrSetSubsets(t *testing.T) {
	s := NewAttrSet(1, 4, 6)
	subs := s.Subsets()
	if len(subs) != 3 {
		t.Fatalf("len(Subsets) = %d, want 3", len(subs))
	}
	want := []AttrSet{NewAttrSet(4, 6), NewAttrSet(1, 6), NewAttrSet(1, 4)}
	for i, sub := range subs {
		if !sub.Equal(want[i]) {
			t.Errorf("Subsets[%d] = %v, want %v", i, sub, want[i])
		}
		if !sub.IsSubsetOf(s) || sub.Len() != s.Len()-1 {
			t.Errorf("Subsets[%d] = %v is not an immediate subset", i, sub)
		}
	}
}

func TestAttrSetNames(t *testing.T) {
	names := []string{"A", "B", "C"}
	if got := NewAttrSet(0, 2).Names(names); got != "{A,C}" {
		t.Errorf("Names = %q, want {A,C}", got)
	}
	if got := NewAttrSet(5).Names(names); got != "{#5}" {
		t.Errorf("Names with missing name = %q, want {#5}", got)
	}
}

func TestAttrSetPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range index")
		}
	}()
	NewAttrSet(64)
}

func TestPairNormalization(t *testing.T) {
	p := NewPair(5, 2)
	if p.A != 2 || p.B != 5 {
		t.Errorf("NewPair(5,2) = %v, want (2,5)", p)
	}
	if p != NewPair(2, 5) {
		t.Error("pairs with swapped arguments must be equal")
	}
	if !p.AsSet().Equal(NewAttrSet(2, 5)) {
		t.Errorf("AsSet = %v", p.AsSet())
	}
}

func TestPairPanicsOnEqualAttrs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for identical attributes")
		}
	}()
	NewPair(3, 3)
}

func TestPairSetBasics(t *testing.T) {
	var ps PairSet
	if !ps.IsEmpty() {
		t.Fatal("zero pair set should be empty")
	}
	ps.Add(NewPair(0, 1))
	ps.Add(NewPair(1, 0)) // same pair, normalized
	ps.Add(NewPair(2, 3))
	if ps.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ps.Len())
	}
	if !ps.Contains(NewPair(1, 0)) {
		t.Error("Contains failed for normalized pair")
	}
	ps.Remove(NewPair(0, 1))
	if ps.Contains(NewPair(0, 1)) || ps.Len() != 1 {
		t.Error("Remove failed")
	}
}

func TestPairSetSetOps(t *testing.T) {
	var a, b PairSet
	a.Add(NewPair(0, 1))
	a.Add(NewPair(0, 2))
	b.Add(NewPair(0, 2))
	b.Add(NewPair(1, 2))

	inter := a.Intersect(&b)
	if inter.Len() != 1 || !inter.Contains(NewPair(0, 2)) {
		t.Errorf("Intersect = %v", pairsOf(&inter))
	}
	uni := a.Union(&b)
	if uni.Len() != 3 {
		t.Errorf("Union len = %d, want 3", uni.Len())
	}
	clone := a
	clone.Remove(NewPair(0, 1))
	if !a.Contains(NewPair(0, 1)) {
		t.Error("a copy is not independent of the original")
	}

	within := PairsWithin(NewAttrSet(1, 4, 63))
	if got, want := pairsOf(&within), []Pair{{1, 4}, {1, 63}, {4, 63}}; !equalPairs(got, want) {
		t.Errorf("PairsWithin = %v, want %v", got, want)
	}
	// IntersectExcept keeps the pairs of b and those touching attribute 0.
	within = PairsWithin(NewAttrSet(0, 1, 2))
	within.IntersectExcept(&b, 0)
	if got, want := pairsOf(&within), []Pair{{0, 1}, {0, 2}, {1, 2}}; !equalPairs(got, want) {
		t.Errorf("IntersectExcept(b, 0) = %v, want %v", got, want)
	}
	within.IntersectExcept(&a, 2)
	if got, want := pairsOf(&within), []Pair{{0, 1}, {0, 2}, {1, 2}}; !equalPairs(got, want) {
		t.Errorf("IntersectExcept(a, 2) = %v, want %v", got, want)
	}
	within.IntersectExcept(&a, 1)
	if got, want := pairsOf(&within), []Pair{{0, 1}, {0, 2}, {1, 2}}; !equalPairs(got, want) {
		t.Errorf("IntersectExcept(a, 1) = %v, want %v", got, want)
	}
	within.IntersectExcept(&PairSet{}, 1)
	if got, want := pairsOf(&within), []Pair{{0, 1}, {1, 2}}; !equalPairs(got, want) {
		t.Errorf("IntersectExcept(∅, 1) = %v, want %v", got, want)
	}
}

func TestPairSetPairsSorted(t *testing.T) {
	var ps PairSet
	ps.Add(NewPair(3, 1))
	ps.Add(NewPair(0, 2))
	ps.Add(NewPair(0, 1))
	ps.Add(NewPair(63, 62))
	got := pairsOf(&ps)
	want := []Pair{{0, 1}, {0, 2}, {1, 3}, {62, 63}}
	if !equalPairs(got, want) {
		t.Fatalf("ForEach order = %v, want %v", got, want)
	}
	// Removing the visited pair mid-iteration neither skips nor repeats one.
	var seen []Pair
	ps.ForEach(func(p Pair) {
		seen = append(seen, p)
		ps.Remove(p)
	})
	if !equalPairs(seen, want) || !ps.IsEmpty() {
		t.Fatalf("ForEach with removal visited %v, left %d pairs", seen, ps.Len())
	}
}

// Model-based property: random operation sequences on a PairSet agree with a
// map[Pair]bool model on every observation. The attribute pool includes the
// word edges 0, 62 and 63, so an off-by-one in a row mask or shift fails.
func TestPairSetModelQuick(t *testing.T) {
	pool := []int{0, 1, 2, 5, 31, 32, 33, 61, 62, 63}
	rng := rand.New(rand.NewSource(13))
	randPair := func() Pair {
		a := pool[rng.Intn(len(pool))]
		b := pool[rng.Intn(len(pool))]
		for b == a {
			b = pool[rng.Intn(len(pool))]
		}
		return NewPair(a, b)
	}
	randSet := func() (PairSet, map[Pair]bool) {
		var ps PairSet
		m := make(map[Pair]bool)
		for n := rng.Intn(12); n > 0; n-- {
			p := randPair()
			ps.Add(p)
			m[p] = true
		}
		return ps, m
	}
	check := func(step int, op string, ps *PairSet, model map[Pair]bool) {
		t.Helper()
		var want []Pair
		for p := range model {
			want = append(want, p)
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].A != want[j].A {
				return want[i].A < want[j].A
			}
			return want[i].B < want[j].B
		})
		if got := pairsOf(ps); !equalPairs(got, want) {
			t.Fatalf("step %d (%s): pairs = %v, model %v", step, op, got, want)
		}
		if ps.Len() != len(model) || ps.IsEmpty() != (len(model) == 0) {
			t.Fatalf("step %d (%s): Len %d IsEmpty %v, model has %d", step, op, ps.Len(), ps.IsEmpty(), len(model))
		}
		for _, a := range pool {
			for _, b := range pool {
				if a < b && ps.Contains(Pair{a, b}) != model[Pair{a, b}] {
					t.Fatalf("step %d (%s): Contains(%d,%d) = %v, model %v", step, op, a, b, !model[Pair{a, b}], model[Pair{a, b}])
				}
			}
		}
	}

	for trial := 0; trial < 200; trial++ {
		var ps PairSet
		model := make(map[Pair]bool)
		for step := 0; step < 40; step++ {
			var op string
			switch rng.Intn(5) {
			case 0, 1:
				op = "Add"
				p := randPair()
				ps.Add(p)
				model[p] = true
			case 2:
				op = "Remove"
				p := randPair()
				ps.Remove(p)
				delete(model, p)
			case 3:
				op = "Union"
				other, om := randSet()
				ps = ps.Union(&other)
				for p := range om {
					model[p] = true
				}
			case 4:
				op = "Intersect"
				other, om := randSet()
				for p := range model {
					if !om[p] {
						delete(model, p)
					}
				}
				// Seed the other set with pairs already present so an
				// intersection does not almost always empty the set.
				ps.ForEach(func(p Pair) {
					if rng.Intn(2) == 0 {
						other.Add(p)
						om[p] = true
						model[p] = true
					}
				})
				ps = ps.Intersect(&other)
			}
			check(step, op, &ps, model)
		}
	}
}

// pairsOf collects the pairs of ps in ForEach order.
func pairsOf(ps *PairSet) []Pair {
	var out []Pair
	ps.ForEach(func(p Pair) { out = append(out, p) })
	return out
}

func equalPairs(got, want []Pair) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestAttrSetMinMax(t *testing.T) {
	for _, tc := range []struct {
		s        AttrSet
		min, max int
	}{
		{0, -1, -1},
		{NewAttrSet(0), 0, 0},
		{NewAttrSet(63), 63, 63},
		{NewAttrSet(2, 7, 40), 2, 40},
		{NewAttrSet(0, 62, 63), 0, 63},
	} {
		if tc.s.Min() != tc.min || tc.s.Max() != tc.max {
			t.Errorf("%v: Min/Max = %d/%d, want %d/%d", tc.s, tc.s.Min(), tc.s.Max(), tc.min, tc.max)
		}
	}
}

// Property: union and intersection behave like their mathematical definitions
// on membership, for arbitrary bitmasks.
func TestAttrSetAlgebraQuick(t *testing.T) {
	f := func(x, y uint64, attr uint8) bool {
		a, b := AttrSet(x), AttrSet(y)
		i := int(attr % MaxAttrs)
		inUnion := a.Union(b).Contains(i) == (a.Contains(i) || b.Contains(i))
		inInter := a.Intersect(b).Contains(i) == (a.Contains(i) && b.Contains(i))
		inDiff := a.Diff(b).Contains(i) == (a.Contains(i) && !b.Contains(i))
		return inUnion && inInter && inDiff
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Attrs round-trips through NewAttrSet.
func TestAttrSetRoundTripQuick(t *testing.T) {
	f := func(x uint64) bool {
		s := AttrSet(x)
		return NewAttrSet(s.Attrs()...).Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: the immediate subsets of a set each have exactly one fewer
// attribute and their union (for |s| >= 2) is the original set.
func TestAttrSetSubsetsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		s := AttrSet(rng.Uint64())
		if s.Len() < 2 {
			continue
		}
		var union AttrSet
		for _, sub := range s.Subsets() {
			if sub.Len() != s.Len()-1 || !sub.IsSubsetOf(s) {
				t.Fatalf("bad subset %v of %v", sub, s)
			}
			union = union.Union(sub)
		}
		if !union.Equal(s) {
			t.Fatalf("union of subsets %v != %v", union, s)
		}
	}
}
