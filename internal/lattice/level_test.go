package lattice

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/bitset"
	"repro/internal/relation"
)

// tinyEncoded builds a width-w relation of the given rows over a three-value
// domain, so few attribute sets are keys and most have distinct partitions.
func tinyEncoded(t testing.TB, rng *rand.Rand, w, rows int) *relation.Encoded {
	t.Helper()
	header := make([]string, w)
	for a := range header {
		header[a] = "c" + strconv.Itoa(a)
	}
	data := make([][]string, rows)
	for i := range data {
		data[i] = make([]string, w)
		for a := range data[i] {
			data[i][a] = strconv.Itoa(rng.Intn(3))
		}
	}
	rel, err := relation.FromRows("tiny", header, data)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := relation.Encode(rel)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// lexCompare orders attribute sets by their ascending attribute lists,
// independently of lexLess.
func lexCompare(x, y bitset.AttrSet) int { return slices.Compare(x.Attrs(), y.Attrs()) }

// checkLevelTable drives the level table over a width-w schema, pruning the
// nodes prune selects, and checks every generated level against the literal
// Apriori-gen: the next level holds exactly the (l+1)-sets whose l-subsets
// are all unpruned nodes, in strictly increasing lexicographic order, and
// sub[i*(l+1)+k] names sets[i] minus its k-th smallest attribute.
func checkLevelTable(t testing.TB, enc *relation.Encoded, prune func(l, i int) bool) {
	t.Helper()
	e, err := New(enc, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := enc.NumCols()
	e.firstLevel()
	for l := 1; len(e.win[0].sets) > 0; l++ {
		cur := e.win[0]
		cur.pruned = make([]bool, len(cur.sets))
		alive := make(map[bitset.AttrSet]bool, len(cur.sets))
		for i, x := range cur.sets {
			cur.pruned[i] = prune(l, i)
			if !cur.pruned[i] {
				alive[x] = true
			}
		}
		e.nextLevel(l)
		next := e.win[0]

		var want []bitset.AttrSet
		for x := bitset.AttrSet(1); x < 1<<uint(w); x++ {
			if x.Len() != l+1 {
				continue
			}
			ok := true
			x.ForEach(func(a int) { ok = ok && alive[x.Remove(a)] })
			if ok {
				want = append(want, x)
			}
		}
		slices.SortFunc(want, lexCompare)
		for i := 1; i < len(next.sets); i++ {
			if lexCompare(next.sets[i-1], next.sets[i]) >= 0 {
				t.Fatalf("w=%d level %d: %v at %d does not follow %v in lexicographic order", w, l+1, next.sets[i], i, next.sets[i-1])
			}
		}
		if !slices.Equal(next.sets, want) {
			t.Fatalf("w=%d level %d = %v, Apriori-gen gives %v", w, l+1, next.sets, want)
		}
		if len(next.sub) != len(next.sets)*(l+1) || len(next.parts) != len(next.sets) {
			t.Fatalf("w=%d level %d: %d sets, %d sub entries, %d partitions", w, l+1, len(next.sets), len(next.sub), len(next.parts))
		}
		for i, x := range next.sets {
			if next.parts[i] == nil {
				t.Fatalf("w=%d: no partition derived for %v", w, x)
			}
			for k, a := range x.Attrs() {
				if got := cur.sets[next.sub[i*(l+1)+k]]; got != x.Remove(a) {
					t.Fatalf("w=%d: sub[%d*%d+%d] of %v names %v, want %v", w, i, l+1, k, x, got, x.Remove(a))
				}
			}
		}
	}
}

// TestNextLevelMatchesAprioriGen checks the level table's prefix join over
// random widths 1-14 and random pruning densities.
func TestNextLevelMatchesAprioriGen(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 60; trial++ {
		w := 1 + rng.Intn(14)
		density := rng.Float64() * 0.4
		checkLevelTable(t, tinyEncoded(t, rng, w, 6), func(int, int) bool { return rng.Float64() < density })
	}
}

// FuzzNextLevel is TestNextLevelMatchesAprioriGen with the width and the
// pruned masks taken from the fuzzer: node i of every level reads the next
// bit of mask (cycled; an empty mask prunes nothing).
func FuzzNextLevel(f *testing.F) {
	f.Add(uint8(13), []byte{})
	f.Add(uint8(5), []byte{0x5a, 0x13})
	f.Add(uint8(9), []byte{0x01, 0x00, 0x80})
	f.Fuzz(func(t *testing.T, width uint8, mask []byte) {
		w := 1 + int(width)%14
		bit := 0
		checkLevelTable(t, tinyEncoded(t, rand.New(rand.NewSource(int64(width))), w, 6), func(int, int) bool {
			if len(mask) == 0 {
				return false
			}
			b := bit % (8 * len(mask))
			bit++
			return mask[b/8]>>(b%8)&1 != 0
		})
	})
}
