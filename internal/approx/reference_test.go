package approx

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/bitset"
	"repro/internal/canonical"
	"repro/internal/datagen"
	"repro/internal/relation"
)

// candidate names one OD the brute-force reference measures: X: [] ↦ A when
// b < 0, X: A ~ B otherwise.
type candidate struct {
	ctx  bitset.AttrSet
	a, b int
}

// measureAll computes ErrorOf for every constancy and order-compatibility
// candidate over the relation's attributes.
func measureAll(t *testing.T, enc *relation.Encoded) map[candidate]Error {
	t.Helper()
	m := enc.NumCols()
	errs := map[candidate]Error{}
	measure := func(od canonical.OD, c candidate) {
		e, err := ErrorOf(enc, od)
		if err != nil {
			t.Fatal(err)
		}
		errs[c] = e
	}
	full := bitset.AttrSet(1)<<m - 1
	for x := bitset.AttrSet(0); x <= full; x++ {
		for a := 0; a < m; a++ {
			if x.Contains(a) {
				continue
			}
			measure(canonical.NewConstancy(x, a), candidate{x, a, -1})
			for b := a + 1; b < m; b++ {
				if !x.Contains(b) {
					measure(canonical.NewOrderCompatible(x, a, b), candidate{x, a, b})
				}
			}
		}
	}
	return errs
}

// bruteForceDiscover is the reference for DiscoverContext: it applies the
// minimality rules literally to the measured errors of every candidate.
// X: [] ↦ A is reported when it is within the threshold and no proper subset
// of X is. X: A ~ B is reported when it is within, no proper subset context
// is, and neither A nor B is within as a constancy in X or any subset of X.
func bruteForceDiscover(errs map[candidate]Error, threshold float64) []Discovered {
	within := func(c candidate) bool { return errs[c].Rate <= threshold }
	// inSubset reports whether some subset of x (x itself when withSelf)
	// puts the candidate (a, b) within the threshold.
	inSubset := func(x bitset.AttrSet, a, b int, withSelf bool) bool {
		for y := x; ; y = (y - 1) & x {
			if (withSelf || y != x) && within(candidate{y, a, b}) {
				return true
			}
			if y == 0 {
				return false
			}
		}
	}
	var out []Discovered
	for c, e := range errs {
		if !within(c) || inSubset(c.ctx, c.a, c.b, false) {
			continue
		}
		if c.b < 0 {
			out = append(out, Discovered{OD: canonical.NewConstancy(c.ctx, c.a), Error: e})
			continue
		}
		if inSubset(c.ctx, c.a, -1, true) || inSubset(c.ctx, c.b, -1, true) {
			continue
		}
		out = append(out, Discovered{OD: canonical.NewOrderCompatible(c.ctx, c.a, c.b), Error: e})
	}
	sort.Slice(out, func(i, j int) bool { return canonical.Less(out[i].OD, out[j].OD) })
	return out
}

// trapRelation is 100 rows whose first column is constant but for 29 rows,
// so {}: [] ↦ c0 has rate 29/100, which equals the threshold 0.29 while
// 0.29*100 rounds to 28.999999999999996. The other columns are a cyclic, a
// monotone and a pseudo-random one.
func trapRelation(t *testing.T) *relation.Relation {
	t.Helper()
	rows := make([][]string, 100)
	for i := range rows {
		c0 := 0
		if i >= 71 {
			c0 = i
		}
		rows[i] = []string{strconv.Itoa(c0), strconv.Itoa(i % 7), strconv.Itoa(i / 9), strconv.Itoa(i * 37 % 11)}
	}
	rel, err := relation.FromRows("trap", []string{"c0", "c1", "c2", "c3"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// TestDiscoverMatchesBruteForceReference compares DiscoverContext with the
// brute-force reference at workers 1, 2 and 4, on small seeded relations,
// an empty one and trapRelation. The thresholds land exactly on r/n for
// every removal count r some candidate has (up to n/2), and on the classic
// floating-point traps (0.1 with n = 30, 0.07, 0.29, 1/3), where
// threshold*n rounds to the wrong side of an integer.
func TestDiscoverMatchesBruteForceReference(t *testing.T) {
	empty, err := relation.FromRows("empty", []string{"a", "b", "c"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rels := []struct {
		name string
		rel  *relation.Relation
	}{
		{"random-30x5", datagen.RandomRelation(30, 5, 3, 11)},
		{"structured-30x6", datagen.RandomStructuredRelation(30, 6, 4, 12)},
		{"structured-100x5", datagen.RandomStructuredRelation(100, 5, 6, 13)},
		{"hepatitis-60x6", datagen.HepatitisLike(60, 6, 14)},
		{"random-9x4", datagen.RandomRelation(9, 4, 2, 15)},
		{"trap-100x4", trapRelation(t)},
		{"empty-0x3", empty},
	}
	for _, rc := range rels {
		enc := encode(t, rc.rel)
		n := enc.NumRows()
		errs := measureAll(t, enc)
		thresholds := []float64{0, 0.07, 0.1, 0.29, 1.0 / 3, 0.5}
		counts := map[int]bool{}
		for _, e := range errs {
			if r := e.Removals; r > 0 && 2*r <= n && !counts[r] {
				counts[r] = true
				thresholds = append(thresholds, float64(r)/float64(n))
			}
		}
		sort.Float64s(thresholds)
		for _, th := range thresholds {
			want := bruteForceDiscover(errs, th)
			for _, w := range []int{1, 2, 4} {
				name := fmt.Sprintf("%s threshold=%v workers=%d", rc.name, th, w)
				res, err := DiscoverContext(context.Background(), enc, Options{Threshold: th, Workers: w})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(res.ODs, want) {
					t.Fatalf("%s: discovered %d ODs, reference %d\ngot:  %v\nwant: %v", name, len(res.ODs), len(want), res.ODs, want)
				}
				for _, d := range res.ODs {
					e, err := ErrorOf(enc, d.OD)
					if err != nil {
						t.Fatal(err)
					}
					if e != d.Error {
						t.Fatalf("%s: %v reported with error %+v, ErrorOf = %+v", name, d.OD, d.Error, e)
					}
				}
			}
		}
	}
}

// TestRemovalLimit checks that removalLimit is the largest count whose rate
// passes the threshold test, for every relation size up to 600 rows, at
// every exact k/n and on a grid of thresholds in [0, 1).
func TestRemovalLimit(t *testing.T) {
	grid := []float64{0, 0.07, 0.1, 0.29, 0.57, 1.0 / 3, 2.0 / 3, 0.999999}
	for i := 1; i < 1000; i += 7 {
		grid = append(grid, float64(i)/1000)
	}
	for n := 0; n <= 600; n++ {
		thresholds := grid
		for k := 0; k < n; k++ {
			thresholds = append(thresholds[:len(thresholds):len(thresholds)], float64(k)/float64(n))
		}
		for _, th := range thresholds {
			limit := removalLimit(n, th)
			if n == 0 {
				// The only count is 0, with rate 0, which every threshold
				// accepts.
				if limit != 0 || newError(0, 0).Rate > th {
					t.Fatalf("n=0 threshold=%v: limit = %d, want 0", th, limit)
				}
				continue
			}
			if limit < 0 || limit > n {
				t.Fatalf("n=%d threshold=%v: limit %d outside [0, n]", n, th, limit)
			}
			if !(float64(limit)/float64(n) <= th) {
				t.Fatalf("n=%d threshold=%v: limit %d has rate above the threshold", n, th, limit)
			}
			if limit != n && !(float64(limit+1)/float64(n) > th) {
				t.Fatalf("n=%d threshold=%v: limit %d is not the largest passing count", n, th, limit)
			}
		}
	}
}
