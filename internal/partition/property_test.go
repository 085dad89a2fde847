package partition

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// This file property-tests the flat kernels — ProductWith, the radix swap
// check and the removal counters — against the independent naive oracles in
// naive.go, on randomized relations of varying size, cardinality and class
// skew, while reusing one Scratch across every trial (including relations of
// different sizes, which forces every scratch buffer to grow mid-run).

// skewedColumn draws a rank-encoded column whose value distribution ranges
// from uniform to heavily skewed (a few huge classes plus a singleton tail),
// re-densifying ranks afterwards.
func skewedColumn(rng *rand.Rand, rows, card int, skew float64) ([]int32, int) {
	raw := make([]int, rows)
	for i := range raw {
		if rng.Float64() < skew {
			raw[i] = 0 // pile onto one heavy value
		} else {
			raw[i] = rng.Intn(card)
		}
	}
	dense := map[int]int32{}
	vals := append([]int(nil), raw...)
	sort.Ints(vals)
	for _, v := range vals {
		if _, ok := dense[v]; !ok {
			dense[v] = int32(len(dense))
		}
	}
	col := make([]int32, rows)
	for i, v := range raw {
		col[i] = dense[v]
	}
	return col, len(dense)
}

// canonClasses returns the classes sorted by first row, the order the naive
// product oracle uses; the flat product's right-operand-major order is
// deterministic but different, so comparisons go through this normal form.
func canonClasses(p *Partition) [][]int32 {
	out := classesOf(p)
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

func TestFlatKernelsMatchNaiveOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(1789))
	s := NewScratch() // one scratch across all trials and relation sizes
	for trial := 0; trial < 300; trial++ {
		rows := 2 + rng.Intn(250)
		cardA := 1 + rng.Intn(rows)
		cardB := 1 + rng.Intn(rows)
		skewA := rng.Float64() * rng.Float64() // bias toward mild skew
		skewB := rng.Float64()
		colA, ca := skewedColumn(rng, rows, cardA, skewA)
		colB, cb := skewedColumn(rng, rows, cardB, skewB)
		pa := FromColumn(colA, ca)
		pb := FromColumn(colB, cb)

		// Product: flat scratch-backed kernel vs map-grouping oracle.
		got := pa.ProductWith(pb, s)
		want := ProductNaive(pa, pb)
		if got.NumRows != want.NumRows || got.Size() != want.Size() || got.NumClasses() != want.NumClasses() {
			t.Fatalf("trial %d (%d rows): product shape = %v, want %v", trial, rows, got, want)
		}
		if !reflect.DeepEqual(canonClasses(got), canonClasses(want)) {
			t.Fatalf("trial %d (%d rows): product classes = %v, want %v",
				trial, rows, canonClasses(got), canonClasses(want))
		}
		// The probe invariant must be restored for the next trial.
		for i, v := range s.probe {
			if v != -1 {
				t.Fatalf("trial %d: probe[%d] = %d after ProductWith, want -1", trial, i, v)
			}
		}

		// Swap check on a third column pair within the product context:
		// radix-sorted scan vs all-pairs oracle.
		colX, _ := skewedColumn(rng, rows, 1+rng.Intn(rows), rng.Float64())
		colY, _ := skewedColumn(rng, rows, 1+rng.Intn(rows), rng.Float64())
		for _, ctx := range []*Partition{pa, got, FromConstant(rows)} {
			naive := ctx.HasSwapNaive(colX, colY)
			if fast := ctx.HasSwapWith(colX, colY, s); fast != naive {
				t.Fatalf("trial %d: HasSwapWith = %v, naive oracle = %v (ctx %v)", trial, fast, naive, ctx)
			}
			w, found := ctx.FindSwapWith(colX, colY, s)
			if found != naive {
				t.Fatalf("trial %d: FindSwapWith found = %v, naive oracle = %v", trial, found, naive)
			}
			if found {
				// The witness must be a genuine swap within one context class.
				okDir := (colX[w.RowS] < colX[w.RowT] && colY[w.RowT] < colY[w.RowS]) ||
					(colX[w.RowT] < colX[w.RowS] && colY[w.RowS] < colY[w.RowT])
				if !okDir {
					t.Fatalf("trial %d: witness (%d,%d) is not a swap", trial, w.RowS, w.RowT)
				}
				sameClass := false
				ctx.ForEachClass(func(cls []int32) {
					in := 0
					for _, row := range cls {
						if int(row) == w.RowS || int(row) == w.RowT {
							in++
						}
					}
					if in == 2 {
						sameClass = true
					}
				})
				if !sameClass {
					t.Fatalf("trial %d: witness rows (%d,%d) not in one context class", trial, w.RowS, w.RowT)
				}
			}

			// Removal counters, unbounded and bounded, vs direct per-class
			// recomputation.
			name := fmt.Sprintf("trial %d", trial)
			if checkSwapRemovals(t, name, ctx, colX, colY, s) == 0 && naive {
				t.Fatalf("trial %d: swap exists but SwapRemovals = 0", trial)
			}
			checkConstancyRemovals(t, name, ctx, colX, s)
			checkScratchClean(t, name+" after ConstancyRemovalsWithin", s)
		}
	}
}

// swapRemovalsNaive recomputes the per-class longest non-decreasing
// subsequence with a comparison sort and quadratic DP — an implementation
// independent of the radix sort and patience-sorting used by SwapRemovals.
func swapRemovalsNaive(p *Partition, colA, colB []int32) int {
	removals := 0
	p.ForEachClass(func(cls []int32) {
		rows := append([]int32(nil), cls...)
		sort.SliceStable(rows, func(i, j int) bool {
			if colA[rows[i]] != colA[rows[j]] {
				return colA[rows[i]] < colA[rows[j]]
			}
			return colB[rows[i]] < colB[rows[j]]
		})
		best := 0
		lnds := make([]int, len(rows))
		for i := range rows {
			lnds[i] = 1
			for j := 0; j < i; j++ {
				if colB[rows[j]] <= colB[rows[i]] && lnds[j]+1 > lnds[i] {
					lnds[i] = lnds[j] + 1
				}
			}
			if lnds[i] > best {
				best = lnds[i]
			}
		}
		removals += len(cls) - best
	})
	return removals
}

// removalLimits are the limits a bounded removal kernel is checked at when
// the true count is naive: zero, both sides of the boundary, and no limit.
func removalLimits(naive int) []int {
	return []int{0, naive - 1, naive, naive + 1, math.MaxInt}
}

// checkWithin checks one bounded kernel's answer (got, within) at limit
// against the true count naive: within must be naive <= limit, an accepted
// count must be exact, and a rejected count must already exceed limit
// without exceeding the full count.
func checkWithin(t *testing.T, name string, limit, naive, got int, within bool) {
	t.Helper()
	switch {
	case within != (naive <= limit):
		t.Fatalf("%s: limit %d: within = %v, naive count %d", name, limit, within, naive)
	case within && got != naive:
		t.Fatalf("%s: limit %d: within with count %d, naive count %d", name, limit, got, naive)
	case !within && (got <= limit || got > naive):
		t.Fatalf("%s: limit %d: rejected with count %d, want in (limit, %d]", name, limit, got, naive)
	}
}

// checkSwapRemovals compares SwapRemovals and SwapRemovalsWithin at every
// removalLimits limit with the naive oracle, and returns the true count.
func checkSwapRemovals(t *testing.T, name string, ctx *Partition, colA, colB []int32, s *Scratch) int {
	t.Helper()
	naive := swapRemovalsNaive(ctx, colA, colB)
	if got := ctx.SwapRemovals(colA, colB, s); got != naive {
		t.Fatalf("%s: SwapRemovals = %d, naive = %d", name, got, naive)
	}
	for _, limit := range removalLimits(naive) {
		got, within := ctx.SwapRemovalsWithin(colA, colB, limit, s)
		checkWithin(t, name+": SwapRemovalsWithin", limit, naive, got, within)
	}
	return naive
}

// checkConstancyRemovals is checkSwapRemovals for ConstancyRemovals and
// ConstancyRemovalsWithin. Its ranks index the scratch's counts table, so
// callers keep them small.
func checkConstancyRemovals(t *testing.T, name string, ctx *Partition, col []int32, s *Scratch) int {
	t.Helper()
	naive := constancyRemovalsNaive(ctx, col)
	if got := ctx.ConstancyRemovals(col, s); got != naive {
		t.Fatalf("%s: ConstancyRemovals = %d, naive = %d", name, got, naive)
	}
	for _, limit := range removalLimits(naive) {
		got, within := ctx.ConstancyRemovalsWithin(col, limit, s)
		checkWithin(t, name+": ConstancyRemovalsWithin", limit, naive, got, within)
	}
	return naive
}

// constancyRemovalsNaive recomputes per-class removals with a plain map.
func constancyRemovalsNaive(p *Partition, col []int32) int {
	removals := 0
	p.ForEachClass(func(cls []int32) {
		freq := map[int32]int{}
		best := 0
		for _, row := range cls {
			freq[col[row]]++
			if freq[col[row]] > best {
				best = freq[col[row]]
			}
		}
		removals += len(cls) - best
	})
	return removals
}

// TestRadixSortCrossesCutoff drives the swap kernels through every shape of
// the radix sort: classes on both sides of insertionCutoff and far beyond
// it, in the single all-rows class of the empty context and in a skewed
// context. Random ranks spanning the row range almost always swap, so
// structured cases add A-ranks that need one to four 8-bit passes,
// heavy A-ties, and a swap-free majority.
func TestRadixSortCrossesCutoff(t *testing.T) {
	rng := rand.New(rand.NewSource(977))
	s := NewScratch()
	swapFree, total := 0, 0
	check := func(name string, ctx *Partition, colA, colB []int32) {
		t.Helper()
		total++
		if !checkSwapKernels(t, name, ctx, colA, colB, s) {
			swapFree++
		}
		checkSwapRemovals(t, name, ctx, colA, colB, s)
	}
	for _, rows := range []int{insertionCutoff - 1, insertionCutoff, insertionCutoff + 1, 4 * insertionCutoff, 1024} {
		all := FromConstant(rows)
		for trial := 0; trial < 20; trial++ {
			colA := make([]int32, rows)
			colB := make([]int32, rows)
			for i := range colA {
				colA[i] = int32(rng.Intn(rows))
				colB[i] = int32(rng.Intn(rows))
			}
			check(fmt.Sprintf("rows=%d random trial %d", rows, trial), all, colA, colB)
		}
		ctxCol, ctxCard := skewedColumn(rng, rows, 3, 0.5)
		for _, a := range []struct{ base, stride int32 }{{0, 1}, {1 << 8, 1}, {1 << 16, 1}, {7, 1 << 15}} {
			for _, aCard := range []int{2, 5, rows} {
				for trial := 0; trial < 4; trial++ {
					colA, colB := swapCase(rng, rows, a.base, a.stride, aCard, trial > 0)
					name := fmt.Sprintf("rows=%d A=%d+i*%d aCard=%d trial %d", rows, a.base, a.stride, aCard, trial)
					check(name, all, colA, colB)
					check(name+" skewed ctx", FromColumn(ctxCol, ctxCard), colA, colB)
				}
			}
		}
		// A- and B-ranks just below 2^31, so the packed (A, B) key of
		// SwapRemovalsWithin uses all 62 bits.
		for _, aCard := range []int{2, rows} {
			for trial := 0; trial < 4; trial++ {
				colA, colB := swapCase(rng, rows, math.MaxInt32-int32(aCard), 1, aCard, trial > 0)
				for i := range colB {
					colB[i] += math.MaxInt32 - int32(3*aCard+3)
				}
				name := fmt.Sprintf("rows=%d ranks near 2^31 aCard=%d trial %d", rows, aCard, trial)
				check(name, all, colA, colB)
				check(name+" skewed ctx", FromColumn(ctxCol, ctxCard), colA, colB)
			}
		}
	}
	if 2*swapFree < total {
		t.Fatalf("only %d of %d cases are swap-free; want at least half", swapFree, total)
	}
}

// findSwapBrute is the witness rule of FindSwap restated without any sort:
// in the first class (in class order) that contains a swap, take the
// smallest A-rank a whose group holds a row with a B-rank below the largest
// B-rank of the rows with A-rank < a. RowT is the first row (in class order)
// of that group with the smallest such B-rank; RowS is the first row (in
// class order) holding that largest B-rank within the smallest A-rank that
// reaches it.
func findSwapBrute(p *Partition, colA, colB []int32) (SwapWitness, bool) {
	for ci, n := 0, p.NumClasses(); ci < n; ci++ {
		cls := p.Class(ci)
		as := map[int32]bool{}
		for _, row := range cls {
			as[colA[row]] = true
		}
		sorted := make([]int32, 0, len(as))
		for a := range as {
			sorted = append(sorted, a)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, a := range sorted {
			maxB, rowS, rowSA := int32(-1), int32(-1), int32(0)
			for _, row := range cls {
				if colA[row] >= a {
					continue
				}
				b := colB[row]
				if b > maxB || (b == maxB && colA[row] < rowSA) {
					maxB, rowS, rowSA = b, row, colA[row]
				}
			}
			rowT, minB := int32(-1), maxB
			for _, row := range cls {
				if colA[row] == a && colB[row] < minB {
					rowT, minB = row, colB[row]
				}
			}
			if rowT >= 0 {
				return SwapWitness{RowS: int(rowS), RowT: int(rowT)}, true
			}
		}
	}
	return SwapWitness{}, false
}

// swapCase draws a rank pair over rows whose A-ranks are aBase+i*aStride for
// aCard distinct values of i (few values means heavy A-ties; a wide stride
// spreads the ranks over more radix digits). When swapFree is set, B is a
// non-decreasing function of A plus jitter that stays inside the A-group's
// band, so no class can hold a swap; otherwise one row's B-rank is lowered
// at random, which may or may not create a swap.
func swapCase(rng *rand.Rand, rows int, aBase, aStride int32, aCard int, swapFree bool) (colA, colB []int32) {
	colA = make([]int32, rows)
	colB = make([]int32, rows)
	for i := range colA {
		idx := int32(rng.Intn(aCard))
		colA[i] = aBase + idx*aStride
		colB[i] = 3*idx + int32(rng.Intn(3))
	}
	if !swapFree {
		i := rng.Intn(rows)
		colB[i] = int32(rng.Intn(int(colB[i]) + 1))
	}
	return colA, colB
}

// checkSwapKernels compares HasSwapWith and FindSwapWith with the all-pairs
// oracle and FindSwapWith's witness with the brute-force witness rule, and
// reports whether the context has a swap.
func checkSwapKernels(t *testing.T, name string, ctx *Partition, colA, colB []int32, s *Scratch) bool {
	t.Helper()
	naive := ctx.HasSwapNaive(colA, colB)
	if fast := ctx.HasSwapWith(colA, colB, s); fast != naive {
		t.Fatalf("%s: HasSwapWith = %v, naive oracle = %v", name, fast, naive)
	}
	w, found := ctx.FindSwapWith(colA, colB, s)
	wantW, wantFound := findSwapBrute(ctx, colA, colB)
	if found != naive || wantFound != naive {
		t.Fatalf("%s: FindSwapWith found = %v, brute = %v, naive oracle = %v", name, found, wantFound, naive)
	}
	if w != wantW {
		t.Fatalf("%s: FindSwapWith witness = %+v, brute-force rule = %+v", name, w, wantW)
	}
	return naive
}

func TestFindSwapWitnessRule(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	s := NewScratch()
	for trial := 0; trial < 400; trial++ {
		rows := 2 + rng.Intn(120)
		ctxCol, ctxCard := skewedColumn(rng, rows, 1+rng.Intn(8), rng.Float64())
		var colA, colB []int32
		if trial%2 == 0 {
			colA, colB = swapCase(rng, rows, 0, 1, 1+rng.Intn(rows), rng.Intn(4) == 0)
		} else {
			colA, _ = skewedColumn(rng, rows, 1+rng.Intn(rows), rng.Float64())
			colB, _ = skewedColumn(rng, rows, 1+rng.Intn(rows), rng.Float64())
		}
		for _, ctx := range []*Partition{FromColumn(ctxCol, ctxCard), FromConstant(rows)} {
			checkSwapKernels(t, "witness trial", ctx, colA, colB, s)
		}
	}
}

// refineBrute restates RefineWith's output contract with a map per class:
// for each class of p in order, its subclasses by col in order of first
// appearance, singletons dropped.
func refineBrute(p *Partition, col []int32) [][]int32 {
	out := [][]int32{}
	p.ForEachClass(func(cls []int32) {
		groups := map[int32][]int32{}
		var order []int32
		for _, row := range cls {
			if _, seen := groups[col[row]]; !seen {
				order = append(order, col[row])
			}
			groups[col[row]] = append(groups[col[row]], row)
		}
		for _, v := range order {
			if len(groups[v]) >= 2 {
				out = append(out, groups[v])
			}
		}
	})
	return out
}

// checkScratchClean asserts the between-calls invariants every kernel must
// restore: an all-zero counts table and an all--1 probe.
func checkScratchClean(t *testing.T, name string, s *Scratch) {
	t.Helper()
	for i, v := range s.counts {
		if v != 0 {
			t.Fatalf("%s: counts[%d] = %d between calls, want 0", name, i, v)
		}
	}
	for i, v := range s.probe {
		if v != -1 {
			t.Fatalf("%s: probe[%d] = %d between calls, want -1", name, i, v)
		}
	}
}

// checkRefine compares p.RefineWith(col, s) with the map-grouping product
// oracle (as class sets) and with refineBrute (class order included), checks
// that rows ascend within every class, and that s is clean afterwards.
func checkRefine(t *testing.T, name string, p *Partition, col []int32, s *Scratch) *Partition {
	t.Helper()
	got := p.RefineWith(col, s)
	checkScratchClean(t, name+" after RefineWith", s)
	if got.NumRows != p.NumRows {
		t.Fatalf("%s: NumRows = %d, want %d", name, got.NumRows, p.NumRows)
	}
	want := ProductNaive(p, FromColumn(col, 0))
	if !reflect.DeepEqual(canonClasses(got), canonClasses(want)) {
		t.Fatalf("%s: RefineWith classes = %v, product oracle = %v", name, canonClasses(got), canonClasses(want))
	}
	if brute := refineBrute(p, col); !reflect.DeepEqual(classesOf(got), brute) {
		t.Fatalf("%s: RefineWith class order = %v, want %v", name, classesOf(got), brute)
	}
	for ci, n := 0, got.NumClasses(); ci < n; ci++ {
		cls := got.Class(ci)
		for i := 1; i < len(cls); i++ {
			if cls[i-1] >= cls[i] {
				t.Fatalf("%s: class %d rows not ascending: %v", name, ci, cls)
			}
		}
	}
	return got
}

// TestRefineWithMatchesOracles runs RefineWith over random contexts and
// columns — skewed, sparse row-view ranks at or past NumRows, all-distinct,
// constant — and contexts of pairs, while one Scratch serves every relation
// size and every kernel in between (ProductWith, the swap check,
// ConstancyRemovals), so a table one kernel leaves dirty or too small shows
// up in the next call.
func TestRefineWithMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	s := NewScratch()
	for trial := 0; trial < 300; trial++ {
		rows := 2 + rng.Intn(250)
		skewed, _ := skewedColumn(rng, rows, 1+rng.Intn(rows), rng.Float64())
		sparse := make([]int32, rows)
		distinct := make([]int32, rows)
		pairs := make([]int32, rows)
		base := int32(rows + 64*trial) // past NumRows, and past every earlier trial's ranks
		for i := range sparse {
			sparse[i] = base + 7*skewed[i]
			distinct[i] = int32(rows - 1 - i)
			pairs[i] = int32(i / 2)
		}
		constant := make([]int32, rows)
		ctxCol, ctxCard := skewedColumn(rng, rows, 1+rng.Intn(rows), rng.Float64())
		contexts := []*Partition{FromColumn(ctxCol, ctxCard), FromConstant(rows), FromColumn(pairs, 0)}
		cols := map[string][]int32{"skewed": skewed, "sparse": sparse, "distinct": distinct, "constant": constant, "pairs": pairs}
		for ci, ctx := range contexts {
			for _, name := range []string{"skewed", "sparse", "distinct", "constant", "pairs"} {
				label := fmt.Sprintf("trial %d (%d rows) ctx %d col %s", trial, rows, ci, name)
				got := checkRefine(t, label, ctx, cols[name], s)

				// Interleave the other table users on the same scratch.
				other := FromColumn(skewed, 0)
				if prod, want := ctx.ProductWith(other, s), ProductNaive(ctx, other); !reflect.DeepEqual(canonClasses(prod), canonClasses(want)) {
					t.Fatalf("%s: ProductWith classes = %v, want %v", label, canonClasses(prod), canonClasses(want))
				}
				checkScratchClean(t, label+" after ProductWith", s)
				if fast, naive := got.HasSwapWith(skewed, sparse, s), got.HasSwapNaive(skewed, sparse); fast != naive {
					t.Fatalf("%s: HasSwapWith = %v, naive = %v", label, fast, naive)
				}
				if gotR, wantR := ctx.ConstancyRemovals(sparse, s), constancyRemovalsNaive(ctx, sparse); gotR != wantR {
					t.Fatalf("%s: ConstancyRemovals = %d, naive = %d", label, gotR, wantR)
				}
				checkScratchClean(t, label+" after ConstancyRemovals", s)
			}
		}
	}
}

// TestRefineWithGrowsMidClass feeds a fresh scratch ranks that climb past
// the table several times within one class, so the table grows while pass 1
// holds live counts.
func TestRefineWithGrowsMidClass(t *testing.T) {
	col := []int32{0, 40, 0, 400, 40, 4000, 400, 40000, 4000, 40000, 3, 7}
	checkRefine(t, "climbing ranks", FromConstant(len(col)), col, NewScratch())
	ctx := FromColumn([]int32{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}, 2)
	checkRefine(t, "climbing ranks in two classes", ctx, col, NewScratch())
}

func TestRefineWithMismatchedRowsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for a column of the wrong length")
		}
	}()
	FromConstant(3).RefineWith([]int32{0, 0}, NewScratch())
}

// FuzzRefineWith runs the property check on fuzz-derived relations: each
// pair of input bytes is one row's context value and refining value, and
// stride spreads the refining ranks so they can land far past NumRows (up to
// about 2^18, which keeps the table and the cleanliness scan small).
func FuzzRefineWith(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 2, 1, 1, 1, 1}, uint16(1))
	f.Add([]byte{3, 9, 3, 9, 3, 9, 4, 0, 4, 1}, uint16(5000))
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5}, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, stride uint16) {
		rows := len(data) / 2
		if rows == 0 || rows > 4096 {
			return
		}
		ctxCol := make([]int32, rows)
		col := make([]int32, rows)
		for i := 0; i < rows; i++ {
			ctxCol[i] = int32(data[2*i] % 8)
			col[i] = int32(data[2*i+1]) * (int32(stride%1024) + 1)
		}
		s := NewScratch()
		for _, ctx := range []*Partition{FromColumn(ctxCol, 8), FromConstant(rows)} {
			got := checkRefine(t, "fuzz", ctx, col, s)
			ctx.ProductWith(got, s)
			checkScratchClean(t, "fuzz after ProductWith", s)
			checkRefine(t, "fuzz refine of a refinement", got, ctxCol, s)
		}
	})
}

// FuzzRemovalsWithin checks the bounded removal kernels on fuzz-derived
// relations: each triple of input bytes is one row's context value, A-rank
// and B-rank. high lifts the A- and B-ranks of the swap kernel to just below
// 2^31, so the packed key uses all 62 bits; the constancy kernel counts the
// unlifted A-ranks, because its ranks index a table. Both kernels are checked
// at the fuzzed limit and at every removalLimits limit.
func FuzzRemovalsWithin(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 2, 1, 0, 3, 3, 1, 0, 0, 1, 1, 0}, 1, false)
	f.Add([]byte{0, 5, 9, 0, 5, 1, 0, 4, 7, 0, 9, 0, 0, 9, 9}, 0, true)
	f.Add([]byte{1, 0, 0, 2, 0, 0, 1, 7, 7, 2, 7, 7}, -1, false)
	f.Fuzz(func(t *testing.T, data []byte, limit int, high bool) {
		rows := len(data) / 3
		if rows == 0 || rows > 512 {
			return // the naive oracles are quadratic per class
		}
		ctxCol := make([]int32, rows)
		colA := make([]int32, rows)
		colB := make([]int32, rows)
		for i := 0; i < rows; i++ {
			ctxCol[i] = int32(data[3*i] % 8)
			colA[i] = int32(data[3*i+1])
			colB[i] = int32(data[3*i+2])
		}
		swapA, swapB := colA, colB
		if high {
			swapA, swapB = make([]int32, rows), make([]int32, rows)
			for i := range swapA {
				swapA[i] = math.MaxInt32 - 255 + colA[i]
				swapB[i] = math.MaxInt32 - 255 + colB[i]
			}
		}
		s := NewScratch()
		for _, ctx := range []*Partition{FromColumn(ctxCol, 8), FromConstant(rows)} {
			naive := checkSwapRemovals(t, "fuzz", ctx, swapA, swapB, s)
			got, within := ctx.SwapRemovalsWithin(swapA, swapB, limit, s)
			checkWithin(t, "fuzz: SwapRemovalsWithin", limit, naive, got, within)

			naive = checkConstancyRemovals(t, "fuzz", ctx, colA, s)
			got, within = ctx.ConstancyRemovalsWithin(colA, limit, s)
			checkWithin(t, "fuzz: ConstancyRemovalsWithin", limit, naive, got, within)
			checkScratchClean(t, "fuzz after ConstancyRemovalsWithin", s)
		}
	})
}
