package partition

import "fmt"

// Product computes the stripped partition of X ∪ Y from the stripped
// partitions of X and Y in time linear in the partition sizes, using the
// standard probe-table construction: tuples that share a class in both inputs
// share a class in the product. It is the general two-partition operation;
// the lattice, whose right operand is always a single attribute, derives
// Π*(X) with RefineWith instead.
//
// Product allocates a fresh workspace per call; loops that compute many
// products should hold a Scratch and call ProductWith instead.
func Product(a, b *Partition) *Partition {
	return a.ProductWith(b, nil)
}

// Scratch is a reusable workspace for the partition kernels: RefineWith,
// ProductWith, the scratch-backed swap checks (HasSwapWith, FindSwapWith)
// and the approximate-error kernels (SwapRemovalsWithin,
// ConstancyRemovalsWithin and their unbounded wrappers). A single Scratch
// may be reused across any number of calls, over relations of any size — it
// grows as needed and cleans up after itself — but it must not be shared
// between goroutines: parallel callers hold one Scratch per worker
// (the lattice engine exposes its per-worker scratches for exactly this).
type Scratch struct {
	// probe[row] = index of row's class in the left product operand, or -1 if
	// the row is a singleton there. All entries are -1 between calls.
	probe []int32
	// counts is the one key-indexed table of the grouping loop (keys are
	// ranks for RefineWith, left-operand class indexes for ProductWith) and
	// of ConstancyRemovalsWithin's rank frequencies. It is sized to the
	// largest of NumRows and the largest key met so far. All entries are zero
	// between calls.
	counts []int32
	// touched lists the keys dirtied in counts by the current class.
	touched []int32
	// outRows and outOffsets stage a refinement's flat buffers; the result
	// copies them at exact size so no over-capacity is retained by callers
	// (or by a PartitionStore) and the staging arrays amortize across calls.
	outRows    []int32
	outOffsets []int32
	// keys/keyRows and tmpKeys/tmpRows are the (key, row) buffers of the
	// radix sort behind the swap kernels. The swap checks key each row by its
	// A-rank alone; SwapRemovalsWithin keys it by the (A-rank, B-rank) pair
	// packed per class as A<<bits.Len32(maxB) | B, maxB being the class's
	// largest B-rank.
	keys    []uint64
	keyRows []int32
	tmpKeys []uint64
	tmpRows []int32
	// tails is the patience-sorting buffer of SwapRemovalsWithin.
	tails []int32
}

// NewScratch returns an empty workspace ready for any partition kernel.
func NewScratch() *Scratch { return &Scratch{} }

// RefineWith returns the stripped partition of X ∪ {A}, where the receiver
// is Π*X and col is A's rank-encoded column: it splits every class of p by
// col[row]. Because Π(X ∪ {A}) = Π(X) · Π(A) and Π(A) is just the column,
// this is a partition product whose right operand needs no partition at all.
// A nil scratch is allowed and allocates one. The result is a freshly
// allocated Partition with exact-size flat buffers that share nothing with
// the scratch, the receiver or col.
//
// The class order of the result is deterministic: for each class of p in
// order, its subclasses in order of first appearance, with rows ascending
// within every class.
func (p *Partition) RefineWith(col []int32, s *Scratch) *Partition {
	if len(col) != p.NumRows {
		panic(fmt.Sprintf("partition: refinement by a column of %d rows over a partition of %d rows (%d classes)",
			len(col), p.NumRows, p.NumClasses()))
	}
	if s == nil {
		s = NewScratch()
	}
	return s.refine(p, col)
}

// ProductWith computes Product(a, b) using s as scratch space, avoiding the
// per-call probe-table and grouping allocations. A nil scratch is allowed and
// makes the call equivalent to Product(a, b). The result is a freshly
// allocated Partition with exact-size flat buffers that share nothing with
// the scratch or the operands.
//
// It fills the probe with each row's class in a, refines b's classes by the
// probe (rows that are singletons in a drop out), and restores the probe. The
// class order of the result is therefore right-operand-major — for each class
// of b in order, its subclasses in order of first appearance — and rows
// ascend within every class.
func (a *Partition) ProductWith(b *Partition, s *Scratch) *Partition {
	if a.NumRows != b.NumRows {
		// This package cannot know which lattice node asked for the product,
		// so the message carries all the local state it has; the engine's
		// per-node recovery frames attach the node's attribute set on the way
		// out (lattice.PanicContext) and surface the whole thing as a typed
		// internal error instead of a crash.
		panic(fmt.Sprintf("partition: product over different relations (%d vs %d rows, %d vs %d classes)",
			a.NumRows, b.NumRows, a.NumClasses(), b.NumClasses()))
	}
	if s == nil {
		s = NewScratch()
	}
	if len(s.probe) < a.NumRows {
		grown := make([]int32, a.NumRows)
		for i := range grown {
			grown[i] = -1
		}
		s.probe = grown
	}
	for ci, n := 0, a.NumClasses(); ci < n; ci++ {
		for _, row := range a.Class(ci) {
			s.probe[row] = int32(ci)
		}
	}
	out := s.refine(b, s.probe[:a.NumRows])
	// Restore the all--1 probe invariant for the next call.
	for _, row := range a.rows {
		s.probe[row] = -1
	}
	return out
}

// refine is the package's one grouping loop: it splits every class of p by
// key[row], dropping rows with a negative key, and returns the stripped
// result. Each class is grouped through the counts table the way FromColumn
// groups a column: pass 1 counts every key, the counts are rewritten in place
// into arena write cursors (-1 for singleton keys), pass 2 places the rows,
// and touched resets the dirtied entries to zero. A class of two is decided
// by one comparison, and a class whose rows all share one key is copied
// whole.
func (s *Scratch) refine(p *Partition, key []int32) *Partition {
	counts := s.counts
	if len(counts) < p.NumRows {
		counts = growInt32(counts, p.NumRows)
	}
	// The result has at most p.Size() rows in at most p.Size()/2 classes, so
	// sizing the staging buffers up front keeps the loop free of growth.
	rows, offsets, touched := s.outRows[:0], s.outOffsets[:0], s.touched
	if need := p.Size(); cap(rows) < need {
		rows = make([]int32, 0, max(need, 2*cap(rows)))
	}
	if need := p.Size()/2 + 1; cap(offsets) < need {
		offsets = make([]int32, 0, max(need, 2*cap(offsets)))
	}
	offsets = append(offsets, 0)
	for ci := 1; ci < len(p.offsets); ci++ {
		cls := p.rows[p.offsets[ci-1]:p.offsets[ci]]
		if len(cls) == 2 {
			if k := key[cls[0]]; k >= 0 && k == key[cls[1]] {
				rows = append(rows, cls[0], cls[1])
				offsets = append(offsets, int32(len(rows)))
			}
			continue
		}
		touched = touched[:0]
		for _, row := range cls {
			k := key[row]
			if k < 0 {
				continue // a singleton of the other operand stays a singleton
			}
			if int(k) >= len(counts) {
				// A row view's sparse rank; grow geometrically like FromColumn.
				counts = growInt32(counts, int(k)+1)
			}
			if counts[k] == 0 {
				touched = append(touched, k)
			}
			counts[k]++
		}
		if len(touched) == 1 && int(counts[touched[0]]) == len(cls) {
			// The class does not split.
			rows = append(rows, cls...)
			offsets = append(offsets, int32(len(rows)))
			counts[touched[0]] = 0
			continue
		}
		for _, k := range touched {
			if c := counts[k]; c >= 2 {
				start := int32(len(rows))
				rows = rows[:start+c]
				counts[k] = start
				offsets = append(offsets, start+c)
			} else {
				counts[k] = -1
			}
		}
		for _, row := range cls {
			k := key[row]
			if k < 0 {
				continue
			}
			if cur := counts[k]; cur >= 0 {
				rows[cur] = row
				counts[k] = cur + 1
			}
		}
		for _, k := range touched {
			counts[k] = 0
		}
	}
	s.counts, s.outRows, s.outOffsets, s.touched = counts, rows, offsets, touched
	// Appending onto nil copies without zeroing the new arrays first.
	return &Partition{
		NumRows: p.NumRows,
		rows:    append([]int32(nil), rows...),
		offsets: append([]int32(nil), offsets...),
	}
}
