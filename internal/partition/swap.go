package partition

import (
	"math"
	"math/bits"
)

// SwapWitness identifies a pair of rows (s, t) within one equivalence class
// such that s precedes t on colA but t precedes s on colB — a "swap" in the
// sense of Definition 5, restricted to the context defining this partition.
type SwapWitness struct {
	RowS, RowT int
}

// HasSwap reports whether some equivalence class of the context partition
// contains a swap between colA and colB, i.e. whether the canonical OD
// X: A ~ B is violated (the receiver being Π*X). It is the convenience form
// of HasSwapWith with a private workspace; validation loops should reuse a
// per-worker Scratch instead.
func (p *Partition) HasSwap(colA, colB []int32) bool {
	return p.HasSwapWith(colA, colB, nil)
}

// HasSwapWith is HasSwap using s as scratch space (nil allocates one). Each
// class is ordered by A-rank alone with a scratch-backed stable radix sort —
// no per-class allocation, no comparison sort, and only as many 8-bit passes
// as the largest A-rank needs — and then scanned once group by group: every
// B-rank in a group of equal A-rank must be at least the largest B-rank of
// the strictly smaller A-groups. Rows tied on A never form a swap, so their
// B-order is irrelevant and B stays out of the sort key.
func (p *Partition) HasSwapWith(colA, colB []int32, s *Scratch) bool {
	_, found := p.findSwap(colA, colB, false, s)
	return found
}

// FindSwap returns a witness pair for a swap between colA and colB within the
// context partition, if one exists. The witness is deterministic: it comes
// from the first class (in class order) that contains a swap; within that
// class, over rows ordered by A-rank with class order breaking ties, RowT is
// the first row holding the smallest violating B-rank of the first A-group
// that contains a violation, and RowS is the first row holding the largest
// B-rank among the A-groups before it.
func (p *Partition) FindSwap(colA, colB []int32) (SwapWitness, bool) {
	return p.findSwap(colA, colB, true, nil)
}

// FindSwapWith is FindSwap using s as scratch space (nil allocates one).
func (p *Partition) FindSwapWith(colA, colB []int32, s *Scratch) (SwapWitness, bool) {
	return p.findSwap(colA, colB, true, s)
}

func (p *Partition) findSwap(colA, colB []int32, wantWitness bool, s *Scratch) (SwapWitness, bool) {
	if s == nil {
		s = NewScratch()
	}
	for ci, n := 0, p.NumClasses(); ci < n; ci++ {
		keys, rows := s.sortClassByA(p.Class(ci), colA)
		// Scan groups of equal A-rank. Every B-rank in the current group must
		// be >= runningMax, the largest B-rank of the strictly smaller
		// A-groups (-1 before the first group: ranks are non-negative).
		runningMax, runningMaxRow := int32(-1), int32(-1)
		k := len(keys)
		for i := 0; i < k; {
			a := keys[i]
			groupMax, groupMaxRow := int32(-1), int32(-1)
			violB, violRow := runningMax, int32(-1)
			j := i
			for ; j < k && keys[j] == a; j++ {
				row := rows[j]
				b := colB[row]
				if b < violB {
					if !wantWitness {
						return SwapWitness{}, true
					}
					// Finish the group: the witness is its smallest violation.
					violB, violRow = b, row
				}
				if b > groupMax {
					groupMax, groupMaxRow = b, row
				}
			}
			if violRow >= 0 {
				return SwapWitness{RowS: int(runningMaxRow), RowT: int(violRow)}, true
			}
			if groupMax > runningMax {
				runningMax, runningMaxRow = groupMax, groupMaxRow
			}
			i = j
		}
	}
	return SwapWitness{}, false
}

// SwapRemovals returns the minimum number of tuples that must be removed from
// the relation so that no class of the context partition contains a swap
// between colA and colB — the g3-style error of the OD X: A ~ B (the receiver
// being Π*X). It is SwapRemovalsWithin with no limit.
func (p *Partition) SwapRemovals(colA, colB []int32, s *Scratch) int {
	removals, _ := p.SwapRemovalsWithin(colA, colB, math.MaxInt, s)
	return removals
}

// SwapRemovalsWithin counts SwapRemovals class by class and stops after the
// first class that takes the running total past limit. within reports
// whether the full count is at most limit; when it is, removals is exact,
// and when it is not, removals is a partial count that already exceeds
// limit. Within each class the largest swap-free subset is the longest
// non-decreasing subsequence of B-ranks once the class is ordered by (A, B);
// unlike the swap checks it needs B ascending within A-ties, so the class is
// sorted on the per-class packed (A, B) key of sortClassByRanks and the
// subsequence found by patience sorting. The whole computation is
// allocation-free on a warm scratch. A nil scratch allocates one.
func (p *Partition) SwapRemovalsWithin(colA, colB []int32, limit int, s *Scratch) (removals int, within bool) {
	if s == nil {
		s = NewScratch()
	}
	for ci, n := 0, p.NumClasses(); ci < n; ci++ {
		cls := p.Class(ci)
		keys, bMask := s.sortClassByRanks(cls, colA, colB)
		// Longest non-decreasing subsequence over the B-ranks: tails[k] holds
		// the smallest possible tail of a subsequence of length k+1.
		tails := s.tails[:0]
		for _, key := range keys {
			b := int32(key & bMask)
			// First tail strictly greater than b (upper bound), since equal
			// values extend a non-decreasing subsequence.
			lo, hi := 0, len(tails)
			for lo < hi {
				mid := (lo + hi) / 2
				if tails[mid] <= b {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo == len(tails) {
				tails = append(tails, b)
			} else {
				tails[lo] = b
			}
		}
		s.tails = tails[:0]
		removals += len(cls) - len(tails)
		if removals > limit {
			return removals, false
		}
	}
	return removals, removals <= limit
}

// ConstancyRemovals returns the minimum number of tuples that must be removed
// so that attribute col is constant within every class of the partition — the
// g3 error of the FD X → A (the receiver being Π*X). It is
// ConstancyRemovalsWithin with no limit.
func (p *Partition) ConstancyRemovals(col []int32, s *Scratch) int {
	removals, _ := p.ConstancyRemovalsWithin(col, math.MaxInt, s)
	return removals
}

// ConstancyRemovalsWithin counts ConstancyRemovals class by class and stops
// after the first class that takes the running total past limit, with the
// same contract as SwapRemovalsWithin: removals is exact when within, and
// exceeds limit otherwise. Per class, everything but the most frequent rank
// goes. The frequency count uses the scratch's rank-indexed counts table, so
// the computation is allocation-free on a warm scratch. A nil scratch
// allocates one.
func (p *Partition) ConstancyRemovalsWithin(col []int32, limit int, s *Scratch) (removals int, within bool) {
	if s == nil {
		s = NewScratch()
	}
	for ci, n := 0, p.NumClasses(); ci < n; ci++ {
		cls := p.Class(ci)
		touched := s.touched[:0]
		best := int32(0)
		for _, row := range cls {
			v := col[row]
			if int(v) >= len(s.counts) {
				s.counts = growInt32(s.counts, int(v)+1)
			}
			if s.counts[v] == 0 {
				touched = append(touched, v)
			}
			s.counts[v]++
			if s.counts[v] > best {
				best = s.counts[v]
			}
		}
		for _, v := range touched {
			s.counts[v] = 0
		}
		s.touched = touched
		removals += len(cls) - int(best)
		if removals > limit {
			return removals, false
		}
	}
	return removals, removals <= limit
}

// sortClassByRanks loads the class's (A-rank, B-rank) pairs into the scratch
// key buffer and sorts them by (A, B) ascending. Each pair is packed as
// A<<bits.Len32(maxB) | B, with maxB the largest B-rank in the class, so the
// key is only as wide as this class's ranks need and the radix sort stops
// after that many digits. It returns the sorted keys and bMask, which reads
// the B-rank back out of a key (key & bMask). Ranks are non-negative int32s,
// so a key takes at most 62 bits. The buffer is valid until the next scratch
// call.
func (s *Scratch) sortClassByRanks(cls []int32, colA, colB []int32) (keys []uint64, bMask uint64) {
	keys, rows := s.keyBufs(len(cls))
	var maxB uint32
	for j, row := range cls {
		b := uint32(colB[row])
		keys[j] = uint64(b)
		rows[j] = row
		if b > maxB {
			maxB = b
		}
	}
	shift := uint(bits.Len32(maxB))
	var maxKey uint64
	for j, row := range rows {
		key := uint64(uint32(colA[row]))<<shift | keys[j]
		keys[j] = key
		if key > maxKey {
			maxKey = key
		}
	}
	s.sortKeysRows(keys, rows, maxKey)
	return keys, 1<<shift - 1
}

// sortClassByA loads the class's rows into the scratch key buffers keyed on
// the A-rank alone and sorts them, returning the A-ranks ascending with the
// rows permuted in lockstep; rows tied on A keep their class order (the sort
// is stable). The narrow key lets the radix sort stop after the digits of
// the largest A-rank.
func (s *Scratch) sortClassByA(cls []int32, colA []int32) (keys []uint64, rows []int32) {
	keys, rows = s.keyBufs(len(cls))
	var maxKey uint64
	for j, row := range cls {
		key := uint64(uint32(colA[row]))
		keys[j] = key
		rows[j] = row
		if key > maxKey {
			maxKey = key
		}
	}
	s.sortKeysRows(keys, rows, maxKey)
	return keys, rows
}

// keyBufs returns the scratch key and row buffers resliced to length k,
// growing them if needed; the caller fills both.
func (s *Scratch) keyBufs(k int) (keys []uint64, rows []int32) {
	if cap(s.keys) < k {
		n := keyBufCap(cap(s.keys), k)
		s.keys = make([]uint64, n)
		s.keyRows = make([]int32, n)
	}
	keys = s.keys[:k]
	rows = s.keyRows[:k]
	return keys, rows
}

// keyBufCap sizes a key-buffer regrow geometrically (at least doubling), so
// a sequence of classes of increasing size costs O(log max) reallocations
// rather than one per new maximum.
func keyBufCap(have, need int) int {
	c := 2 * have
	if c < need {
		c = need
	}
	if c < 64 {
		c = 64
	}
	return c
}

// insertionCutoff is the class size below which insertion sort beats the
// fixed per-pass overhead (clearing 256 counters) of the radix sort.
const insertionCutoff = 48

// sortKeysRows sorts keys ascending with rows permuted in lockstep: insertion
// sort for small inputs, LSD radix sort (8-bit digits, skipping digits the
// maximum key does not reach) for large ones. Both paths are stable, so the
// resulting order — and any witness derived from it — is deterministic.
func (s *Scratch) sortKeysRows(keys []uint64, rows []int32, maxKey uint64) {
	n := len(keys)
	if n < 2 {
		return
	}
	if n <= insertionCutoff {
		for i := 1; i < n; i++ {
			key, row := keys[i], rows[i]
			j := i - 1
			for j >= 0 && keys[j] > key {
				keys[j+1], rows[j+1] = keys[j], rows[j]
				j--
			}
			keys[j+1], rows[j+1] = key, row
		}
		return
	}
	if cap(s.tmpKeys) < n {
		c := keyBufCap(cap(s.tmpKeys), n)
		s.tmpKeys = make([]uint64, c)
		s.tmpRows = make([]int32, c)
	}
	srcK, srcR := keys, rows
	dstK, dstR := s.tmpKeys[:n], s.tmpRows[:n]
	var count [256]int32
	for shift := uint(0); shift < 64 && maxKey>>shift != 0; shift += 8 {
		for i := range count {
			count[i] = 0
		}
		for _, key := range srcK {
			count[(key>>shift)&0xff]++
		}
		pos := int32(0)
		for d := 0; d < 256; d++ {
			c := count[d]
			count[d] = pos
			pos += c
		}
		for i, key := range srcK {
			d := (key >> shift) & 0xff
			dstK[count[d]] = key
			dstR[count[d]] = srcR[i]
			count[d]++
		}
		srcK, srcR, dstK, dstR = dstK, dstR, srcK, srcR
	}
	if &srcK[0] != &keys[0] {
		copy(keys, srcK)
		copy(rows, srcR)
	}
}
