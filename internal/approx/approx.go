// Package approx implements approximate order dependencies, the first
// extension the paper's conclusion calls for: canonical ODs that "almost
// hold" on a relation instance within a specified error threshold. The error
// of an OD is the minimum fraction of tuples that must be removed for the OD
// to hold exactly (the g3 measure used for approximate FDs by TANE, extended
// here to order compatibility), so exact ODs have error 0 and the measure is
// monotone: enlarging the context never increases the error.
package approx

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/canonical"
	"repro/internal/partition"
	"repro/internal/relation"
)

// Error reports how far an OD is from holding exactly.
type Error struct {
	// Removals is the minimum number of tuples whose removal makes the OD
	// hold exactly.
	Removals int
	// Rate is Removals divided by the number of tuples (0 for an empty
	// relation), the normalized g3-style error in [0, 1).
	Rate float64
}

// ErrorOf computes the error of a canonical OD on the encoded relation.
func ErrorOf(enc *relation.Encoded, od canonical.OD) (Error, error) {
	return errorOf(enc, od, partition.NewScratch())
}

// errorOf is ErrorOf on the caller's scratch, which serves both the context
// partition's refinement chain and the removal count.
func errorOf(enc *relation.Encoded, od canonical.OD, s *partition.Scratch) (Error, error) {
	switch od.Kind {
	case canonical.Constancy:
		return constancyError(enc, od.Context, od.A, s)
	case canonical.OrderCompatible:
		return orderCompatError(enc, od.Context, od.A, od.B, s)
	default:
		return Error{}, fmt.Errorf("approx: unknown OD kind %v", od.Kind)
	}
}

// constancyError computes the error of X: [] ↦ A: within each equivalence
// class of ΠX all tuples must agree on A, so the removals per class are the
// class size minus the most frequent A value in it. The per-class counting is
// the flat ConstancyRemovals kernel of package partition.
func constancyError(enc *relation.Encoded, ctx bitset.AttrSet, a int, s *partition.Scratch) (Error, error) {
	if err := checkAttr(enc, a); err != nil {
		return Error{}, err
	}
	if ctx.Contains(a) {
		return Error{}, nil // trivial
	}
	if err := checkContext(enc, ctx); err != nil {
		return Error{}, err
	}
	p := canonical.ContextPartitionWith(enc, ctx, s)
	return newError(p.ConstancyRemovals(enc.Column(a), s), enc.NumRows()), nil
}

// orderCompatError computes the error of X: A ~ B: within each equivalence
// class the largest swap-free subset is the longest non-decreasing
// subsequence of B-ranks once the class is ordered by (A, B) — the
// SwapRemovals kernel of package partition (radix sort on the packed (A, B)
// key, unlike the A-only sort of the exact swap check, plus patience
// sorting); everything else must be removed.
func orderCompatError(enc *relation.Encoded, ctx bitset.AttrSet, a, b int, s *partition.Scratch) (Error, error) {
	if err := checkAttr(enc, a); err != nil {
		return Error{}, err
	}
	if err := checkAttr(enc, b); err != nil {
		return Error{}, err
	}
	if a == b || ctx.Contains(a) || ctx.Contains(b) {
		return Error{}, nil // trivial
	}
	if err := checkContext(enc, ctx); err != nil {
		return Error{}, err
	}
	p := canonical.ContextPartitionWith(enc, ctx, s)
	return newError(p.SwapRemovals(enc.Column(a), enc.Column(b), s), enc.NumRows()), nil
}

// removalLimit returns the largest removal count r in [0, rows] whose rate
// float64(r)/float64(rows) is at most threshold. The rate is monotone in r,
// so for every count c, c <= removalLimit(rows, threshold) exactly when
// newError(c, rows).Rate <= threshold: a removal kernel bounded by the limit
// makes the same accept/reject decision as comparing the finished rate. An
// empty relation has only the count 0, which every threshold accepts.
func removalLimit(rows int, threshold float64) int {
	if rows == 0 {
		return 0
	}
	n := float64(rows)
	r := min(max(int(threshold*n), 0), rows)
	// threshold*n is rounded; step to the exact boundary of the rate test.
	for r > 0 && float64(r)/n > threshold {
		r--
	}
	for r < rows && float64(r+1)/n <= threshold {
		r++
	}
	return r
}

func newError(removals, rows int) Error {
	e := Error{Removals: removals}
	if rows > 0 {
		e.Rate = float64(removals) / float64(rows)
	}
	return e
}

func checkContext(enc *relation.Encoded, ctx bitset.AttrSet) error {
	for _, a := range ctx.Attrs() {
		if err := checkAttr(enc, a); err != nil {
			return err
		}
	}
	return nil
}

func checkAttr(enc *relation.Encoded, a int) error {
	if a < 0 || a >= enc.NumCols() {
		return fmt.Errorf("approx: attribute %d out of range for relation with %d columns", a, enc.NumCols())
	}
	return nil
}

// ODError pairs an OD with its measured error; Profile returns one per input
// OD, which is the data-quality report used by the approximate example.
type ODError struct {
	OD    canonical.OD
	Error Error
}

// Profile measures the error of every OD in the slice, on one scratch shared
// by every measurement.
func Profile(enc *relation.Encoded, ods []canonical.OD) ([]ODError, error) {
	out := make([]ODError, 0, len(ods))
	s := partition.NewScratch()
	for _, od := range ods {
		e, err := errorOf(enc, od, s)
		if err != nil {
			return nil, err
		}
		out = append(out, ODError{OD: od, Error: e})
	}
	return out, nil
}
