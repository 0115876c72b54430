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
	"math"

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
	switch od.Kind {
	case canonical.Constancy:
		return constancyError(enc, od.Context, od.A)
	case canonical.OrderCompatible:
		return orderCompatError(enc, od.Context, od.A, od.B)
	default:
		return Error{}, fmt.Errorf("approx: unknown OD kind %v", od.Kind)
	}
}

// constancyError computes the error of X: [] ↦ A: within each equivalence
// class of ΠX all tuples must agree on A, so the removals per class are the
// class size minus the most frequent A value in it. The per-class counting is
// the flat ConstancyRemovals kernel of package partition.
func constancyError(enc *relation.Encoded, ctx bitset.AttrSet, a int) (Error, error) {
	if err := checkAttr(enc, a); err != nil {
		return Error{}, err
	}
	if ctx.Contains(a) {
		return Error{}, nil // trivial
	}
	s := partition.NewScratch()
	p, err := contextPartition(enc, ctx, s)
	if err != nil {
		return Error{}, err
	}
	return newError(p.ConstancyRemovals(enc.Column(a), math.MaxInt, s), enc.NumRows()), nil
}

// orderCompatError computes the error of X: A ~ B: within each equivalence
// class the largest swap-free subset is the longest non-decreasing
// subsequence of B-ranks once the class is ordered by (A, B) — the
// SwapRemovals kernel of package partition, asked for the exact count, so
// every class is sorted and scanned by patience sorting; everything else
// must be removed.
func orderCompatError(enc *relation.Encoded, ctx bitset.AttrSet, a, b int) (Error, error) {
	if err := checkAttr(enc, a); err != nil {
		return Error{}, err
	}
	if err := checkAttr(enc, b); err != nil {
		return Error{}, err
	}
	if a == b || ctx.Contains(a) || ctx.Contains(b) {
		return Error{}, nil // trivial
	}
	s := partition.NewScratch()
	p, err := contextPartition(enc, ctx, s)
	if err != nil {
		return Error{}, err
	}
	return newError(p.SwapRemovals(enc.Column(a), enc.Column(b), math.MaxInt, s), enc.NumRows()), nil
}

func newError(removals, rows int) Error {
	e := Error{Removals: removals}
	if rows > 0 {
		e.Rate = float64(removals) / float64(rows)
	}
	return e
}

func contextPartition(enc *relation.Encoded, ctx bitset.AttrSet, s *partition.Scratch) (*partition.Partition, error) {
	for _, a := range ctx.Attrs() {
		if err := checkAttr(enc, a); err != nil {
			return nil, err
		}
	}
	p := partition.FromConstant(enc.NumRows())
	ctx.ForEach(func(a int) {
		p = p.ProductWith(partition.FromColumn(enc.Column(a), enc.Cardinality[a]), s)
	})
	return p, nil
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

// Profile measures the error of every OD in the slice.
func Profile(enc *relation.Encoded, ods []canonical.OD) ([]ODError, error) {
	out := make([]ODError, 0, len(ods))
	for _, od := range ods {
		e, err := ErrorOf(enc, od)
		if err != nil {
			return nil, err
		}
		out = append(out, ODError{OD: od, Error: e})
	}
	return out, nil
}
