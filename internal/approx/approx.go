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

// ErrorOf computes the error of a canonical OD on the encoded relation. Like
// canonical.Holds it first checks every attribute with canonical.CheckAttrs
// (so its attribute errors start "canonical:"), gives a trivial OD error
// zero, and builds the context with canonical.ContextPartition. Within each
// equivalence class of the context, a constancy OD X: [] ↦ A must remove
// every tuple but those with the class's most frequent A value (the
// ConstancyRemovals kernel), and an order-compatibility OD X: A ~ B keeps
// the longest non-decreasing subsequence of B-ranks once the class is
// ordered by (A, B) and removes the rest (the SwapRemovals kernel, asked for
// the exact count).
func ErrorOf(enc *relation.Encoded, od canonical.OD) (Error, error) {
	if err := canonical.CheckAttrs(enc.NumCols(), od); err != nil {
		return Error{}, err
	}
	if od.IsTrivial() {
		return Error{}, nil
	}
	s := partition.NewScratch()
	p := canonical.ContextPartition(enc, od.Context, s)
	switch od.Kind {
	case canonical.Constancy:
		return newError(p.ConstancyRemovals(enc.Column(od.A), math.MaxInt, s), enc.NumRows()), nil
	case canonical.OrderCompatible:
		return newError(p.SwapRemovals(enc.Column(od.A), enc.Column(od.B), math.MaxInt, s), enc.NumRows()), nil
	default:
		return Error{}, fmt.Errorf("approx: unknown OD kind %v", od.Kind)
	}
}

func newError(removals, rows int) Error {
	e := Error{Removals: removals}
	if rows > 0 {
		e.Rate = float64(removals) / float64(rows)
	}
	return e
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
