// Package listod implements the list-based (lexicographic) order dependency
// model of Section 2 of the paper: order specifications, the weak total order
// ⪯X they induce over tuples, order dependencies X ↦ Y, order compatibility
// X ~ Y, and the two violation witnesses (splits and swaps). FindViolations
// is the one check of a list OD: one sort by the left side and one scan
// return the first split and the first swap; Holds and ORDER's candidate
// checks read it. It is the ground-truth semantics against which the
// set-based canonical machinery and the discovery algorithms are validated,
// and the substrate of the ORDER baseline.
package listod

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/bitset"
	"repro/internal/relation"
)

// Spec is an order specification: a list of attribute indexes defining a
// lexicographic order (sort by the first attribute, break ties by the second,
// and so on), exactly like a SQL ORDER BY list with all-ascending directions.
type Spec []int

// String renders the spec as [0,2,1].
func (s Spec) String() string {
	parts := make([]string, len(s))
	for i, a := range s {
		parts[i] = fmt.Sprintf("%d", a)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// Names renders the spec as [year,salary] using the provided attribute names.
func (s Spec) Names(names []string) string {
	parts := make([]string, len(s))
	for i, a := range s {
		parts[i] = bitset.Name(names, a)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// Contains reports whether attribute a occurs anywhere in the spec.
func (s Spec) Contains(a int) bool {
	for _, x := range s {
		if x == a {
			return true
		}
	}
	return false
}

// Concat returns the concatenation s ◦ t as a new spec.
func (s Spec) Concat(t Spec) Spec {
	out := make(Spec, 0, len(s)+len(t))
	out = append(out, s...)
	out = append(out, t...)
	return out
}

// OD is a list-based order dependency Left ↦ Right ("Left orders Right").
type OD struct {
	Left  Spec
	Right Spec
}

// String renders the OD as [0] -> [1,2].
func (od OD) String() string { return od.Left.String() + " -> " + od.Right.String() }

// Names renders the OD using attribute names.
func (od OD) Names(names []string) string {
	return od.Left.Names(names) + " -> " + od.Right.Names(names)
}

// Compare compares tuples s and t under the lexicographic order induced by
// spec on the encoded relation (Definition 1): it returns a negative number
// if s ≺X t, zero if the projections are equal, and a positive number if
// t ≺X s. The empty spec makes all tuples equivalent.
func Compare(enc *relation.Encoded, spec Spec, s, t int) int {
	for _, a := range spec {
		col := enc.Column(a)
		if col[s] != col[t] {
			if col[s] < col[t] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Precedes reports s ⪯X t, i.e. Compare(s,t) <= 0.
func Precedes(enc *relation.Encoded, spec Spec, s, t int) bool {
	return Compare(enc, spec, s, t) <= 0
}

// Holds reports whether the order dependency X ↦ Y is satisfied by the
// relation instance (Definition 2): for every pair of tuples, s ⪯X t implies
// s ⪯Y t. By Theorem 1 that is the absence of both a split of X ↦ XY and a
// swap of X ~ Y, which FindViolations looks for in O(n log n · (|X|+|Y|))
// time.
func Holds(enc *relation.Encoded, x, y Spec) bool {
	v := FindViolations(enc, x, y)
	return !v.HasSplit && !v.HasSwap
}

// HoldsBruteForce checks the same property by enumerating all tuple pairs.
// It exists as an independent oracle for the tests of Holds and of the
// canonical mapping; it is quadratic and must only be used on small inputs.
func HoldsBruteForce(enc *relation.Encoded, x, y Spec) bool {
	n := enc.NumRows()
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if Precedes(enc, x, s, t) && !Precedes(enc, y, s, t) {
				return false
			}
		}
	}
	return true
}

// OrderEquivalent reports X ↔ Y: X ↦ Y and Y ↦ X. On XY and YX it is
// Definition 3 of X ~ Y, the oracle OrderCompatible is tested against.
func OrderEquivalent(enc *relation.Encoded, x, y Spec) bool {
	return Holds(enc, x, y) && Holds(enc, y, x)
}

// OrderCompatible reports X ~ Y, i.e. XY ↔ YX (Definition 3). By Theorem 1
// that is the absence of a swap between X and Y, which FindViolations looks
// for with one sort by X.
func OrderCompatible(enc *relation.Encoded, x, y Spec) bool {
	return !FindViolations(enc, x, y).HasSwap
}

// Split is a pair of tuples witnessing a violation of the FD component of an
// OD (Definition 4): the tuples agree on X but differ on Y.
type Split struct {
	RowS, RowT int
}

// Swap is a pair of tuples witnessing a violation of order compatibility
// (Definition 5): s strictly precedes t on X while t strictly precedes s on Y.
type Swap struct {
	RowS, RowT int
}

// Violations holds the first split of X ↦ XY and the first swap of X ~ Y
// that FindViolations meets, each with a flag telling whether one exists.
type Violations struct {
	Split    Split
	HasSplit bool
	Swap     Swap
	HasSwap  bool
}

// FindViolations looks for both witnesses of Theorem 1 at once: it sorts the
// rows by X, ties in row order, and scans the sorted rows once. Within a
// group of rows equal on X, a row whose Y-projection differs from the
// group's first row forms a split with it; a row whose Y-projection is below
// the greatest one of the groups before it forms a swap with the row holding
// that maximum. The scan stops once it has both.
func FindViolations(enc *relation.Encoded, x, y Spec) Violations {
	var v Violations
	if enc.NumRows() == 0 {
		return v
	}
	rows := make([]int, enc.NumRows())
	for i := range rows {
		rows[i] = i
	}
	slices.SortFunc(rows, func(s, t int) int {
		if c := Compare(enc, x, s, t); c != 0 {
			return c
		}
		return cmp.Compare(s, t)
	})
	// first opens the current X-group and groupTop is its row greatest on Y;
	// top is the row greatest on Y among the earlier groups (-1 for none).
	first, groupTop, top := rows[0], rows[0], -1
	for _, row := range rows[1:] {
		if Compare(enc, x, first, row) != 0 {
			if v.HasSplit && v.HasSwap {
				break
			}
			if top < 0 || Compare(enc, y, groupTop, top) > 0 {
				top = groupTop
			}
			first, groupTop = row, row
		}
		if !v.HasSplit && Compare(enc, y, first, row) != 0 {
			v.Split, v.HasSplit = Split{RowS: first, RowT: row}, true
		}
		if !v.HasSwap && top >= 0 && Compare(enc, y, row, top) < 0 {
			v.Swap, v.HasSwap = Swap{RowS: top, RowT: row}, true
		}
		if Compare(enc, y, row, groupTop) > 0 {
			groupTop = row
		}
	}
	return v
}

// Trivial reports whether X ↦ Y holds on every relation instance, which for
// lexicographic ODs is the case exactly when Y is order-implied by a prefix
// structure of X; the sufficient syntactic condition implemented here is that
// Y is a prefix of X after removing attributes already seen (Normalization),
// e.g. XY ↦ X (Reflexivity). It is used by the ORDER baseline to skip
// candidates that carry no information.
func Trivial(x, y Spec) bool {
	// Normalize both sides: drop repeated attributes, keeping first
	// occurrence (Normalization axiom).
	nx := normalize(x)
	ny := normalize(y)
	if len(ny) > len(nx) {
		return false
	}
	for i := range ny {
		if nx[i] != ny[i] {
			return false
		}
	}
	return true
}

func normalize(s Spec) Spec {
	seen := map[int]bool{}
	out := make(Spec, 0, len(s))
	for _, a := range s {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}
