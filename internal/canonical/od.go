// Package canonical implements the paper's central representational idea: the
// set-based canonical form for order dependencies (Section 3). A canonical OD
// is either a constancy OD  X: [] ↦ A  ("A is constant within each
// equivalence class of the context X") or an order-compatibility OD
// X: A ~ B  ("A and B have no swaps within each equivalence class of X").
//
// The package provides the polynomial mapping from list-based ODs to
// canonical ODs (Theorem 5), the set-based inference rules of Figure 2,
// implication reasoning over sets of canonical ODs (covers), direct
// validation of canonical ODs against relation instances, and a brute-force
// reference discoverer used as the ground truth in tests.
package canonical

import (
	"fmt"
	"sort"

	"repro/internal/bitset"
)

// Kind distinguishes the two canonical OD shapes.
type Kind int

const (
	// Constancy is X: [] ↦ A. Its list-based reading is X' ↦ X'A for any
	// permutation X' of X, i.e. the FD X → A.
	Constancy Kind = iota
	// OrderCompatible is X: A ~ B. Its list-based reading is X'A ~ X'B for
	// any permutation X' of X.
	OrderCompatible
)

// String returns "constancy" or "order-compatible".
func (k Kind) String() string {
	switch k {
	case Constancy:
		return "constancy"
	case OrderCompatible:
		return "order-compatible"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// OD is a set-based canonical order dependency. For OrderCompatible ODs the
// attribute pair is stored normalized with A < B, because order compatibility
// is symmetric (Commutativity axiom).
type OD struct {
	// Context is the attribute set X within whose equivalence classes the
	// condition must hold.
	Context bitset.AttrSet
	Kind    Kind
	// A is the constant attribute (Constancy) or the smaller attribute of the
	// pair (OrderCompatible).
	A int
	// B is the larger attribute of the pair; unused for Constancy ODs.
	B int
}

// NewConstancy builds the canonical OD  ctx: [] ↦ a.
func NewConstancy(ctx bitset.AttrSet, a int) OD {
	return OD{Context: ctx, Kind: Constancy, A: a}
}

// NewOrderCompatible builds the canonical OD  ctx: a ~ b  with the pair
// normalized so that A < B. It panics if a == b; use IsTrivial-aware callers
// for the identity case.
func NewOrderCompatible(ctx bitset.AttrSet, a, b int) OD {
	p := bitset.NewPair(a, b)
	return OD{Context: ctx, Kind: OrderCompatible, A: p.A, B: p.B}
}

// Pair returns the attribute pair of an OrderCompatible OD.
func (od OD) Pair() bitset.Pair {
	return bitset.Pair{A: od.A, B: od.B}
}

// IsTrivial reports whether the OD holds on every relation instance:
// a constancy OD is trivial when A ∈ X (Reflexivity); an order-compatibility
// OD is trivial when A ∈ X or B ∈ X (Normalization, Lemma 4) or A = B
// (Identity).
func (od OD) IsTrivial() bool {
	switch od.Kind {
	case Constancy:
		return od.Context.Contains(od.A)
	case OrderCompatible:
		return od.A == od.B || od.Context.Contains(od.A) || od.Context.Contains(od.B)
	default:
		return false
	}
}

// Attributes returns the set of all attributes mentioned by the OD (context
// plus right-hand attributes).
func (od OD) Attributes() bitset.AttrSet {
	s := od.Context.Add(od.A)
	if od.Kind == OrderCompatible {
		s = s.Add(od.B)
	}
	return s
}

// Equal reports whether two canonical ODs are identical.
func (od OD) Equal(other OD) bool {
	return od.Context == other.Context && od.Kind == other.Kind && od.A == other.A && od.B == other.B
}

// String renders the OD with attribute indexes, e.g. "{0,1}: [] -> 2" or
// "{0}: 1 ~ 3".
func (od OD) String() string {
	if od.Kind == Constancy {
		return fmt.Sprintf("%s: [] -> %d", od.Context, od.A)
	}
	return fmt.Sprintf("%s: %d ~ %d", od.Context, od.A, od.B)
}

// NamesString renders the OD using attribute names, e.g. "{yr}: [] -> bin".
func (od OD) NamesString(names []string) string {
	if od.Kind == Constancy {
		return fmt.Sprintf("%s: [] -> %s", od.Context.Names(names), bitset.Name(names, od.A))
	}
	return fmt.Sprintf("%s: %s ~ %s", od.Context.Names(names), bitset.Name(names, od.A), bitset.Name(names, od.B))
}

// Less defines a deterministic total order over canonical ODs, used to sort
// discovery output: by context size, then context bits, then kind, then the
// right-hand attributes.
func Less(a, b OD) bool {
	if a.Context.Len() != b.Context.Len() {
		return a.Context.Len() < b.Context.Len()
	}
	if a.Context != b.Context {
		return a.Context < b.Context
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.A != b.A {
		return a.A < b.A
	}
	return a.B < b.B
}

// Sort orders a slice of canonical ODs deterministically (see Less).
func Sort(ods []OD) {
	sort.Slice(ods, func(i, j int) bool { return Less(ods[i], ods[j]) })
}

// Count summarizes a set of canonical ODs the way the paper reports results:
// total, number of constancy (FD-flavoured) ODs and number of
// order-compatibility ODs. The tags are odserve's "counts" object.
type Count struct {
	Total       int `json:"total"`
	Constancy   int `json:"constancy"`
	OrderCompat int `json:"order_compatible"`
}

// CountByKind tallies a slice of canonical ODs.
func CountByKind(ods []OD) Count {
	var c Count
	for _, od := range ods {
		c.Total++
		if od.Kind == Constancy {
			c.Constancy++
		} else {
			c.OrderCompat++
		}
	}
	return c
}

// String renders the count like the figures in the paper: "17 (16 + 1)".
func (c Count) String() string {
	return fmt.Sprintf("%d (%d + %d)", c.Total, c.Constancy, c.OrderCompat)
}
