package canonical

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/relation"
)

// This file is the raw-value half of the ordering oracle: it evaluates
// canonical ODs directly on the raw (string) relation under an OrderSpec,
// using relation.Compare pairwise — no rank encoding, no partitions, no
// shared code with the discovery path. Differential suites run discovery on
// the spec-encoded relation and assert the result equals what these
// functions compute on raw values; disagreement means the encoding failed
// to compile the spec away.

// rawInstance pairs a raw relation with per-attribute comparators under a
// validated OrderSpec.
type rawInstance struct {
	rel  *relation.Relation
	spec relation.OrderSpec // len == NumCols (expanded from nil)
}

func newRawInstance(rel *relation.Relation, spec relation.OrderSpec) (*rawInstance, error) {
	if err := rel.Validate(); err != nil {
		return nil, err
	}
	if spec == nil {
		spec = make(relation.OrderSpec, rel.NumCols())
	}
	if len(spec) != rel.NumCols() {
		return nil, fmt.Errorf("canonical: order spec has %d entries, relation has %d columns", len(spec), rel.NumCols())
	}
	for i, co := range spec {
		if err := co.Validate(); err != nil {
			return nil, fmt.Errorf("canonical: column %q: %w", rel.Columns[i].Name, err)
		}
	}
	return &rawInstance{rel: rel, spec: spec}, nil
}

// cmp orders rows s and t by attribute a under the spec.
func (ri *rawInstance) cmp(a, s, t int) int {
	col := ri.rel.Columns[a]
	return relation.Compare(ri.spec[a], col.Type, col.Value(s), col.Value(t))
}

// contextClasses partitions the rows into equivalence classes of the context
// (rows pairwise equal on every context attribute under the spec's
// collations). Quadratic and proud of it — this is the oracle.
func (ri *rawInstance) contextClasses(ctx bitset.AttrSet) [][]int {
	attrs := ctx.Attrs()
	var classes [][]int
	n := ri.rel.NumRows()
rows:
	for r := 0; r < n; r++ {
		for ci, class := range classes {
			rep := class[0]
			same := true
			for _, a := range attrs {
				if ri.cmp(a, rep, r) != 0 {
					same = false
					break
				}
			}
			if same {
				classes[ci] = append(classes[ci], r)
				continue rows
			}
		}
		classes = append(classes, []int{r})
	}
	return classes
}

// constantIn reports whether attribute a is constant (all values equal under
// its collation) within every class.
func (ri *rawInstance) constantIn(classes [][]int, a int) bool {
	for _, class := range classes {
		for _, r := range class[1:] {
			if ri.cmp(a, class[0], r) != 0 {
				return false
			}
		}
	}
	return true
}

// swapFreeIn reports whether attributes a and b are order-compatible (no
// pair of rows with a strictly increasing and b strictly decreasing) within
// every class.
func (ri *rawInstance) swapFreeIn(classes [][]int, a, b int) bool {
	for _, class := range classes {
		for i, s := range class {
			for _, t := range class[i+1:] {
				ca, cb := ri.cmp(a, s, t), ri.cmp(b, s, t)
				if (ca < 0 && cb > 0) || (ca > 0 && cb < 0) {
					return false
				}
			}
		}
	}
	return true
}

// HoldsRaw reports whether the canonical OD is satisfied by the RAW relation
// instance under the ordering spec, comparing raw values pairwise with
// relation.Compare. It never looks at a rank encoding, making it the
// independent oracle for EncodeSpec-based discovery: for any relation r and
// spec s, Holds(EncodeSpec(r, s), od) must equal HoldsRaw(r, s, od).
func HoldsRaw(rel *relation.Relation, spec relation.OrderSpec, od OD) (bool, error) {
	ri, err := newRawInstance(rel, spec)
	if err != nil {
		return false, err
	}
	if err := CheckAttrs(rel.NumCols(), od); err != nil {
		return false, err
	}
	if od.IsTrivial() {
		return true, nil
	}
	classes := ri.contextClasses(od.Context)
	switch od.Kind {
	case Constancy:
		return ri.constantIn(classes, od.A), nil
	case OrderCompatible:
		return ri.swapFreeIn(classes, od.A, od.B), nil
	default:
		return false, fmt.Errorf("canonical: unknown kind %v", od.Kind)
	}
}

// ReferenceDiscoverRaw is ReferenceDiscover evaluated directly on raw values
// under an ordering spec: it enumerates every non-trivial canonical OD,
// checks it pairwise on raw strings with relation.Compare, and returns the
// complete minimal set through ReferenceDiscover's enumeration and
// minimality pass. Its checks share no code with either the encoding or the
// partition machinery, so equality with spec-encoded discovery is evidence
// the whole spec-to-rank pipeline is sound. Doubly exponential and quadratic
// in rows; relations with more than 14 attributes are rejected.
func ReferenceDiscoverRaw(rel *relation.Relation, spec relation.OrderSpec) ([]OD, error) {
	ri, err := newRawInstance(rel, spec)
	if err != nil {
		return nil, err
	}
	n := rel.NumCols()
	if n > 14 {
		return nil, fmt.Errorf("canonical: raw reference discovery limited to 14 attributes, got %d", n)
	}
	return minimalODs(n, func(ctx bitset.AttrSet) (func(a int) bool, func(a, b int) bool) {
		classes := ri.contextClasses(ctx)
		constant := func(a int) bool { return ri.constantIn(classes, a) }
		compatible := func(a, b int) bool { return ri.swapFreeIn(classes, a, b) }
		return constant, compatible
	}), nil
}
