package canonical

import (
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/partition"
	"repro/internal/relation"
)

// Holds reports whether the canonical OD is satisfied by the encoded relation
// instance (Definition 6): it is FindViolation's verdict, so the OD holds
// exactly when no class of its context's partition holds a split or a swap.
// It is independent of the discovery algorithms and serves as their oracle.
func Holds(enc *relation.Encoded, od OD) (bool, error) {
	_, violated, err := FindViolation(enc, od)
	return err == nil && !violated, err
}

// MustHold is Holds for ODs known to reference valid attributes; it panics on
// structural errors and is intended for tests and internal callers. Callers
// validating externally supplied ODs (e.g. parsed expressions) must use Holds
// and handle the error; the panic message names the offending OD so that a
// recovered stack identifies it.
func MustHold(enc *relation.Encoded, od OD) bool {
	ok, err := Holds(enc, od)
	if err != nil {
		panic(fmt.Sprintf("canonical: od %v: %v", od, err))
	}
	return ok
}

// Violation describes why a canonical OD fails on an instance: a pair of rows
// forming a split (constancy OD) or a swap (order-compatibility OD).
type Violation struct {
	OD OD
	// RowS and RowT are the witnessing tuple indexes.
	RowS, RowT int
	// IsSwap is true for order-compatibility violations, false for splits.
	IsSwap bool
}

// String renders the violation for diagnostics.
func (v Violation) String() string {
	kind := "split"
	if v.IsSwap {
		kind = "swap"
	}
	return fmt.Sprintf("%s violated by %s over rows (%d,%d)", v.OD, kind, v.RowS, v.RowT)
}

// FindViolation returns a witness pair for a violated canonical OD, if any:
// it materializes the partition of the context and looks for a split
// (constancy OD) or a swap (order-compatibility OD) within its classes. Like
// Holds, which reads it, it checks the attributes first, so an invalid OD is
// an error even when it is trivial, and an OD of neither kind is an error.
func FindViolation(enc *relation.Encoded, od OD) (Violation, bool, error) {
	if err := CheckAttrs(enc.NumCols(), od); err != nil {
		return Violation{}, false, err
	}
	if od.IsTrivial() {
		return Violation{}, false, nil
	}
	ctx := ContextPartition(enc, od.Context, nil)
	switch od.Kind {
	case Constancy:
		if w, ok := ctx.FindSplit(enc.Column(od.A)); ok {
			return Violation{OD: od, RowS: w.RowS, RowT: w.RowT, IsSwap: false}, true, nil
		}
	case OrderCompatible:
		if w, ok := ctx.FindSwapWith(enc.Column(od.A), enc.Column(od.B), nil); ok {
			return Violation{OD: od, RowS: w.RowS, RowT: w.RowT, IsSwap: true}, true, nil
		}
	default:
		return Violation{}, false, fmt.Errorf("canonical: unknown kind %v", od.Kind)
	}
	return Violation{}, false, nil
}

// ContextPartition computes the stripped partition of the relation with
// respect to the attribute set ctx: the partition of ctx's highest attribute,
// refined by each other attribute's ranks in ascending order. For contexts of
// one or two attributes that is exactly the partition, class order included,
// that multiplying single-attribute partitions in ascending order gives. The
// empty context yields the single-class partition. s is the refinement
// chain's workspace (nil allocates one): a caller that runs a kernel on the
// result, or builds many contexts in a loop, passes its own. The attributes
// of ctx must be in range; see CheckAttrs.
func ContextPartition(enc *relation.Encoded, ctx bitset.AttrSet, s *partition.Scratch) *partition.Partition {
	if ctx.IsEmpty() {
		return partition.FromConstant(enc.NumRows())
	}
	if s == nil {
		s = partition.NewScratch()
	}
	attrs := ctx.Attrs()
	top := attrs[len(attrs)-1]
	p := partition.FromColumn(enc.Column(top), enc.Cardinality[top])
	for _, a := range attrs[:len(attrs)-1] {
		p = p.RefineWith(enc.Column(a), enc.Cardinality[a], s)
	}
	return p
}

// CheckAttrs reports an error naming the first attribute of the OD — context,
// then A, then B for order-compatibility ODs — that is out of range for a
// relation of numCols columns. FindViolation (so Holds) and HoldsRaw call it
// before anything else, so an invalid OD is an error even when it is
// trivial; bidir's OD.Holds and approx.ErrorOf do the same through it.
func CheckAttrs(numCols int, od OD) error {
	check := func(a int) error {
		if a < 0 || a >= numCols {
			return fmt.Errorf("canonical: attribute %d out of range for relation with %d columns", a, numCols)
		}
		return nil
	}
	for _, a := range od.Context.Attrs() {
		if err := check(a); err != nil {
			return err
		}
	}
	if err := check(od.A); err != nil {
		return err
	}
	if od.Kind == OrderCompatible {
		return check(od.B)
	}
	return nil
}

// ReferenceDiscover enumerates every non-trivial canonical OD over the
// relation's schema, checks it directly against the instance, and returns the
// complete minimal set in the sense of Section 4.1:
//
//   - X: [] ↦ A is minimal iff it holds, is non-trivial, and no proper subset
//     context Y ⊂ X has Y: [] ↦ A holding;
//   - X: A ~ B is minimal iff it holds, is non-trivial, no proper subset
//     context has A ~ B holding, and neither X: [] ↦ A nor X: [] ↦ B holds.
//
// Each context's partition is checked with the witness scans FindViolation
// uses (FindSplit, FindSwapWith), not with discovery's neighbour-scan swap
// check. The enumeration is exponential in the number of attributes and
// quadratic in the number of rows in the worst case; it is the oracle used
// to verify that FASTOD is complete and minimal, and is exported through the
// public API as a slow reference implementation. Relations with more than 20
// attributes are rejected to avoid accidental blow-ups.
func ReferenceDiscover(enc *relation.Encoded) ([]OD, error) {
	n := enc.NumCols()
	if n > 20 {
		return nil, fmt.Errorf("canonical: reference discovery limited to 20 attributes, got %d", n)
	}
	// One scratch serves every context partition and swap check of the
	// enumeration — the loop is allocation-heavy enough without them.
	scratch := partition.NewScratch()
	return minimalODs(n, func(ctx bitset.AttrSet) (func(a int) bool, func(a, b int) bool) {
		p := ContextPartition(enc, ctx, scratch)
		constant := func(a int) bool {
			_, split := p.FindSplit(enc.Column(a))
			return !split
		}
		compatible := func(a, b int) bool {
			_, swap := p.FindSwapWith(enc.Column(a), enc.Column(b), scratch)
			return !swap
		}
		return constant, compatible
	}), nil
}

// minimalODs is the enumeration and minimality pass both reference
// discoverers share, under the rules ReferenceDiscover lists. For every
// context over n attributes, subsets first, checks returns that context's
// constancy check of an attribute and order-compatibility check of a pair;
// their verdicts for every attribute and pair outside the context fill the
// validity tables holdsConst[ctx][a] and holdsOC[ctx][pair]. The pass then
// keeps each OD that holds where no context one attribute smaller has it
// hold and, for an order-compatibility OD, neither attribute is constant in
// the context (Propagate).
func minimalODs(n int, checks func(ctx bitset.AttrSet) (constant func(a int) bool, compatible func(a, b int) bool)) []OD {
	holdsConst := make(map[bitset.AttrSet]map[int]bool)
	holdsOC := make(map[bitset.AttrSet]map[bitset.Pair]bool)
	contexts := allSubsets(n)
	for _, ctx := range contexts {
		constant, compatible := checks(ctx)
		cm := make(map[int]bool)
		om := make(map[bitset.Pair]bool)
		for a := 0; a < n; a++ {
			if ctx.Contains(a) {
				continue
			}
			cm[a] = constant(a)
			for b := a + 1; b < n; b++ {
				if ctx.Contains(b) {
					continue
				}
				om[bitset.Pair{A: a, B: b}] = compatible(a, b)
			}
		}
		holdsConst[ctx] = cm
		holdsOC[ctx] = om
	}

	var out []OD
	for _, ctx := range contexts {
		for a := 0; a < n; a++ {
			if ctx.Contains(a) || !holdsConst[ctx][a] {
				continue
			}
			minimal := true
			for _, sub := range ctx.Subsets() {
				if holdsConst[sub][a] {
					minimal = false
					break
				}
			}
			if minimal {
				out = append(out, NewConstancy(ctx, a))
			}
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				pair := bitset.Pair{A: a, B: b}
				if ctx.Contains(a) || ctx.Contains(b) || !holdsOC[ctx][pair] {
					continue
				}
				if holdsConst[ctx][a] || holdsConst[ctx][b] {
					continue // Propagate makes it non-minimal
				}
				minimal := true
				for _, sub := range ctx.Subsets() {
					if holdsOC[sub][pair] {
						minimal = false
						break
					}
				}
				if minimal {
					out = append(out, NewOrderCompatible(ctx, a, b))
				}
			}
		}
	}
	Sort(out)
	return out
}

// allSubsets enumerates every subset of {0..n-1} ordered by size then value,
// so that subsets always precede supersets.
func allSubsets(n int) []bitset.AttrSet {
	total := 1 << uint(n)
	out := make([]bitset.AttrSet, 0, total)
	for mask := 0; mask < total; mask++ {
		out = append(out, bitset.AttrSet(mask))
	}
	// Order by cardinality, then numeric value, so iteration is level-wise.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Len() != out[j].Len() {
			return out[i].Len() < out[j].Len()
		}
		return out[i] < out[j]
	})
	return out
}
