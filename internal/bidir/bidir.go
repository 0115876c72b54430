// Package bidir implements bidirectional order dependencies, the second
// extension the paper's conclusion calls for (and the subject of its
// reference [25]): order specifications in which each attribute may be
// ordered ascending or descending, as in SQL "ORDER BY A ASC, B DESC".
//
// The canonical set-based machinery carries over almost unchanged: constancy
// ODs are direction-free, and order compatibility within a context splits
// into two polarities — A and B move together (ascending/ascending, which
// equals descending/descending) or in opposition (ascending/descending).
// Discovery therefore only needs to check both polarities per attribute pair.
// The opposite polarity is checked on B's ranks reflected, which order B
// DESC NULLS LAST; list-level ODs with per-attribute directions run on that
// same order as a spec re-encoding (fastod.Dataset.CheckBidirListOD).
package bidir

import (
	"context"
	"slices"

	"repro/internal/bitset"
	"repro/internal/canonical"
	"repro/internal/lattice"
	"repro/internal/partition"
	"repro/internal/relation"
)

// Polarity describes how two attributes relate within a context.
type Polarity int

// Polarities of an order-compatibility relationship.
const (
	// SameDirection means ascending/ascending (equivalently
	// descending/descending) compatibility: the attributes move together.
	SameDirection Polarity = iota
	// OppositeDirection means ascending/descending compatibility: one
	// attribute rises while the other falls.
	OppositeDirection
)

// String returns "same" or "opposite".
func (p Polarity) String() string {
	if p == OppositeDirection {
		return "opposite"
	}
	return "same"
}

// OD is a bidirectional canonical OD. Constancy ODs are identical to the
// unidirectional ones (direction is irrelevant when a value is constant);
// order-compatibility ODs additionally carry a polarity.
type OD struct {
	Context bitset.AttrSet
	Kind    canonical.Kind
	A, B    int
	// Polarity is meaningful only for order-compatibility ODs.
	Polarity Polarity
}

// NewConstancy builds ctx: [] ↦ a.
func NewConstancy(ctx bitset.AttrSet, a int) OD {
	return OD{Context: ctx, Kind: canonical.Constancy, A: a}
}

// NewOrderCompatible builds ctx: a ~ b with the given polarity, normalizing
// the pair so that A < B (polarity is symmetric under swapping the pair).
func NewOrderCompatible(ctx bitset.AttrSet, a, b int, p Polarity) OD {
	pair := bitset.NewPair(a, b)
	return OD{Context: ctx, Kind: canonical.OrderCompatible, A: pair.A, B: pair.B, Polarity: p}
}

// IsTrivial is the unidirectional notion of triviality: polarity never
// makes a trivial OD non-trivial or the reverse.
func (od OD) IsTrivial() bool { return od.canonical().IsTrivial() }

// canonical drops the polarity.
func (od OD) canonical() canonical.OD {
	return canonical.OD{Context: od.Context, Kind: od.Kind, A: od.A, B: od.B}
}

// String renders the OD with attribute indexes, and NamesString with
// attribute names: canonical.OD's text, followed for an
// order-compatibility OD by its polarity in parentheses.
func (od OD) String() string { return od.withPolarity(od.canonical().String()) }

// NamesString renders the OD with attribute names (see String).
func (od OD) NamesString(names []string) string {
	return od.withPolarity(od.canonical().NamesString(names))
}

func (od OD) withPolarity(text string) string {
	if od.Kind == canonical.Constancy {
		return text
	}
	return text + " (" + od.Polarity.String() + ")"
}

// Holds checks a bidirectional canonical OD directly against the instance.
// It is canonical.Holds on the OD without its polarity, on an encoding whose
// B ranks are reflected when the polarity is opposite (B descending is the
// reflection ascending), so its errors are canonical.Holds's.
func (od OD) Holds(enc *relation.Encoded) (bool, error) {
	c := od.canonical()
	if od.Kind == canonical.OrderCompatible && od.Polarity == OppositeDirection {
		if err := canonical.CheckAttrs(enc.NumCols(), c); err != nil {
			return false, err
		}
		reflected := *enc
		reflected.Values = slices.Clone(enc.Values)
		reflected.Values[od.B] = reverseRanks(enc.Column(od.B))
		enc = &reflected
	}
	return canonical.Holds(enc, c)
}

// reverseRanks flips a rank-encoded column so that descending order on the
// original equals ascending order on the result. It reflects against the
// column's maximum rank, so the result stays in [0, Cardinality): a negative
// rank would be misordered by the swap kernel's unsigned pair keys.
func reverseRanks(col []int32) []int32 {
	top := int32(0)
	for _, v := range col {
		top = max(top, v)
	}
	out := make([]int32, len(col))
	for i, v := range col {
		out[i] = top - v
	}
	return out
}

// Result is the outcome of bidirectional discovery.
type Result struct {
	ODs []OD
	// Stats carries the engine's traversal counters (nodes, partition store
	// hits/misses, interruption). When Stats.Interrupted is set the run
	// stopped early on context cancellation or budget exhaustion, and ODs
	// holds everything found up to the interrupt.
	Stats lattice.Stats
}

// DiscoverContext finds the minimal bidirectional canonical ODs of a
// relation: constancy ODs exactly as in the unidirectional case plus, for
// every attribute pair and context, whether the pair is order compatible in
// the same direction, in opposite directions, or both (which only happens
// when one attribute is constant within the context — then Propagate already
// makes the OD non-minimal). Minimality follows the unidirectional rules: no
// subset context may satisfy the same OD (with the same polarity) and neither
// paired attribute may be constant in the context. The search is the shared
// engine's subset-minimal search (lattice.RunMinimal) with the two
// polarities as its variants; cfg is the engine's run configuration, passed
// to it unchanged (see lattice.Config).
//
// Cancellation and budgeting are cooperative (see core.DiscoverContext): an
// interrupted run returns the bidirectional ODs found so far with
// Stats.Interrupted set instead of an error.
func DiscoverContext(ctx context.Context, enc *relation.Encoded, cfg lattice.Config) (*Result, error) {
	eng, err := lattice.New(ctx, enc, cfg)
	if err != nil {
		return nil, err
	}

	// Pre-reverse every column once for the opposite-direction checks.
	reversed := make([][]int32, enc.NumCols())
	for a := range reversed {
		reversed[a] = reverseRanks(enc.Column(a))
	}
	found := lattice.RunMinimal(eng, lattice.Checks[struct{}]{
		Variants: 2, // SameDirection and OppositeDirection
		Constancy: func(p *partition.Partition, a int, _ *partition.Scratch) (struct{}, bool) {
			_, split := p.FindSplit(enc.Column(a))
			return struct{}{}, !split
		},
		OrderCompatible: func(p *partition.Partition, a, b, pol int, s *partition.Scratch) (struct{}, bool) {
			colB := enc.Column(b)
			if Polarity(pol) == OppositeDirection {
				colB = reversed[b]
			}
			return struct{}{}, !p.HasSwapWith(enc.Column(a), colB, s)
		},
	})
	if err := eng.Err(); err != nil {
		// A recovered worker panic: fail the discovery rather than report a
		// possibly incoherent partial.
		return nil, err
	}
	res := &Result{Stats: eng.Stats()}
	for _, f := range found {
		od := f.OD
		res.ODs = append(res.ODs, OD{Context: od.Context, Kind: od.Kind, A: od.A, B: od.B, Polarity: Polarity(f.Variant)})
	}
	return res, nil
}
