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
package bidir

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/bitset"
	"repro/internal/canonical"
	"repro/internal/lattice"
	"repro/internal/partition"
	"repro/internal/relation"
)

// Direction is the sort direction of one attribute in a specification.
type Direction int

// Sort directions.
const (
	Asc Direction = iota
	Desc
)

// String returns "asc" or "desc".
func (d Direction) String() string {
	if d == Desc {
		return "desc"
	}
	return "asc"
}

// DirectedAttr is one attribute of a bidirectional order specification.
type DirectedAttr struct {
	Attr int
	Dir  Direction
}

// Spec is a bidirectional order specification: a list of attributes each with
// its own direction, defining a lexicographic order.
type Spec []DirectedAttr

// String renders the spec like [0 asc,2 desc].
func (s Spec) String() string {
	parts := make([]string, len(s))
	for i, da := range s {
		parts[i] = fmt.Sprintf("%d %s", da.Attr, da.Dir)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// Names renders the spec like [year asc,salary desc].
func (s Spec) Names(names []string) string {
	parts := make([]string, len(s))
	for i, da := range s {
		name := fmt.Sprintf("#%d", da.Attr)
		if da.Attr >= 0 && da.Attr < len(names) {
			name = names[da.Attr]
		}
		parts[i] = name + " " + da.Dir.String()
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// Compare compares tuples s and t under the bidirectional lexicographic order
// of the spec: negative if s precedes t strictly, zero if the projections are
// equivalent, positive otherwise.
func Compare(enc *relation.Encoded, spec Spec, s, t int) int {
	for _, da := range spec {
		col := enc.Column(da.Attr)
		vs, vt := col[s], col[t]
		if vs == vt {
			continue
		}
		less := vs < vt
		if da.Dir == Desc {
			less = !less
		}
		if less {
			return -1
		}
		return 1
	}
	return 0
}

// Holds reports whether the bidirectional OD X ↦ Y holds: for every pair of
// tuples, s ⪯X t implies s ⪯Y t. It sorts once by (X, Y) and scans, like the
// unidirectional check.
func Holds(enc *relation.Encoded, x, y Spec) bool {
	n := enc.NumRows()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		c := Compare(enc, x, order[i], order[j])
		if c != 0 {
			return c < 0
		}
		return order[i] < order[j]
	})
	prevGroupStart := -1
	start := 0
	for i := 1; i <= n; i++ {
		if i < n && Compare(enc, x, order[i], order[start]) == 0 {
			continue
		}
		// Group [start, i): all tuples equal on X must be equal on Y.
		for j := start + 1; j < i; j++ {
			if Compare(enc, y, order[start], order[j]) != 0 {
				return false
			}
		}
		// Successive groups must be non-decreasing on Y.
		if prevGroupStart >= 0 && Compare(enc, y, order[start], order[prevGroupStart]) < 0 {
			return false
		}
		prevGroupStart = start
		start = i
	}
	return true
}

// OrderCompatible reports X ~ Y for bidirectional specifications: XY ↔ YX.
func OrderCompatible(enc *relation.Encoded, x, y Spec) bool {
	xy := append(append(Spec{}, x...), y...)
	yx := append(append(Spec{}, y...), x...)
	return Holds(enc, xy, yx) && Holds(enc, yx, xy)
}

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

// IsTrivial mirrors the unidirectional notion of triviality.
func (od OD) IsTrivial() bool {
	switch od.Kind {
	case canonical.Constancy:
		return od.Context.Contains(od.A)
	case canonical.OrderCompatible:
		return od.A == od.B || od.Context.Contains(od.A) || od.Context.Contains(od.B)
	default:
		return false
	}
}

// String renders the OD with attribute indexes.
func (od OD) String() string {
	if od.Kind == canonical.Constancy {
		return fmt.Sprintf("%s: [] -> %d", od.Context, od.A)
	}
	return fmt.Sprintf("%s: %d ~ %d (%s)", od.Context, od.A, od.B, od.Polarity)
}

// NamesString renders the OD with attribute names.
func (od OD) NamesString(names []string) string {
	name := func(a int) string {
		if a >= 0 && a < len(names) {
			return names[a]
		}
		return fmt.Sprintf("#%d", a)
	}
	if od.Kind == canonical.Constancy {
		return fmt.Sprintf("%s: [] -> %s", od.Context.Names(names), name(od.A))
	}
	return fmt.Sprintf("%s: %s ~ %s (%s)", od.Context.Names(names), name(od.A), name(od.B), od.Polarity)
}

// Holds checks a bidirectional canonical OD directly against the instance.
func (od OD) Holds(enc *relation.Encoded) (bool, error) {
	if err := checkAttrs(enc, od); err != nil {
		return false, err
	}
	if od.IsTrivial() {
		return true, nil
	}
	ctx := contextPartition(enc, od.Context)
	switch od.Kind {
	case canonical.Constancy:
		return ctx.ConstantInClasses(enc.Column(od.A)), nil
	case canonical.OrderCompatible:
		colB := enc.Column(od.B)
		if od.Polarity == OppositeDirection {
			colB = reverseRanks(colB)
		}
		return !ctx.HasSwap(enc.Column(od.A), colB), nil
	default:
		return false, fmt.Errorf("bidir: unknown kind %v", od.Kind)
	}
}

// reverseRanks flips a rank-encoded column so that descending order on the
// original equals ascending order on the result. It reflects against the
// column's maximum rank, not Cardinality-1: row views (HeadRows, SelectRows)
// keep sparse ranks with Cardinality as their distinct count, and reflecting
// against that would turn ranks negative, which the swap kernel's unsigned
// pair keys misorder.
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

func contextPartition(enc *relation.Encoded, ctx bitset.AttrSet) *partition.Partition {
	s := partition.NewScratch()
	p := partition.FromConstant(enc.NumRows())
	ctx.ForEach(func(a int) {
		p = p.ProductWith(partition.FromColumn(enc.Column(a), enc.Cardinality[a]), s)
	})
	return p
}

func checkAttrs(enc *relation.Encoded, od OD) error {
	check := func(a int) error {
		if a < 0 || a >= enc.NumCols() {
			return fmt.Errorf("bidir: attribute %d out of range for relation with %d columns", a, enc.NumCols())
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
	if od.Kind == canonical.OrderCompatible {
		return check(od.B)
	}
	return nil
}

// Options configures bidirectional discovery.
type Options struct {
	// MaxLevel, when positive, bounds the processed lattice level.
	MaxLevel int
	// Workers is the number of goroutines processing lattice nodes, with the
	// same convention as core.Options.Workers (0 = GOMAXPROCS, 1 =
	// sequential). The output is identical regardless of the setting.
	Workers int
	// Budget bounds the run's wall-clock time and visited lattice nodes; see
	// core.Options.Budget for the interrupt semantics.
	Budget lattice.Budget
	// Progress, when non-nil, receives one event per completed lattice level;
	// see core.Options.Progress.
	Progress func(lattice.ProgressEvent)
	// Partitions, when non-nil, shares stripped partitions with other runs
	// over the same relation; see core.Options.Partitions.
	Partitions *lattice.PartitionStore
}

// Result is the outcome of bidirectional discovery.
type Result struct {
	ODs     []OD
	Elapsed time.Duration
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
// polarities as its variants.
//
// Cancellation and budgeting are cooperative (see core.DiscoverContext): an
// interrupted run returns the bidirectional ODs found so far with
// Stats.Interrupted set instead of an error.
func DiscoverContext(ctx context.Context, enc *relation.Encoded, opts Options) (*Result, error) {
	start := time.Now()
	eng, err := lattice.New(enc, lattice.Config{
		Ctx:        ctx,
		Workers:    opts.Workers,
		MaxLevel:   opts.MaxLevel,
		Budget:     opts.Budget,
		Store:      opts.Partitions,
		OnProgress: opts.Progress,
	})
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
			return struct{}{}, p.ConstantInClasses(enc.Column(a))
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
	res.Elapsed = time.Since(start)
	return res, nil
}
