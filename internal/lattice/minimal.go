package lattice

import (
	"math/bits"
	"sort"

	"repro/internal/bitset"
	"repro/internal/canonical"
	"repro/internal/partition"
)

// Checks are what RunMinimal needs from an algorithm: a check for each of the
// two canonical OD forms, run on the context's stripped partition with the
// calling worker's scratch. A check returns the value to report with the OD
// and whether the OD holds (within the algorithm's tolerance); it must be
// safe to call concurrently from different workers.
type Checks[T any] struct {
	// Variants is the number of variants of each order-compatibility
	// candidate (1, or bidir's two polarities); it must be at least 1. Each
	// variant is checked, gated and reported on its own.
	Variants int
	// Constancy checks ctx: [] ↦ a.
	Constancy func(ctx *partition.Partition, a int, s *partition.Scratch) (T, bool)
	// OrderCompatible checks ctx: a ~ b in the given variant, with a < b.
	OrderCompatible func(ctx *partition.Partition, a, b, variant int, s *partition.Scratch) (T, bool)
}

// Found is one minimal OD that held: its variant (0 for constancy ODs) and
// the value its check returned.
type Found[T any] struct {
	OD      canonical.OD
	Variant int
	Value   T
}

// held is the node state RunMinimal threads along dependency edges: what held
// at the node X or below it. consts holds every A such that S: [] ↦ A held
// for some S ∪ {A} ⊆ X. Row v·n+A of pairs (n attributes) holds every B > A
// such that S: A ~ B held in variant v for some S ∪ {A,B} ⊆ X.
type held struct {
	consts bitset.AttrSet
	pairs  []bitset.AttrSet
}

// RunMinimal traverses the lattice with e and returns every minimal canonical
// OD the checks accept, sorted by canonical.Less and then variant. At node X
// the candidates are X\A: [] ↦ A for every A ∈ X and, in every variant,
// X\{A,B}: A ~ B for every pair in X. Minimality is the paper's (Section
// 4.1), with the checks in place of exact validation: a candidate is checked
// only if it did not already hold (in the same variant) in a proper subset of
// its context, and an order-compatibility candidate only if neither attribute
// held as constant in a subset of its context (Propagate). Nodes are never
// pruned; the engine's MaxLevel and Budget bound the search.
//
// Both rules read only the states of X's immediate subsets (see held). Every
// proper subset of X lies under one of them, so a candidate held below X
// exactly when it is in the union of their states; and X\{A,B}: [] ↦ A held
// in a subset of its context exactly when A is constant in the state of
// X\B, as in FASTOD's line 19. Each worker appends what held to its own
// shard, and the shards are merged and sorted once the traversal ends.
func RunMinimal[T any](e *Engine, c Checks[T]) []Found[T] {
	n := e.numAttrs
	shards := make([][]Found[T], e.workers)
	RunNodes(e, held{}, func(wk int, node Node, deps []held) (held, bool) {
		x := node.X
		st := held{pairs: make([]bitset.AttrSet, c.Variants*n)}
		for _, d := range deps {
			st.consts = st.consts.Union(d.consts)
			for i, r := range d.pairs {
				st.pairs[i] |= r
			}
		}
		s := e.Scratch(wk)
		found := shards[wk]
		x.Diff(st.consts).ForEach(func(a int) {
			if v, ok := c.Constancy(node.Sub(a), a, s); ok {
				found = append(found, Found[T]{OD: canonical.NewConstancy(x.Remove(a), a), Value: v})
				st.consts = st.consts.Add(a)
			}
		})
		for ra := uint64(x); ra != 0; ra &= ra - 1 {
			a := bits.TrailingZeros64(ra)
			for rb := ra & (ra - 1); rb != 0; rb &= rb - 1 {
				b := bits.TrailingZeros64(rb)
				if deps[x.Rank(b)].consts.Contains(a) || deps[x.Rank(a)].consts.Contains(b) {
					continue // Propagate: a constant attribute is compatible with anything
				}
				for v := range c.Variants {
					row := &st.pairs[v*n+a]
					if row.Contains(b) {
						continue
					}
					if val, ok := c.OrderCompatible(node.Sub2(a, b), a, b, v, s); ok {
						found = append(found, Found[T]{OD: canonical.NewOrderCompatible(x.Remove(a).Remove(b), a, b), Variant: v, Value: val})
						*row = row.Add(b)
					}
				}
			}
		}
		shards[wk] = found
		return st, false
	})
	var found []Found[T]
	for _, sh := range shards {
		found = append(found, sh...)
	}
	// Which worker found what is schedule-dependent; the total order makes
	// the output identical at any worker count.
	sort.Slice(found, func(i, j int) bool {
		if found[i].OD != found[j].OD {
			return canonical.Less(found[i].OD, found[j].OD)
		}
		return found[i].Variant < found[j].Variant
	})
	return found
}
