package lattice

import (
	"sort"
	"sync"

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

// RunMinimal traverses the lattice with e and returns every minimal canonical
// OD the checks accept, sorted by canonical.Less and then variant. At node X
// the candidates are X\A: [] ↦ A for every A ∈ X and, in every variant,
// X\{A,B}: A ~ B for every pair in X. Minimality is the paper's (Section
// 4.1), with the checks in place of exact validation: a candidate is checked
// only if it did not already hold (in the same variant) in a proper subset of
// its context, and an order-compatibility candidate only if neither attribute
// held as constant in a subset of its context (Propagate). Nodes are never
// pruned; the engine's MaxLevel and Budget bound the search.
func RunMinimal[T any](e *Engine, c Checks[T]) []Found[T] {
	// contexts[k] lists the contexts in which the OD k (its own context
	// cleared) held in k's variant. The gates stay schedule-independent: an
	// entry S that can gate a candidate of node X (S ⊆ its context ⊂ X) was
	// found at the node S ∪ {the checked attributes}, a proper subset of X,
	// and the engine visits every subset of X, all in earlier levels, before
	// X starts. Entries published by nodes running concurrently with X are
	// never subsets of X's contexts, so they cannot flip a gate; the lock
	// only makes the list reads safe. Each visit reads its gates under the
	// lock, runs its checks off it, and publishes what held before it
	// completes.
	type key struct {
		od      canonical.OD
		variant int
	}
	keyOf := func(od canonical.OD, variant int) key {
		od.Context = 0
		return key{od, variant}
	}
	var (
		mu       sync.Mutex
		contexts = make(map[key][]bitset.AttrSet)
		found    []Found[T]
	)
	// heldWithin reports whether od already held in the variant in a context
	// contained in its own. Callers hold mu.
	heldWithin := func(od canonical.OD, variant int) bool {
		for _, s := range contexts[keyOf(od, variant)] {
			if s.IsSubsetOf(od.Context) {
				return true
			}
		}
		return false
	}
	RunNodes(e, struct{}{}, func(wk int, n Node, _ []struct{}) (struct{}, bool) {
		x := n.X
		attrs := x.Attrs()
		var cands []Found[T]
		mu.Lock()
		for _, a := range attrs {
			if od := canonical.NewConstancy(x.Remove(a), a); !heldWithin(od, 0) {
				cands = append(cands, Found[T]{OD: od})
			}
		}
		for p, a := range attrs {
			for _, b := range attrs[p+1:] {
				ctx := x.Remove(a).Remove(b)
				if heldWithin(canonical.NewConstancy(ctx, a), 0) || heldWithin(canonical.NewConstancy(ctx, b), 0) {
					continue // Propagate: a constant attribute is compatible with anything
				}
				od := canonical.NewOrderCompatible(ctx, a, b)
				for v := range c.Variants {
					if !heldWithin(od, v) {
						cands = append(cands, Found[T]{OD: od, Variant: v})
					}
				}
			}
		}
		mu.Unlock()

		held := cands[:0]
		s := e.Scratch(wk)
		for _, f := range cands {
			var ok bool
			if f.OD.Kind == canonical.Constancy {
				f.Value, ok = c.Constancy(n.Sub(f.OD.A), f.OD.A, s)
			} else {
				f.Value, ok = c.OrderCompatible(n.Sub2(f.OD.A, f.OD.B), f.OD.A, f.OD.B, f.Variant, s)
			}
			if ok {
				held = append(held, f)
			}
		}
		if len(held) > 0 {
			mu.Lock()
			for _, f := range held {
				k := keyOf(f.OD, f.Variant)
				contexts[k] = append(contexts[k], f.OD.Context)
			}
			found = append(found, held...)
			mu.Unlock()
		}
		return struct{}{}, false
	})
	// Node completion order within a level is schedule-dependent; the total
	// order makes the output identical at any worker count.
	sort.Slice(found, func(i, j int) bool {
		if found[i].OD != found[j].OD {
			return canonical.Less(found[i].OD, found[j].OD)
		}
		return found[i].Variant < found[j].Variant
	})
	return found
}
