// Package tane is a clean-room implementation of the TANE functional
// dependency discovery algorithm (Huhtala et al., ICDE 1998), the FD-only
// baseline the paper compares FASTOD against in Experiment 4. Like FASTOD it
// traverses the set-containment lattice level by level with stripped
// partitions and candidate sets — the traversal itself (node generation,
// partition products, the worker pool) is the shared engine in
// internal/lattice — but it only looks for splits, so it cannot discover
// order semantics.
package tane

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/lattice"
	"repro/internal/relation"
)

// FD is a minimal functional dependency LHS → RHS with a single right-hand
// side attribute, the canonical output form of TANE.
type FD struct {
	LHS bitset.AttrSet
	RHS int
}

// String renders the FD with attribute indexes.
func (fd FD) String() string { return fmt.Sprintf("%s -> %d", fd.LHS, fd.RHS) }

// NamesString renders the FD with attribute names.
func (fd FD) NamesString(names []string) string {
	return fd.LHS.Names(names) + " -> " + bitset.Name(names, fd.RHS)
}

// Result is the outcome of a TANE run.
type Result struct {
	FDs []FD
	// Stats carries the engine's traversal counters (nodes, partition store
	// hits/misses, interruption). When Stats.Interrupted is set the run
	// stopped early on context cancellation or budget exhaustion, and FDs
	// holds everything found up to the interrupt.
	Stats lattice.Stats
}

// DiscoverContext runs TANE over an encoded relation and returns the complete
// set of minimal, non-trivial functional dependencies with singleton
// right-hand sides. cfg is the engine's run configuration, passed to it
// unchanged (see lattice.Config). Cancellation and cfg.Budget are honored
// cooperatively (see core.DiscoverContext): an interrupted run returns
// partial FDs with Stats.Interrupted set.
func DiscoverContext(ctx context.Context, enc *relation.Encoded, cfg lattice.Config) (*Result, error) {
	eng, err := lattice.New(ctx, enc, cfg)
	if err != nil {
		return nil, err
	}
	all := eng.All()

	// The per-node visit: derive C+(X) from the immediate-subset candidate
	// sets in deps, validate X\A → A for A ∈ X ∩ C+(X) against the node's
	// partitions, and prune nodes whose candidate set empties (no superset
	// can yield a minimal FD). Each worker appends its FDs to its own shard;
	// which worker found what is schedule-dependent, and the final
	// total-order sort restores determinism.
	shards := make([][]FD, eng.Workers())
	lattice.RunNodes(eng, all, func(wk int, n lattice.Node, deps []bitset.AttrSet) (bitset.AttrSet, bool) {
		x := n.X
		cc := all
		for _, d := range deps {
			cc = cc.Intersect(d)
		}
		x.Intersect(cc).ForEach(func(a int) {
			ctxPart := n.Sub(a)
			if ctxPart.IsSuperkey() || ctxPart.Error() == n.Partition().Error() {
				shards[wk] = append(shards[wk], FD{LHS: x.Remove(a), RHS: a})
				cc = cc.Remove(a)
				cc = cc.Intersect(x)
			}
		})
		return cc, n.Level >= 2 && cc.IsEmpty()
	})
	if err := eng.Err(); err != nil {
		// A recovered worker panic: the FDs found so far may be incoherent,
		// so fail the discovery instead of reporting a partial.
		return nil, err
	}
	res := &Result{Stats: eng.Stats()}
	for _, sh := range shards {
		res.FDs = append(res.FDs, sh...)
	}

	sort.Slice(res.FDs, func(i, j int) bool {
		a, b := res.FDs[i], res.FDs[j]
		if a.LHS.Len() != b.LHS.Len() {
			return a.LHS.Len() < b.LHS.Len()
		}
		if a.LHS != b.LHS {
			return a.LHS < b.LHS
		}
		return a.RHS < b.RHS
	})
	return res, nil
}
