package core

import (
	"context"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/canonical"
	"repro/internal/lattice"
	"repro/internal/partition"
	"repro/internal/relation"
)

// DiscoverContext runs FASTOD (Algorithm 1 of the paper) over an encoded
// relation instance and returns the complete, minimal set of canonical ODs
// that hold, or — with Options.DisablePruning — every valid OD, minimal or
// not. The context and Options.Budget are checked cooperatively before every
// lattice node; a cancelled or over-budget run returns the ODs discovered so
// far with Stats.Interrupted set rather than an error.
func DiscoverContext(ctx context.Context, enc *relation.Encoded, opts Options) (*Result, error) {
	d, err := newDiscoverer(ctx, enc, opts)
	if err != nil {
		return nil, err
	}
	if opts.DisablePruning {
		d.runNoPruning()
	} else {
		d.run()
	}
	if err := d.eng.Err(); err != nil {
		// A recovered worker panic: the per-node state merged so far may be
		// incoherent (unlike a budget interrupt, which stops at safe points),
		// so fail the discovery rather than report a partial.
		return nil, err
	}
	res := d.result
	if !opts.CountOnly {
		// Node completion order within a level is schedule-dependent; the
		// total order restores a byte-identical output for any worker count.
		canonical.Sort(res.ODs)
		res.Counts = canonical.CountByKind(res.ODs)
	}
	res.ColumnNames = append([]string(nil), enc.ColumnNames...)
	return res, nil
}

// discoverer carries the per-run state of the lattice traversal. The
// traversal itself — node generation and handout, partition products, the
// worker pool — is owned by the shared lattice engine; this type contributes
// FASTOD's candidate-set bookkeeping (Algorithms 3 and 4) through the
// engine's node-reentrant visit callback. Each worker writes what its nodes
// find into its own shard, and levelEnd folds the shards into the result at
// every level barrier, on the traversal goroutine, so no node takes a lock.
type discoverer struct {
	enc  *relation.Encoded
	opts Options

	numAttrs int
	all      bitset.AttrSet // the full schema R
	eng      *lattice.Engine

	shards []checkShard // one per worker

	result *Result
}

// nodeState is the per-node state the traversal threads along dependency
// edges: the node's candidate sets C+c(X) and C+s(X), exactly the state
// Algorithm 3 reads from the immediate subsets of each node it processes.
// Level-1 nodes keep the zero C+s(X): a singleton has no pairs, and level 2
// never reads its subsets' pairs.
type nodeState struct {
	cc bitset.AttrSet
	cs bitset.PairSet
}

func newDiscoverer(ctx context.Context, enc *relation.Encoded, opts Options) (*discoverer, error) {
	d := &discoverer{
		enc:    enc,
		opts:   opts,
		result: &Result{},
	}
	eng, err := lattice.New(ctx, enc, lattice.Config{
		Workers:    opts.Workers,
		MaxLevel:   opts.MaxLevel,
		Budget:     opts.Budget,
		Partitions: opts.Partitions,
		Progress:   opts.Progress,
		OnLevelEnd: d.levelEnd,
	})
	if err != nil {
		return nil, err
	}
	d.eng = eng
	d.numAttrs = enc.NumCols()
	d.all = eng.All()
	d.shards = make([]checkShard, eng.Workers())
	return d, nil
}

// run executes FASTOD with the full candidate-set machinery (Algorithms 1-4).
// The root state seeds every singleton with C+c(∅) = R and C+s(∅) = ∅.
func (d *discoverer) run() {
	lattice.RunNodes(d.eng, nodeState{cc: d.all}, d.visitNode)
	d.finish()
}

// visitNode is Algorithm 3 for one lattice node: it derives the candidate
// sets C+c(X) and C+s(X) from the immediate-subset states in deps, validates
// the candidate ODs, emits the minimal ones, and decides Algorithm 4's
// pruning (both candidate sets empty — Lemma 11). It only reads the node's
// deps and partitions and writes its worker's shard, so it is node-reentrant:
// the engine runs it concurrently on the nodes of one level.
func (d *discoverer) visitNode(wk int, n lattice.Node, deps []nodeState) (nodeState, bool) {
	sh := &d.shards[wk]
	x := n.X
	st := candidates(d.all, x, deps, d.numAttrs)

	// Pass 2 (lines 9-25): validation and emission.

	// Constancy candidates X\A: [] ↦ A for A ∈ X ∩ C+c(X) (Lemma 7).
	x.Intersect(st.cc).ForEach(func(a int) {
		if d.checkConstancy(n, a, sh) {
			d.emit(sh, canonical.NewConstancy(x.Remove(a), a))
			st.cc = st.cc.Remove(a)
			st.cc = st.cc.Intersect(x) // remove all B ∈ R \ X (line 14)
		}
	})

	// Order-compatibility candidates X\{A,B}: A ~ B for {A,B} ∈ C+s(X)
	// (Lemma 8). deps are ordered by ascending removed attribute, so the
	// state of X\{a} sits at a's rank within X.
	st.cs.ForEach(func(p bitset.Pair) {
		a, b := p.A, p.B
		if !deps[x.Rank(b)].cc.Contains(a) || !deps[x.Rank(a)].cc.Contains(b) {
			st.cs.Remove(p) // line 19: constancy in a sub-context makes it non-minimal
			return
		}
		valid, minimal := d.checkOrderCompat(n, a, b, sh, d.eng.Scratch(wk))
		if valid {
			if minimal {
				d.emit(sh, canonical.NewOrderCompatible(x.Remove(a).Remove(b), a, b))
			}
			st.cs.Remove(p) // line 22
		}
	})

	pruned := n.Level >= 2 && !d.opts.DisableNodePruning && st.cc.IsEmpty() && st.cs.IsEmpty()
	sh.completed(pruned)
	return st, pruned
}

// candidates is pass 1 of Algorithm 3 (lines 1-8): it derives the candidate
// sets of node X, over a schema of n attributes whose full set is all, from
// the states of X's immediate subsets. deps[i] is the state of X minus its
// i-th smallest attribute.
//
// C+s(X) is built row by row with word operations. The paper keeps a pair
// {A,B} of the subsets' union iff {A,B} ∈ C+s(X\D) for every D ∈ X\{A,B}.
// Row A of C+s(X\B) never holds B, so row A of C+s(X) is the AND, over
// D ∈ X\{A}, of row A of C+s(X\D) with D added. For |X| ≥ 3 some D lies
// outside {A,B}, so the AND already implies membership in the union and
// holds only partners inside X above A.
func candidates(all, x bitset.AttrSet, deps []nodeState, n int) nodeState {
	st := nodeState{cc: all}
	for _, dep := range deps {
		st.cc = st.cc.Intersect(dep.cc)
	}
	if x.Len() < 2 {
		return st
	}
	st.cs = bitset.NewPairSet(n)
	if x.Len() == 2 {
		// Level 2: the one pair of X, in the row of its lower attribute.
		a := bits.TrailingZeros64(uint64(x))
		st.cs.SetRow(a, x.Remove(a))
		return st
	}
	x.ForEach(func(a int) {
		row := x
		i := 0
		x.ForEach(func(dAttr int) {
			if dAttr != a {
				row = row.Intersect(deps[i].cs.Row(a).Add(dAttr))
			}
			i++
		})
		st.cs.SetRow(a, row)
	})
	return st
}

// checkConstancy validates X\A: [] ↦ A using the partition-error criterion of
// Section 4.6: the FD holds iff e(Π_ctx) == e(Π_x), because Π_x refines
// Π_ctx. When the context is a superkey the OD holds trivially (Lemma 12) and
// the comparison is skipped under key pruning. X is n's attribute set, and
// counters go to the calling worker's shard.
func (d *discoverer) checkConstancy(n lattice.Node, a int, sh *checkShard) bool {
	sh.fdChecks++
	ctxPart := n.Sub(a)
	if !d.opts.DisableKeyPruning && ctxPart.IsSuperkey() {
		sh.keyPrunes++
		return true
	}
	return ctxPart.Error() == n.Partition().Error()
}

// checkOrderCompat validates X\{A,B}: A ~ B by scanning the equivalence
// classes of the context partition for swaps: first for two neighbouring
// rows that are inverted, then, only if none is, class by class in sorted
// order, with the calling worker's engine scratch so the radix sort
// allocates nothing. It returns (valid, minimal): when the context is a
// superkey the OD is valid but never minimal (Lemma 13), so it is removed
// from the candidate set without being emitted.
func (d *discoverer) checkOrderCompat(n lattice.Node, a, b int, sh *checkShard, s *partition.Scratch) (valid, minimal bool) {
	sh.swapChecks++
	ctxPart := n.Sub2(a, b)
	if !d.opts.DisableKeyPruning && ctxPart.IsSuperkey() {
		sh.keyPrunes++
		return true, false
	}
	return !ctxPart.HasSwapWith(d.enc.Column(a), d.enc.Column(b), s), true
}

// runNoPruning enumerates the full set lattice and validates every candidate
// OD without any minimality reasoning. It reproduces the "FASTOD-No Pruning"
// configuration of Figure 6: the output contains every valid OD, including
// all the redundant ones. Nodes carry no state (the validations only read the
// node's partitions), so the visit ignores root and deps and never prunes.
func (d *discoverer) runNoPruning() {
	lattice.RunNodes(d.eng, struct{}{}, func(wk int, n lattice.Node, _ []struct{}) (struct{}, bool) {
		sh := &d.shards[wk]
		x := n.X
		attrs := x.Attrs()
		for _, a := range attrs {
			if d.checkConstancy(n, a, sh) {
				d.emit(sh, canonical.NewConstancy(x.Remove(a), a))
			}
		}
		for p := 0; p < len(attrs); p++ {
			for q := p + 1; q < len(attrs); q++ {
				a, b := attrs[p], attrs[q]
				if valid, _ := d.checkOrderCompat(n, a, b, sh, d.eng.Scratch(wk)); valid {
					d.emit(sh, canonical.NewOrderCompatible(x.Remove(a).Remove(b), a, b))
				}
			}
		}
		sh.completed(false)
		return struct{}{}, false
	})
	d.finish()
}
