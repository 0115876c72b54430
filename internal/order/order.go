// Package order is a clean-room implementation of ORDER, the list-based order
// dependency discovery algorithm of Langer and Naumann (VLDB Journal 2016)
// that the paper uses as its baseline. ORDER traverses a lattice of attribute
// *lists* (permutations), so its node count grows factorially with the number
// of attributes, and it applies aggressive swap/split pruning rules that make
// it incomplete: it misses constant columns, ODs that repeat attributes
// across the two sides (the pure FD fragment X ↦ XY), and order-compatibility
// facts that do not come packaged with a full OD (Section 4.5 of the paper).
//
// The implementation follows the behaviour documented in the paper's
// Sections 4.5 and 5.3; where the original publication leaves internals
// unspecified, the simplest rule consistent with the described behaviour is
// used.
package order

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bitset"
	"repro/internal/canonical"
	"repro/internal/lattice"
	"repro/internal/listod"
	"repro/internal/relation"
)

// Result is the outcome of an ORDER run.
type Result struct {
	// ODs is the list-based output, in discovery order, deduplicated.
	ODs []listod.OD
	// Canonical is the set-based image of ODs under the Theorem-5 mapping,
	// deduplicated, which is how the paper compares the two algorithms'
	// output sizes.
	Canonical []canonical.OD
	// Counts tallies Canonical by kind.
	Counts canonical.Count
	// Stats carries the run's traversal counters: NodesVisited counts
	// list-lattice nodes processed, MaxLevelReached is the longest
	// attribute-list length processed, and Interrupted reports whether the
	// run was stopped by its context or Config.Budget before exhausting the
	// search space (ODs then holds everything found up to the interrupt).
	// ORDER computes no stripped partitions, so the partition counters stay
	// zero.
	Stats lattice.Stats
}

// node is one element of the list-containment lattice: a permutation of a
// subset of the attributes.
type node struct {
	list listod.Spec
	// swapDead marks that every candidate OD of this node was invalidated by
	// a swap; descendants are then skipped (ORDER's swap pruning rule).
	swapDead bool
	// allValid marks that every candidate OD of this node was valid;
	// descendants would only produce redundant ODs and are skipped.
	allValid bool
}

// DiscoverContext runs ORDER over an encoded relation instance under the
// engine's run configuration, of which it reads three fields:
//
//   - Budget bounds the wall-clock time and the visited list-lattice nodes.
//     ORDER is factorial in the number of attributes, so a run that exhausts
//     its budget is reported as interrupted, mirroring the "* 5h"
//     annotations in the paper's figures. The context and the budget are
//     checked before every node evaluation; an interrupted run returns the
//     list ODs found so far with Stats.Interrupted set rather than an error.
//   - MaxLevel, when positive, bounds the length of the attribute lists
//     explored. The shortest list holds two attributes, so MaxLevel 1 visits
//     nothing. Stopping at MaxLevel is a normal completion, not an interrupt.
//   - Progress, when non-nil, receives one event per completed list-lattice
//     level (the Level field is the list length).
//
// Workers and Partitions do not apply: the list-lattice search is sequential
// and computes no stripped partitions.
func DiscoverContext(ctx context.Context, enc *relation.Encoded, cfg lattice.Config) (*Result, error) {
	if enc == nil || enc.NumCols() == 0 {
		return nil, fmt.Errorf("order: empty relation")
	}
	if enc.NumCols() > bitset.MaxAttrs {
		return nil, fmt.Errorf("order: relation has %d columns, maximum is %d", enc.NumCols(), bitset.MaxAttrs)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	res := &Result{}
	n := enc.NumCols()

	overBudget := func() bool {
		if cfg.Budget.MaxNodes > 0 && res.Stats.NodesVisited >= cfg.Budget.MaxNodes {
			return true
		}
		if cfg.Budget.Timeout > 0 && time.Since(start) >= cfg.Budget.Timeout {
			return true
		}
		select {
		case <-ctx.Done():
			return true
		default:
		}
		return false
	}

	seen := make(map[string]bool) // deduplication of emitted list ODs

	// Level 2: all ordered pairs [A,B] with A != B.
	var level []node
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				level = append(level, node{list: listod.Spec{a, b}})
			}
		}
	}

	for listLen := 2; len(level) > 0 && !res.Stats.Interrupted && (cfg.MaxLevel <= 0 || listLen <= cfg.MaxLevel); listLen++ {
		var next []node
		extend := cfg.MaxLevel <= 0 || listLen < cfg.MaxLevel
		for i := range level {
			if overBudget() {
				res.Stats.Interrupted = true
				break
			}
			nd := &level[i]
			res.Stats.NodesVisited++
			res.Stats.MaxLevelReached = listLen
			evaluateNode(enc, nd, res, seen)
			if nd.swapDead || nd.allValid || !extend {
				continue
			}
			// Extend with every attribute not yet in the list (this is what
			// makes the search space factorial).
			for d := 0; d < n; d++ {
				if nd.list.Contains(d) {
					continue
				}
				child := make(listod.Spec, len(nd.list), len(nd.list)+1)
				copy(child, nd.list)
				child = append(child, d)
				next = append(next, node{list: child})
			}
		}
		if cfg.Progress != nil {
			cfg.Progress(lattice.ProgressEvent{
				Level:        listLen,
				Nodes:        len(level),
				NodesVisited: res.Stats.NodesVisited,
				Elapsed:      time.Since(start),
			})
		}
		level = next
	}
	res.Canonical = mapToCanonical(res.ODs)
	res.Counts = canonical.CountByKind(res.Canonical)
	return res, nil
}

// evaluateNode checks every split candidate of the node: the list L of length
// l yields the candidates L[k:] ↦ L[:k] for k = 1..l-1 (e.g. [A,B,C] yields
// [B,C] ↦ [A] and [C] ↦ [A,B]). Valid candidates are emitted; the node's
// pruning flags are derived from the candidates' violation kinds.
func evaluateNode(enc *relation.Encoded, nd *node, res *Result, seen map[string]bool) {
	l := len(nd.list)
	if l < 2 {
		return
	}
	swaps, valids := 0, 0
	candidates := l - 1
	for k := 1; k < l; k++ {
		lhs := append(listod.Spec(nil), nd.list[k:]...)
		rhs := append(listod.Spec(nil), nd.list[:k]...)
		if listod.Trivial(lhs, rhs) {
			valids++
			continue
		}
		v := listod.FindViolations(enc, lhs, rhs)
		switch {
		case !v.HasSplit && !v.HasSwap:
			valids++
			od := listod.OD{Left: lhs, Right: rhs}
			key := od.String()
			if !seen[key] {
				seen[key] = true
				res.ODs = append(res.ODs, od)
			}
		case v.HasSwap:
			swaps++
		}
	}
	// Swap pruning: a swap between the two sides persists under any extension
	// of the node, so a node whose candidates all have swaps is abandoned.
	nd.swapDead = swaps == candidates
	// Redundancy pruning: if every candidate is already a valid OD, deeper
	// nodes can only restate what was found.
	nd.allValid = valids == candidates
}

// mapToCanonical maps the list-based output through Theorem 5 and removes
// duplicates, which is how Figure 4/5 report ORDER's output size in set-based
// terms (e.g. "31 list ODs = 31 FDs + 27 OCDs").
func mapToCanonical(ods []listod.OD) []canonical.OD {
	seen := make(map[canonical.OD]bool)
	var out []canonical.OD
	for _, od := range ods {
		for _, c := range canonical.MapListODNonTrivial(od.Left, od.Right) {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	canonical.Sort(out)
	return out
}
