package approx

import (
	"context"
	"fmt"

	"repro/internal/canonical"
	"repro/internal/lattice"
	"repro/internal/partition"
	"repro/internal/relation"
)

// Discovered is one approximate OD in the output, together with its error.
type Discovered struct {
	OD    canonical.OD
	Error Error
}

// Result is the outcome of an approximate discovery run.
type Result struct {
	ODs []Discovered
	// Stats carries the engine's traversal counters (nodes, partition store
	// hits/misses, interruption). When Stats.Interrupted is set the run
	// stopped early on context cancellation or budget exhaustion, and ODs
	// holds everything found up to the interrupt.
	Stats lattice.Stats
}

// Counts tallies the output by kind the way exact results are reported.
func (r *Result) Counts() canonical.Count {
	ods := make([]canonical.OD, 0, len(r.ODs))
	for _, d := range r.ODs {
		ods = append(ods, d.OD)
	}
	return canonical.CountByKind(ods)
}

// DiscoverContext finds the minimal canonical ODs whose error rate is at
// most threshold, which must lie in [0, 1); threshold 0 makes the output
// coincide with exact discovery. cfg is the engine's run configuration,
// passed to it unchanged (see lattice.Config).
//
// Because the error measure is monotone (a larger context never has a
// larger error), the notion of minimality is the same as in exact
// discovery: an OD is reported only if no proper subset context already
// meets the threshold, and an order-compatibility OD only if neither of its
// attributes is (approximately) constant in its context — the approximate
// analogue of the Propagate rule, which holds because removing the tuples
// that break the constancy of A also removes every swap between A and B.
//
// The search is the shared engine's subset-minimal search
// (lattice.RunMinimal), which validates candidates by computing their error
// directly; it trades some of FASTOD's pruning for simplicity since
// thresholds are typically used on modest schemas during data profiling.
//
// Cancellation and budgeting are cooperative (see core.DiscoverContext): an
// interrupted run returns the approximate ODs found so far with
// Stats.Interrupted set instead of an error.
func DiscoverContext(ctx context.Context, enc *relation.Encoded, threshold float64, cfg lattice.Config) (*Result, error) {
	if !(threshold >= 0 && threshold < 1) { // NaN fails too
		return nil, fmt.Errorf("approx: threshold %v outside [0, 1)", threshold)
	}
	eng, err := lattice.New(ctx, enc, cfg)
	if err != nil {
		return nil, err
	}

	// Error counting runs on the flat partition kernels with the engine's
	// per-worker scratches: allocation-free on the hot path. The kernels stop
	// counting once the count passes the threshold's removal limit: such a
	// count is rejected whatever its exact value, and a count within the
	// limit is exact, so every decision and reported Error is the one exact
	// counts give.
	rows := enc.NumRows()
	limit := removalLimit(rows, threshold)
	found := lattice.RunMinimal(eng, lattice.Checks[Error]{
		Variants: 1,
		Constancy: func(p *partition.Partition, a int, s *partition.Scratch) (Error, bool) {
			e := newError(p.ConstancyRemovals(enc.Column(a), limit, s), rows)
			return e, e.Rate <= threshold
		},
		OrderCompatible: func(p *partition.Partition, a, b, _ int, s *partition.Scratch) (Error, bool) {
			e := newError(p.SwapRemovals(enc.Column(a), enc.Column(b), limit, s), rows)
			return e, e.Rate <= threshold
		},
	})
	if err := eng.Err(); err != nil {
		// A recovered worker panic: fail the discovery rather than report a
		// possibly incoherent partial.
		return nil, err
	}
	res := &Result{Stats: eng.Stats()}
	for _, f := range found {
		res.ODs = append(res.ODs, Discovered{OD: f.OD, Error: f.Value})
	}
	return res, nil
}

// removalLimit returns the largest removal count r whose error rate
// float64(r)/float64(rows) is at most threshold, so that r <= limit exactly
// when newError(r, rows) passes the threshold. Division by a fixed positive
// divisor rounds monotonically, so the passing counts are 0..limit; the
// product estimate is corrected for rounding in both directions. A relation
// without rows has nothing to remove; it gets 0, as 1/0 is +Inf.
func removalLimit(rows int, threshold float64) int {
	r := int(threshold * float64(rows))
	for r > 0 && float64(r)/float64(rows) > threshold {
		r--
	}
	for float64(r+1)/float64(rows) <= threshold {
		r++
	}
	return r
}
