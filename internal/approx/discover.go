package approx

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/canonical"
	"repro/internal/lattice"
	"repro/internal/partition"
	"repro/internal/relation"
)

// Options configures approximate discovery.
type Options struct {
	// Threshold is the maximum allowed error rate in [0, 1). Threshold 0
	// makes the output coincide with exact discovery.
	Threshold float64
	// MaxLevel, when positive, bounds the lattice level processed (context
	// size + right-hand attributes), which bounds cost on wide schemas.
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

// Discovered is one approximate OD in the output, together with its error.
type Discovered struct {
	OD    canonical.OD
	Error Error
}

// Result is the outcome of an approximate discovery run.
type Result struct {
	ODs     []Discovered
	Elapsed time.Duration
	// NodesVisited counts lattice nodes processed.
	NodesVisited int
	// Stats carries the engine's traversal counters (nodes, partition store
	// hits/misses, interruption).
	Stats lattice.Stats
	// Interrupted reports that the run stopped early on context cancellation
	// or budget exhaustion; ODs then holds everything found up to the
	// interrupt.
	Interrupted bool
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
// most the threshold. Because the error measure is monotone (a larger context
// never has a larger error), the notion of minimality is the same as in exact
// discovery: an OD is reported only if no proper subset context already
// meets the threshold, and an order-compatibility OD only if neither of its
// attributes is (approximately) constant in its context — the approximate
// analogue of the Propagate rule, which holds because removing the tuples
// that break the constancy of A also removes every swap between A and B.
//
// The traversal is level-wise over the set-containment lattice — driven by
// the shared engine in internal/lattice, like FASTOD — but validates
// candidates by computing their error directly; it trades some of FASTOD's
// pruning for simplicity since thresholds are typically used on modest
// schemas during data profiling.
//
// Cancellation and budgeting are cooperative (see core.DiscoverContext): an
// interrupted run returns the approximate ODs found so far with Interrupted
// set instead of an error.
func DiscoverContext(ctx context.Context, enc *relation.Encoded, opts Options) (*Result, error) {
	if enc == nil || enc.NumCols() == 0 {
		return nil, fmt.Errorf("approx: empty relation")
	}
	if enc.NumCols() > bitset.MaxAttrs {
		return nil, fmt.Errorf("approx: relation has %d columns, maximum is %d", enc.NumCols(), bitset.MaxAttrs)
	}
	if !(opts.Threshold >= 0 && opts.Threshold < 1) { // NaN fails too
		return nil, fmt.Errorf("approx: threshold %v outside [0, 1)", opts.Threshold)
	}
	start := time.Now()
	res := &Result{}

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

	// satisfiedConst[a] lists contexts where a is approximately constant;
	// satisfiedOC[pair] lists contexts where the pair is approximately order
	// compatible. Both are used for the subset-minimality test.
	satisfiedConst := make(map[int][]bitset.AttrSet)
	satisfiedOC := make(map[bitset.Pair][]bitset.AttrSet)
	hasSubset := func(list []bitset.AttrSet, ctx bitset.AttrSet) bool {
		for _, s := range list {
			if s.IsSubsetOf(ctx) {
				return true
			}
		}
		return false
	}

	// Per-class error counting runs on the flat partition kernels with the
	// engine's per-worker scratches: allocation-free on the hot path. The
	// kernels stop counting once the count passes the threshold's removal
	// limit: such a count is rejected whatever its exact value, and a count
	// within the limit is exact, so every decision and reported Error is the
	// one exact counts give.
	limit := removalLimit(enc.NumRows(), opts.Threshold)
	colErr := func(ctxPart *partition.Partition, a int, s *partition.Scratch) Error {
		return newError(ctxPart.ConstancyRemovals(enc.Column(a), limit, s), enc.NumRows())
	}
	pairErr := func(ctxPart *partition.Partition, a, b int, s *partition.Scratch) Error {
		return newError(ctxPart.SwapRemovals(enc.Column(a), enc.Column(b), limit, s), enc.NumRows())
	}

	// Node-reentrant validation with the satisfied-lists under one mutex,
	// following the same argument as internal/bidir: any list entry that can
	// gate node X originates at a subset node of X, which the engine
	// visits (and which publishes) in an earlier level; entries from
	// concurrently running nodes are never subsets of X's contexts, so they
	// cannot flip a gate. Each visit evaluates its minimality gates under the
	// lock, computes the error counts off it, and publishes its discoveries
	// before completing.
	type constCand struct {
		a   int
		ctx bitset.AttrSet
	}
	type ocCand struct {
		a, b int
		ctx  bitset.AttrSet
	}
	var mu sync.Mutex
	eng.RunNodes(nil, func(wk, l int, x bitset.AttrSet, _ []any) (any, bool) {
		scratch := eng.Scratch(wk)
		attrs := x.Attrs()
		var constCands []constCand
		var ocCands []ocCand
		mu.Lock()
		// Constancy candidates: X\A: [] ↦ A.
		for _, a := range attrs {
			ctx := x.Remove(a)
			if !hasSubset(satisfiedConst[a], ctx) {
				constCands = append(constCands, constCand{a: a, ctx: ctx})
			}
		}
		// Order-compatibility candidates: X\{A,B}: A ~ B.
		if l >= 2 {
			for p := 0; p < len(attrs); p++ {
				for q := p + 1; q < len(attrs); q++ {
					a, b := attrs[p], attrs[q]
					ctx := x.Remove(a).Remove(b)
					if hasSubset(satisfiedOC[bitset.NewPair(a, b)], ctx) {
						continue // not minimal (Augmentation-II analogue)
					}
					if hasSubset(satisfiedConst[a], ctx) || hasSubset(satisfiedConst[b], ctx) {
						continue // not minimal (Propagate analogue)
					}
					ocCands = append(ocCands, ocCand{a: a, b: b, ctx: ctx})
				}
			}
		}
		mu.Unlock()

		var found []Discovered
		for _, c := range constCands {
			e := colErr(eng.Partition(c.ctx), c.a, scratch)
			if e.Rate <= opts.Threshold {
				found = append(found, Discovered{OD: canonical.NewConstancy(c.ctx, c.a), Error: e})
			}
		}
		for _, c := range ocCands {
			e := pairErr(eng.Partition(c.ctx), c.a, c.b, scratch)
			if e.Rate <= opts.Threshold {
				found = append(found, Discovered{OD: canonical.NewOrderCompatible(c.ctx, c.a, c.b), Error: e})
			}
		}

		if len(found) > 0 {
			mu.Lock()
			for _, d := range found {
				res.ODs = append(res.ODs, d)
				if d.OD.Kind == canonical.Constancy {
					satisfiedConst[d.OD.A] = append(satisfiedConst[d.OD.A], d.OD.Context)
				} else {
					pair := bitset.NewPair(d.OD.A, d.OD.B)
					satisfiedOC[pair] = append(satisfiedOC[pair], d.OD.Context)
				}
			}
			mu.Unlock()
		}
		return nil, false
	})
	if err := eng.Err(); err != nil {
		// A recovered worker panic: fail the discovery rather than report a
		// possibly incoherent partial.
		return nil, err
	}
	res.Stats = eng.Stats()
	res.NodesVisited = res.Stats.NodesVisited
	res.Interrupted = res.Stats.Interrupted

	sort.Slice(res.ODs, func(i, j int) bool { return canonical.Less(res.ODs[i].OD, res.ODs[j].OD) })
	res.Elapsed = time.Since(start)
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
