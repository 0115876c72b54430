// Package conditional implements conditional order dependencies, the third
// extension named in the paper's conclusion: canonical ODs that hold on the
// portion of a relation selected by a condition ("binding") on some attribute,
// even though they fail on the full relation. A typical example is a tax
// bracket rule that holds within each country but not across countries.
//
// Discovery partitions the relation by each candidate condition attribute
// (bounded-cardinality attributes only), runs FASTOD on every partition slice,
// and reports the ODs that hold in a slice but are not implied by the ODs of
// the full relation. Condition slices are disjoint row subsets, so the slice
// passes fan out across the worker pool, unless the run's one shared node
// budget is too small for all of them.
package conditional

import (
	"context"
	"fmt"
	"math/bits"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/canonical"
	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/relation"
)

// SliceProgressLevel is the ProgressEvent.Level marker of per-slice progress
// events. The unconditional pass reports ordinary lattice levels (1, 2, ...);
// once slice passes begin, each processed condition slice reports exactly one
// event carrying this level, the slice's lattice-node count in Nodes, the
// run's cumulative total in NodesVisited, and the condition that defined the
// slice in the event's Slice field (attribute, encoded value, row count).
// Without the marker long conditional discoveries go dark after the
// unconditional pass even though most of the work — one FASTOD run per
// condition slice — is still ahead. With slice passes running in parallel,
// events arrive in completion order (serialized, never concurrently), so
// consumers must not assume the enumeration order of conditions.
const SliceProgressLevel = -1

// Defaults resolved for the zero values of the corresponding Options knobs.
// Exported so request canonicalization (the report cache's fingerprint) can
// map "0" and the explicit default onto the same effective request.
const (
	// DefaultMaxConditionCardinality bounds condition-attribute cardinality.
	DefaultMaxConditionCardinality = 16
	// DefaultMinSliceRows is the smallest condition slice processed.
	DefaultMinSliceRows = 4
)

// Condition is an equality binding "attribute = value" selecting a portion of
// the relation: the slice a conditional progress event reports. Value is the
// raw rank of the encoded column; Rows is the number of tuples it selects.
type Condition = lattice.SliceInfo

// OD is a conditional canonical OD: the embedded OD holds on the tuples
// selected by the condition but is not implied by the unconditional ODs.
type OD struct {
	Condition Condition
	OD        canonical.OD
}

// Options are conditional discovery's own knobs. The tags are their JSON
// names in an odserve request's "conditional" block.
type Options struct {
	// MaxConditionCardinality bounds how many distinct values a condition
	// attribute may have (default 16): attributes with more values fragment
	// the relation into slivers that yield spurious dependencies.
	MaxConditionCardinality int `json:"max_condition_cardinality,omitempty"`
	// MinSliceRows skips condition values selecting fewer tuples than this
	// (default 4), again to avoid trivially-holding ODs on tiny slices.
	MinSliceRows int `json:"min_slice_rows,omitempty"`
	// ConditionAttrs restricts which attributes may serve as conditions
	// (default: every attribute within the cardinality bound).
	ConditionAttrs []int `json:"condition_attrs,omitzero"`
}

// Result is the outcome of a conditional discovery run.
type Result struct {
	// Global is the unconditional discovery result on the full relation.
	Global *core.Result
	// ODs are the conditional ODs found, sorted by condition then OD.
	ODs []OD
	// SlicesExamined counts (attribute, value) slices that were processed.
	SlicesExamined int
	// Stats carries the run's traversal counters. NodesVisited totals the
	// unconditional pass and every slice pass (the quantity the discovery
	// options' Budget.MaxNodes bounds); MaxLevelReached is the
	// deepest level of ANY pass (slices prune at least as early as the full
	// relation, but the max keeps the counter honest); the partition
	// counters describe the unconditional pass, the only one on the shared
	// store. Interrupted reports that the run stopped early, in a pass or
	// between slices, on cancellation or the shared budget; the result then
	// holds every conditional OD confirmed before the interrupt.
	Stats lattice.Stats
}

// DiscoverContext finds conditional canonical ODs. An OD is reported for a
// condition slice only if it is minimal on that slice (FASTOD's own
// minimality) and not already implied by the unconditional ODs of the full
// relation — otherwise a conditional report would just restate global
// knowledge.
//
// discovery configures the FASTOD passes, the unconditional one and one per
// slice (e.g. MaxLevel to bound context sizes); its CountOnly is ignored,
// since the global-cover comparison needs the ODs. discovery.Workers also
// sets how many slices run at once: slices fan out across the pool, each
// pass sequential inside, when the node budget left after the unconditional
// pass covers every slice's whole lattice, and otherwise run in job order,
// each pass on the workers. The merged output of a complete run is identical
// for every worker count, and so is that of a run cut by the node budget.
//
// The context and discovery.Budget are honored across the whole run, not
// per inner discovery: Budget.Timeout becomes one deadline on the run's
// context, and every pass, the unconditional one and each slice pass, runs
// under that context with no timeout of its own and draws its visits from
// one shared node allowance. So a budgeted conditional run is bounded even
// when the relation fragments into many slices. An interrupted run keeps the
// conditional ODs confirmed so far and sets Result.Stats.Interrupted.
func DiscoverContext(ctx context.Context, enc *relation.Encoded, opts Options, discovery core.Options) (*Result, error) {
	if opts.MaxConditionCardinality <= 0 {
		opts.MaxConditionCardinality = DefaultMaxConditionCardinality
	}
	if opts.MinSliceRows <= 0 {
		opts.MinSliceRows = DefaultMinSliceRows
	}
	start := time.Now()
	discovery.CountOnly = false
	budget := lattice.SharedNodes(discovery.Budget)
	if budget.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget.Timeout)
		defer cancel()
		budget.Timeout = 0
	}
	discovery.Budget = budget

	global, err := core.DiscoverContext(ctx, enc, discovery)
	if err != nil {
		return nil, err
	}
	res := &Result{Global: global, Stats: global.Stats.Stats}
	if res.Stats.Interrupted {
		return res, nil
	}
	// Condition slices are distinct relations; a partition store supplied for
	// the global run must not leak into them (a store is bound to exactly one
	// relation instance). Per-level progress stays with the unconditional
	// pass (slice lattices are tiny and many); instead each completed slice
	// reports one SliceProgressLevel event below.
	sliceOpts := discovery
	sliceOpts.Partitions = nil
	sliceOpts.Progress = nil
	globalCover := canonical.NewCover(global.ODs)

	condAttrs := opts.ConditionAttrs
	if condAttrs == nil {
		for a := 0; a < enc.NumCols(); a++ {
			if enc.Cardinality[a] >= 2 && enc.Cardinality[a] <= opts.MaxConditionCardinality {
				condAttrs = append(condAttrs, a)
			}
		}
	}

	// Enumerate every (attribute, value) slice job up front in deterministic
	// order — condition attributes in option order, values ascending — so
	// invalid attributes fail before any slice work and the parallel pool has
	// a fixed job list to draw from.
	type sliceJob struct {
		attr  int
		value int32
		rows  []int
	}
	var jobs []sliceJob
	for _, attr := range condAttrs {
		if attr < 0 || attr >= enc.NumCols() {
			return nil, fmt.Errorf("conditional: condition attribute %d out of range", attr)
		}
		// Group row indexes by the condition attribute's value.
		groups := make(map[int32][]int)
		for row, v := range enc.Column(attr) {
			groups[v] = append(groups[v], row)
		}
		values := make([]int32, 0, len(groups))
		for v := range groups {
			values = append(values, v)
		}
		sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
		for _, v := range values {
			if len(groups[v]) < opts.MinSliceRows {
				continue
			}
			jobs = append(jobs, sliceJob{attr: attr, value: v, rows: groups[v]})
		}
	}

	// Slice passes fan out across the engine's worker pool, one slice per
	// item. With W > 1 workers each slice runs with Workers: 1 and W slices
	// run at once: slice lattices are small and numerous, so parallelism
	// across slices beats parallelism inside each tiny slice. But slices that
	// race for a node allowance too small for all of them finish in an order
	// only the scheduler decides, so then they run in job order like the
	// sequential path, which keeps the inner runs' own parallelism setting.
	workers := min(lattice.ResolveWorkers(discovery.Workers), len(jobs))
	if budget.MaxNodes > 0 && !coversSlices(budget.MaxNodes-global.Stats.NodesVisited, len(jobs), enc.NumCols()) {
		workers = 1
	}
	if workers > 1 {
		sliceOpts.Workers = 1
	}

	// Each job writes only its own outcome slot; the slots merge in job order
	// after the pool drains, so a complete run is byte-identical to a
	// sequential one regardless of worker count.
	type outcome struct {
		ods   []OD
		stats lattice.Stats
		ran   bool
		err   error
	}
	outcomes := make([]outcome, len(jobs))
	var (
		// failed stops the pool once a job fails or panics.
		failed   atomic.Bool
		panicked atomic.Pointer[lattice.PanicError]
		// mu serializes the progress callback; reported, the slice nodes
		// already reported, is read and written only under it, so the
		// events' cumulative NodesVisited never goes backwards.
		mu       sync.Mutex
		reported int
	)
	stop := func() bool {
		return ctx.Err() != nil || lattice.NodesSpent(budget) || failed.Load()
	}
	// The pool's trap keeps the fault-containment contract for the slice
	// scaffolding (row selection, cover filtering, the progress callback): a
	// panic there becomes a typed error, not a dead process. Panics inside a
	// slice's own discovery are already contained by that slice's engine and
	// arrive as the job's error.
	trap := func(rec any) {
		panicked.CompareAndSwap(nil, &lattice.PanicError{Value: rec, Stack: debug.Stack()})
		failed.Store(true)
	}
	lattice.ParallelFor(workers, len(jobs), 1, stop, trap, func(_, i int) {
		job, out := jobs[i], &outcomes[i]
		slice, err := enc.SelectRows(job.rows)
		var sliceRes *core.Result
		if err == nil {
			sliceRes, err = core.DiscoverContext(ctx, slice, sliceOpts)
		}
		if err != nil {
			out.err = err
			failed.Store(true)
			return
		}
		cond := Condition{Attr: job.attr, Value: job.value, Rows: len(job.rows)}
		for _, od := range sliceRes.ODs {
			// Skip ODs that mention the condition attribute itself: within
			// the slice it is constant, so such ODs carry no information.
			if od.Attributes().Contains(job.attr) {
				continue
			}
			if globalCover.Implies(od) {
				continue
			}
			out.ods = append(out.ods, OD{Condition: cond, OD: od})
		}
		out.stats, out.ran = sliceRes.Stats.Stats, true
		if progress := discovery.Progress; progress != nil {
			// The deferred unlock releases mu even when the callback panics,
			// so the workers waiting to report are not left blocked.
			mu.Lock()
			defer mu.Unlock()
			reported += sliceRes.Stats.NodesVisited
			progress(lattice.ProgressEvent{
				Level:        SliceProgressLevel,
				Nodes:        sliceRes.Stats.NodesVisited,
				NodesVisited: global.Stats.NodesVisited + reported,
				Elapsed:      time.Since(start),
				Slice:        &cond,
			})
		}
	})
	if p := panicked.Load(); p != nil {
		return nil, p
	}
	for _, out := range outcomes {
		switch {
		case out.err != nil:
			return nil, out.err
		case !out.ran:
			// The pool stopped on the context or the node allowance before
			// this slice started.
			res.Stats.Interrupted = true
		default:
			// A slice interrupted by the context or the allowance keeps the
			// ODs it emitted: each was verified on the slice individually.
			res.Stats.Interrupted = res.Stats.Interrupted || out.stats.Interrupted
			res.Stats.NodesVisited += out.stats.NodesVisited
			res.Stats.MaxLevelReached = max(res.Stats.MaxLevelReached, out.stats.MaxLevelReached)
			res.SlicesExamined++
			res.ODs = append(res.ODs, out.ods...)
		}
	}

	sort.Slice(res.ODs, func(i, j int) bool {
		a, b := res.ODs[i], res.ODs[j]
		if a.Condition.Attr != b.Condition.Attr {
			return a.Condition.Attr < b.Condition.Attr
		}
		if a.Condition.Value != b.Condition.Value {
			return a.Condition.Value < b.Condition.Value
		}
		return canonical.Less(a.OD, b.OD)
	})
	return res, nil
}

// coversSlices reports whether left node visits cover jobs slice passes that
// each visit every node of a lattice over cols attributes: jobs × (2^cols − 1)
// visits, saturating instead of overflowing.
func coversSlices(left, jobs, cols int) bool {
	hi, need := bits.Mul64(uint64(jobs), uint64(1)<<cols-1)
	return hi == 0 && need <= uint64(max(left, 0))
}
