package fastod

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/approx"
	"repro/internal/bidir"
	"repro/internal/conditional"
	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/order"
	"repro/internal/tane"
)

// This file is the unified discovery surface: one request/response envelope
// executed by (*Dataset).Run with context cancellation, resource budgets and
// per-level progress across every algorithm the repository implements. It is
// the only way to run discovery through the public API.

// Algorithm selects which discovery algorithm a Request executes. The zero
// value selects FASTOD.
type Algorithm string

// The discovery algorithms of this repository.
const (
	// AlgorithmFASTOD is the paper's set-based OD discovery (the default).
	AlgorithmFASTOD Algorithm = "fastod"
	// AlgorithmTANE is the FD-only TANE baseline.
	AlgorithmTANE Algorithm = "tane"
	// AlgorithmApprox discovers approximate ODs under an error threshold.
	AlgorithmApprox Algorithm = "approx"
	// AlgorithmBidirectional discovers bidirectional (asc/desc) ODs.
	AlgorithmBidirectional Algorithm = "bidir"
	// AlgorithmConditional discovers ODs holding on condition slices.
	AlgorithmConditional Algorithm = "conditional"
	// AlgorithmORDER is the list-based ORDER baseline (factorial search
	// space — budget it).
	AlgorithmORDER Algorithm = "order"
)

// Algorithms lists every algorithm a Request may select, in the order the
// paper introduces them.
func Algorithms() []Algorithm {
	return []Algorithm{
		AlgorithmFASTOD, AlgorithmTANE, AlgorithmApprox,
		AlgorithmBidirectional, AlgorithmConditional, AlgorithmORDER,
	}
}

// Budget bounds the resources one discovery run may consume: a wall-clock
// timeout and a visited-node allowance, both optional (the zero value means
// unbounded). An exhausted budget interrupts the run cooperatively — within
// one lattice node per worker, not one lattice level — and the Report carries
// everything discovered so far with Interrupted set. See lattice.Budget for
// the precise latency contract of each knob.
type Budget = lattice.Budget

// ProgressEvent is one per-level progress report of a running discovery; see
// RunWithProgress.
type ProgressEvent = lattice.ProgressEvent

// SliceInfo identifies the condition slice a conditional per-slice progress
// event describes; see ProgressEvent.Slice and SliceProgressLevel.
type SliceInfo = lattice.SliceInfo

// DefaultBudget is a conservative budget for interactive and service use: no
// discovery call outlives 30 seconds or two million lattice nodes. Narrow
// schemas never notice it; wide schemas (where the lattice explodes
// combinatorially — or factorially, for ORDER) return an interrupted partial
// Report instead of running away.
func DefaultBudget() Budget {
	return Budget{Timeout: 30 * time.Second, MaxNodes: 2_000_000}
}

// RunOptions are the options shared by every algorithm: the worker pool, the
// lattice depth bound, the resource budget and the ordering semantics. The
// zero value runs unbudgeted on all CPUs with the dataset's own store (if
// EnablePartitionCache was called).
type RunOptions struct {
	// Workers is the number of goroutines used per lattice level (0 =
	// GOMAXPROCS, 1 = sequential). The output is identical regardless of the
	// setting. Ignored by ORDER, whose list-lattice search is sequential.
	Workers int
	// MaxLevel, when positive, bounds the lattice level processed: attribute
	// set sizes for the set-lattice algorithms, attribute list lengths for
	// ORDER. Stopping at MaxLevel is a normal completion, not an interrupt.
	// Ignored by the conditional algorithm's slice bookkeeping (it applies to
	// its inner FASTOD passes).
	MaxLevel int
	// Budget bounds the run's wall-clock time and visited nodes; see Budget.
	// For the conditional algorithm the budget is shared across the
	// unconditional pass and every slice pass.
	Budget Budget
	// OrderSpecs overrides the ordering semantics of named columns for this
	// run: per attribute, the sort direction (asc/desc), the NULL placement
	// (nulls first/last) and the collation raw values are compared under.
	// Columns not named keep the default order (ascending, NULLS FIRST,
	// type-driven comparison). The dataset is transparently re-encoded under
	// the spec (cached per canonical spec, bounded — see Dataset) and every
	// algorithm runs on the resulting plain ranks; fully-default entries are
	// erased by Canonical, so listing a column with no overrides is identical
	// to not listing it. See the package documentation of internal/relation
	// for the spec-to-rank contract.
	OrderSpecs []AttrOrder
}

// FASTODRunOptions are the FASTOD-specific knobs of a Request: the ablation
// switches of Figure 6 and the per-level statistics of Figure 7; see
// core.Flags. The zero value is the paper's configuration with every
// optimization enabled. The conditional algorithm also reads them for its
// inner FASTOD passes, all but CountOnly.
type FASTODRunOptions = core.Flags

// ApproxRunOptions are the approximate-discovery knobs of a Request.
type ApproxRunOptions struct {
	// Threshold is the maximum allowed error rate in [0, 1); 0 coincides
	// with exact discovery.
	Threshold float64 `json:"threshold"`
}

// ConditionalRunOptions are the conditional-discovery knobs of a Request:
// the condition cardinality bound (default 16), the smallest slice processed
// (default 4) and the attributes allowed as conditions; see
// conditional.Options.
type ConditionalRunOptions = conditional.Options

// Request describes one discovery run: which algorithm, the shared options,
// and the algorithm-specific sub-options (only the block matching Algorithm
// is read). The zero value is a plain FASTOD run with defaults everywhere.
type Request struct {
	// Algorithm selects the discovery algorithm; the zero value is FASTOD.
	Algorithm Algorithm
	// RunOptions holds the options every algorithm shares.
	RunOptions
	// FASTOD configures FASTOD runs — and, through the conditional
	// algorithm's inner passes, conditional runs.
	FASTOD FASTODRunOptions
	// Approx configures approximate runs.
	Approx ApproxRunOptions
	// Conditional configures conditional runs.
	Conditional ConditionalRunOptions
}

// ErrInvalidRequest marks request-validation failures of Run: the request
// itself is malformed (negative resource knobs, out-of-range threshold,
// unknown algorithm), as opposed to algorithm or input failures. Errors
// returned by Run for such requests wrap it, so transport layers can test
// errors.Is(err, ErrInvalidRequest) and map it to a client error (HTTP 400)
// while everything else stays a server error.
var ErrInvalidRequest = errors.New("fastod: invalid request")

// ErrInternal marks contained engine failures: a worker goroutine panicked
// during discovery (an invariant violation, or an injected fault under
// test), the panic was recovered, sibling workers were drained, and the run
// failed with a typed error instead of killing the process. Every
// *InternalError matches errors.Is(err, ErrInternal); transport layers map
// it to a server error (HTTP 500) and log the captured stack, while
// ErrInvalidRequest stays a client error.
var ErrInternal = errors.New("fastod: internal error")

// InternalError is the typed error Run returns when a panic was recovered
// inside the discovery engine. The process survives and the dataset remains
// usable — the error describes a contained failure of one run, not of the
// service. It matches errors.Is(err, ErrInternal).
type InternalError struct {
	// Message describes the panic: the panic value plus, when known, the
	// lattice node whose processing raised it.
	Message string
	// Node is the lattice node (attribute set) being processed when the
	// panic was raised, rendered like "{A,B,D}"; empty when the panic
	// happened outside node processing.
	Node string
	// Stack is the panicking goroutine's stack captured at recovery. It is
	// for operator logs; transport layers must not echo it to clients.
	Stack []byte
}

func (e *InternalError) Error() string { return "fastod: internal error: " + e.Message }

// Is reports target == ErrInternal, wiring every InternalError into the
// errors.Is taxonomy alongside ErrInvalidRequest.
func (e *InternalError) Is(target error) bool { return target == ErrInternal }

// internalize maps a contained worker panic surfaced by the engine
// (*lattice.PanicError) onto the public typed InternalError; every other
// error passes through unchanged.
func internalize(err error) error {
	var pe *lattice.PanicError
	if errors.As(err, &pe) {
		ie := &InternalError{Message: pe.Error(), Stack: pe.Stack}
		if pe.HasNode {
			ie.Node = pe.Node.String()
		}
		return ie
	}
	return err
}

// Validate checks the request envelope without touching the dataset: shared
// options must be non-negative, the algorithm must be known, and the
// algorithm-specific block actually read by the run (see Request) must be
// in range. Run calls it before any encoding or partition-store work, so a
// bad request fails fast with an ErrInvalidRequest-wrapped error instead of
// surfacing from deep inside an algorithm — or worse, being silently
// coerced (negative Workers used to be clamped to 1 by the engine).
func (r Request) Validate() error {
	if r.Workers < 0 {
		return fmt.Errorf("%w: negative Workers %d (0 selects all CPUs, 1 is sequential)", ErrInvalidRequest, r.Workers)
	}
	if r.MaxLevel < 0 {
		return fmt.Errorf("%w: negative MaxLevel %d (0 means unlimited)", ErrInvalidRequest, r.MaxLevel)
	}
	if r.Budget.Timeout < 0 {
		return fmt.Errorf("%w: negative Budget.Timeout %v (0 means none)", ErrInvalidRequest, r.Budget.Timeout)
	}
	if r.Budget.MaxNodes < 0 {
		return fmt.Errorf("%w: negative Budget.MaxNodes %d (0 means none)", ErrInvalidRequest, r.Budget.MaxNodes)
	}
	alg := r.Algorithm
	if alg == "" {
		alg = AlgorithmFASTOD
	}
	switch alg {
	case AlgorithmFASTOD, AlgorithmTANE, AlgorithmBidirectional, AlgorithmORDER:
	case AlgorithmApprox:
		// The NaN check is explicit: NaN slips through both range
		// comparisons and would silently yield an empty result (every
		// error-rate comparison against NaN is false).
		if t := r.Approx.Threshold; t < 0 || t >= 1 || math.IsNaN(t) {
			return fmt.Errorf("%w: Approx.Threshold %v outside [0, 1)", ErrInvalidRequest, t)
		}
	case AlgorithmConditional:
		if r.Conditional.MinSliceRows < 0 {
			return fmt.Errorf("%w: negative Conditional.MinSliceRows %d (0 selects the default)", ErrInvalidRequest, r.Conditional.MinSliceRows)
		}
		if r.Conditional.MaxConditionCardinality < 0 {
			return fmt.Errorf("%w: negative Conditional.MaxConditionCardinality %d (0 selects the default)", ErrInvalidRequest, r.Conditional.MaxConditionCardinality)
		}
		seen := make(map[int]bool, len(r.Conditional.ConditionAttrs))
		for _, attr := range r.Conditional.ConditionAttrs {
			if attr < 0 {
				return fmt.Errorf("%w: negative Conditional.ConditionAttrs entry %d", ErrInvalidRequest, attr)
			}
			if seen[attr] {
				// A duplicate would double-discover the attribute's slices:
				// duplicated conditional ODs and double the node budget spent.
				return fmt.Errorf("%w: duplicate Conditional.ConditionAttrs entry %d", ErrInvalidRequest, attr)
			}
			seen[attr] = true
		}
	default:
		return fmt.Errorf("%w: unknown algorithm %q (want one of %v)", ErrInvalidRequest, r.Algorithm, Algorithms())
	}
	if err := validateAttrOrders(r.OrderSpecs); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	return nil
}

// ResolveWorkers maps a RunOptions.Workers-style request onto the concrete
// worker count a run will use: 0 selects all CPUs (GOMAXPROCS). It exists so
// front ends can report the effective parallelism of a run instead of
// echoing the raw setting. Negative values resolve to 1 for historical
// callers, but Run itself rejects them up front (Validate).
func ResolveWorkers(requested int) int { return lattice.ResolveWorkers(requested) }

// ValidateRequest is Validate plus the dataset-aware checks a bare Request
// cannot perform — that Conditional.ConditionAttrs fit the dataset's width
// and that every OrderSpecs entry names an existing column. Run calls it before any encoding or store work; transport layers
// call it to reject invalid requests before committing to a response (e.g.
// before the SSE stream's 200 header goes on the wire).
func (d *Dataset) ValidateRequest(req Request) error {
	if err := req.Validate(); err != nil {
		return err
	}
	if alg := req.Algorithm; alg == AlgorithmConditional {
		for _, attr := range req.Conditional.ConditionAttrs {
			if attr >= d.enc.NumCols() {
				return fmt.Errorf("%w: Conditional.ConditionAttrs entry %d out of range (dataset has %d attributes)",
					ErrInvalidRequest, attr, d.enc.NumCols())
			}
		}
	}
	for _, o := range req.OrderSpecs {
		if d.enc.ColumnIndex(o.Column) < 0 {
			return fmt.Errorf("%w: OrderSpecs names unknown column %q", ErrInvalidRequest, o.Column)
		}
	}
	return nil
}

// Canonical returns the request in its effective form — the request the run
// actually executes once defaults are resolved — with every knob that cannot
// change the run's OUTPUT erased. Two valid requests with equal canonical
// forms produce identical complete reports, which is what makes the form (via
// Fingerprint) a sound cache key:
//
//   - the zero Algorithm becomes AlgorithmFASTOD, its documented meaning;
//   - Workers is erased: the engine's contract is that output is identical
//     for every worker count, so parallelism must not fragment a cache;
//   - the sub-option blocks the selected algorithm never reads are zeroed
//     (e.g. an approx threshold on a FASTOD request is dead weight);
//   - OrderSpecs is canonicalized, NOT erased — ordering semantics change the
//     encoding every algorithm runs on, so they are part of the question. The
//     canonical form drops fully-default entries (naming a column without
//     overriding anything is a no-op) and sorts the rest by column name (each
//     entry configures its column independently, so listing order is
//     presentation); nothing else is folded, so two specs canonicalize equal
//     exactly when they select the same per-column orders;
//   - for conditional runs, FASTOD.CountOnly is forced off (the run overrides
//     it — its global-cover comparison needs materialized ODs), the zero
//     cardinality/row knobs are resolved to their documented defaults, the
//     cardinality bound is erased when ConditionAttrs is explicit (the
//     enumeration never consults it then), and ConditionAttrs is sorted —
//     each attribute's slices are discovered independently and the result is
//     re-sorted, so order cannot change a complete report. (An interrupted
//     run may stop mid-way through the attribute list, so order does affect
//     partial reports — one more reason interrupted reports are never cached.)
//
// Budget is deliberately KEPT: it bounds how much of the search space a run
// may explore, so differently budgeted requests are different questions even
// when both complete.
func (r Request) Canonical() Request {
	if r.Algorithm == "" {
		r.Algorithm = AlgorithmFASTOD
	}
	r.Workers = 0
	r.OrderSpecs = canonicalAttrOrders(r.OrderSpecs)
	if r.Algorithm != AlgorithmFASTOD && r.Algorithm != AlgorithmConditional {
		r.FASTOD = FASTODRunOptions{}
	}
	if r.Algorithm != AlgorithmApprox {
		r.Approx = ApproxRunOptions{}
	}
	if r.Algorithm != AlgorithmConditional {
		r.Conditional = ConditionalRunOptions{}
	} else {
		r.FASTOD.CountOnly = false
		if r.Conditional.MinSliceRows == 0 {
			r.Conditional.MinSliceRows = conditional.DefaultMinSliceRows
		}
		if r.Conditional.ConditionAttrs == nil {
			if r.Conditional.MaxConditionCardinality == 0 {
				r.Conditional.MaxConditionCardinality = conditional.DefaultMaxConditionCardinality
			}
		} else {
			// An explicit attribute list (even an empty one, which selects no
			// conditions at all) bypasses the cardinality-bounded enumeration,
			// so the bound is unread and erased.
			r.Conditional.MaxConditionCardinality = 0
			attrs := slices.Clone(r.Conditional.ConditionAttrs) // keeps an empty list non-nil
			slices.Sort(attrs)
			r.Conditional.ConditionAttrs = attrs
		}
	}
	return r
}

// Fingerprint returns a stable textual identity of the request's canonical
// form (see Canonical): two valid requests have equal fingerprints exactly
// when their complete runs are interchangeable. It is the request half of a
// report-cache key — pair it with a dataset identity and version, since a
// fingerprint says nothing about the data the request runs against. Only
// fields the selected algorithm actually reads are rendered, so the format
// stays stable when unrelated option blocks grow.
func (r Request) Fingerprint() string {
	c := r.Canonical()
	var b strings.Builder
	fmt.Fprintf(&b, "alg=%s;lvl=%d;to=%d;nodes=%d",
		c.Algorithm, c.MaxLevel, c.Budget.Timeout.Nanoseconds(), c.Budget.MaxNodes)
	if c.Algorithm == AlgorithmFASTOD || c.Algorithm == AlgorithmConditional {
		f := c.FASTOD
		fmt.Fprintf(&b, ";fastod=%t,%t,%t,%t,%t",
			f.DisablePruning, f.DisableKeyPruning, f.DisableNodePruning,
			f.CountOnly, f.CollectLevelStats)
	}
	switch c.Algorithm {
	case AlgorithmApprox:
		// Hex float formatting is exact: distinct thresholds can never
		// collide the way a rounded decimal rendering could.
		fmt.Fprintf(&b, ";thr=%s", strconv.FormatFloat(c.Approx.Threshold, 'x', -1, 64))
	case AlgorithmConditional:
		fmt.Fprintf(&b, ";card=%d;minrows=%d;attrs=",
			c.Conditional.MaxConditionCardinality, c.Conditional.MinSliceRows)
		if c.Conditional.ConditionAttrs == nil {
			// nil means "enumerate every attribute within the cardinality
			// bound" — a different request than an explicit empty list, which
			// selects no condition attributes at all.
			b.WriteString("auto")
		} else {
			for i, a := range c.Conditional.ConditionAttrs {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.Itoa(a))
			}
		}
	}
	// Rendered only when a non-default spec survives canonicalization, so
	// every pre-existing fingerprint (and cached report key) is unchanged.
	b.WriteString(orderSpecKey(c.OrderSpecs, ";ord=", ""))
	return b.String()
}

// EffectiveWorkers reports the worker count this request's run will actually
// use: ResolveWorkers of the requested value, except for ORDER, whose
// list-lattice search is sequential and ignores Workers entirely.
func (r Request) EffectiveWorkers() int {
	if r.Algorithm == AlgorithmORDER {
		return 1
	}
	return ResolveWorkers(r.Workers)
}

// SliceProgressLevel is the ProgressEvent.Level marker of conditional
// discovery's per-slice events: the unconditional pass reports ordinary
// lattice levels (1, 2, ...), then each processed condition slice reports
// one event with this level, its node count and the cumulative NodesVisited.
const SliceProgressLevel = conditional.SliceProgressLevel

// RunStats are the unified work counters of a Report, comparable across
// algorithms; see lattice.Stats for the field semantics. Every payload
// carries the same shape (FASTOD's Result.Stats embeds it), and Report.Stats
// is a copy of the payload's. For the conditional algorithm NodesVisited
// totals the unconditional and slice passes while the partition counters
// describe the unconditional pass; for ORDER the partition counters are
// always zero.
type RunStats = lattice.Stats

// Report is the unified response envelope of Run: the algorithm that ran,
// whether it was interrupted, comparable work counters, what was found, and
// exactly one non-nil algorithm-specific result payload. Found, Counts and
// Dependencies are the one view of the payload that front ends print; the
// payload itself holds the algorithm's typed result.
//
// The partial-result contract: an interrupted run (cancelled context or
// exhausted budget) still returns a non-nil Report with nil error. Its
// payload contains every dependency discovered before the interrupt — for
// the level-wise algorithms that output is complete through the last fully
// processed lattice level, and every reported dependency is individually
// valid (validation happens per candidate; the interrupt only cuts the
// search short). Interrupted distinguishes such partial reports from
// complete ones.
type Report struct {
	// Algorithm is the algorithm that produced this report.
	Algorithm Algorithm
	// Interrupted reports that the run was cut short by context cancellation
	// or budget exhaustion; the payload then holds partial results.
	Interrupted bool
	// Stats holds the unified work counters.
	Stats RunStats
	// Elapsed is the wall-clock duration of the run. It is the run's one
	// clock: the payloads carry none (FASTOD's per-level times are
	// Result.Levels, progress events carry their own elapsed time).
	Elapsed time.Duration
	// Found is the number of dependencies found, in the algorithm's own
	// unit: canonical ODs for FASTOD (Counts.Total, which a CountOnly run
	// fills too), minimal FDs for TANE, approximate, bidirectional or
	// conditional ODs for those algorithms, and list ODs for ORDER.
	Found int
	// Counts is the paper's canonical tally, "#ODs (#FDs + #OCDs)", of what
	// was found: FASTOD's and approx's ODs, TANE's FDs counted as the
	// constancy ODs they are (X -> A is X: [] -> A), and the Theorem-5 image
	// of ORDER's list ODs. It is nil for bidirectional and conditional runs,
	// whose findings are not plain canonical ODs.
	Counts *Count

	// Exactly one of the following is non-nil, matching Algorithm.

	// FASTOD is the payload of AlgorithmFASTOD runs.
	FASTOD *Result
	// TANE is the payload of AlgorithmTANE runs.
	TANE *TANEResult
	// Approx is the payload of AlgorithmApprox runs.
	Approx *ApproxResult
	// Bidir is the payload of AlgorithmBidirectional runs.
	Bidir *BidirResult
	// Conditional is the payload of AlgorithmConditional runs.
	Conditional *ConditionalResult
	// ORDER is the payload of AlgorithmORDER runs.
	ORDER *ORDERResult
}

// Dependency is one dependency of a Report rendered over column names; it is
// also odserve's JSON form of a finding. OD is the dependency's text:
// canonical ODs and list ODs in the syntax ParseOD reads, TANE's FDs as
// "{X} -> A" and bidirectional ODs with a "(same)" or "(opposite)" suffix.
type Dependency struct {
	OD string `json:"od"`
	// Error is the measured error rate of an approximate OD.
	Error *float64 `json:"error,omitempty"`
	// Condition and Rows describe the slice a conditional OD holds on.
	Condition string `json:"condition,omitempty"`
	Rows      int    `json:"rows,omitempty"`
}

// String renders the dependency as one line of the fastod CLI's report: an
// approximate OD followed by its error rate, a conditional OD preceded by
// its slice.
func (d Dependency) String() string {
	switch {
	case d.Error != nil:
		return fmt.Sprintf("%s (error %.4f)", d.OD, *d.Error)
	case d.Condition != "":
		return fmt.Sprintf("[%s, %d rows] %s", d.Condition, d.Rows, d.OD)
	}
	return d.OD
}

// Dependencies renders the report's dependencies over the given column
// names, in the payload's order. The slice is never nil, so an empty one
// marshals as []; a CountOnly FASTOD run materializes no dependencies, and
// otherwise the slice holds Found entries.
func (r *Report) Dependencies(names []string) []Dependency {
	switch {
	case r.FASTOD != nil:
		return render(r.FASTOD.ODs, func(od OD) Dependency { return Dependency{OD: od.NamesString(names)} })
	case r.TANE != nil:
		return render(r.TANE.FDs, func(fd FD) Dependency { return Dependency{OD: fd.NamesString(names)} })
	case r.Approx != nil:
		// One backing array for every error rate the entries point at.
		rates := make([]float64, 0, len(r.Approx.ODs))
		return render(r.Approx.ODs, func(d approx.Discovered) Dependency {
			rates = append(rates, d.Error.Rate)
			return Dependency{OD: d.OD.NamesString(names), Error: &rates[len(rates)-1]}
		})
	case r.Bidir != nil:
		return render(r.Bidir.ODs, func(od BidirOD) Dependency { return Dependency{OD: od.NamesString(names)} })
	case r.Conditional != nil:
		return render(r.Conditional.ODs, func(c ConditionalOD) Dependency {
			return Dependency{OD: c.OD.NamesString(names), Condition: c.Condition.NamesString(names), Rows: c.Condition.Rows}
		})
	case r.ORDER != nil:
		return render(r.ORDER.ODs, func(od ListOD) Dependency { return Dependency{OD: od.Names(names)} })
	}
	return []Dependency{}
}

// render maps a payload's findings onto a slice allocated once.
func render[T any](found []T, dep func(T) Dependency) []Dependency {
	out := make([]Dependency, len(found))
	for i, f := range found {
		out[i] = dep(f)
	}
	return out
}

// Run executes one discovery request. The context is checked cooperatively
// throughout the run — before every lattice node — so cancellation takes
// effect within one node of work per worker; a cancelled or over-budget run
// returns a partial Report with Interrupted set and a nil error (see Report
// for the partial-result contract). Errors are reserved for invalid requests
// and malformed inputs.
//
// The run uses the dataset's one partition store (EnablePartitionCache)
// under every OrderSpecs, including in the conditional algorithm's
// unconditional pass.
func (d *Dataset) Run(ctx context.Context, req Request) (*Report, error) {
	return d.RunWithProgress(ctx, req, nil)
}

// RunWithProgress is Run with a progress stream: onProgress (when non-nil)
// receives one ProgressEvent per completed lattice level — level number,
// nodes visited, partitions cached, elapsed wall-clock — including the
// partial level of an interrupted run. Events are delivered synchronously
// from the discovery goroutine, so the callback must be fast and may safely
// cancel the context to stop the run (the idiomatic way to implement
// caller-side policies the Budget knobs do not cover). For the conditional
// algorithm, per-level events describe the unconditional pass; each condition
// slice processed afterwards reports one event with Level ==
// SliceProgressLevel (slice passes are whole-lattice runs of their own, so a
// long conditional discovery stays observable end to end).
func (d *Dataset) RunWithProgress(ctx context.Context, req Request, onProgress func(ProgressEvent)) (rep *Report, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := d.ValidateRequest(req); err != nil {
		return nil, err
	}
	// Last line of the fault-containment contract: the engine recovers panics
	// on its own goroutines and surfaces them as errors (internalize below),
	// but a panic on the caller's goroutine — report assembly, the sequential
	// ORDER search, a progress callback — would still escape Run without this
	// catch-all. Recover it here so (*Dataset).Run never panics.
	defer func() {
		if rec := recover(); rec != nil {
			rep = nil
			err = &InternalError{
				Message: fmt.Sprintf("%v", rec),
				Stack:   debug.Stack(),
			}
		}
	}()
	rep, err = d.runRequest(ctx, req, onProgress)
	if err != nil {
		return nil, internalize(err)
	}
	return rep, nil
}

// runRequest dispatches a validated request to its algorithm on the rank
// encoding its order spec selects: the dataset's own under the default
// spec, otherwise a cached re-encoding. Algorithms are spec-oblivious: they
// see only the resolved ranks and the dataset's one partition store.
func (d *Dataset) runRequest(ctx context.Context, req Request, onProgress func(ProgressEvent)) (*Report, error) {
	enc, err := d.SpecEncoded(req.OrderSpecs)
	if err != nil {
		return nil, err
	}
	rep := &Report{Algorithm: req.Algorithm}
	if rep.Algorithm == "" {
		rep.Algorithm = AlgorithmFASTOD
	}
	start := time.Now()
	cfg := engineConfig(req, d.parts, onProgress)
	switch rep.Algorithm {
	case AlgorithmFASTOD:
		res, err := core.DiscoverContext(ctx, enc, coreOptions(req, cfg))
		if err != nil {
			return nil, err
		}
		rep.FASTOD = res
		rep.Stats = res.Stats.Stats
		rep.Found, rep.Counts = res.Counts.Total, &res.Counts

	case AlgorithmTANE:
		res, err := tane.DiscoverContext(ctx, enc, cfg)
		if err != nil {
			return nil, err
		}
		rep.TANE = res
		rep.Stats = res.Stats
		rep.Found = len(res.FDs)
		rep.Counts = &Count{Total: rep.Found, Constancy: rep.Found}

	case AlgorithmApprox:
		res, err := approx.DiscoverContext(ctx, enc, req.Approx.Threshold, cfg)
		if err != nil {
			return nil, err
		}
		rep.Approx = res
		rep.Stats = res.Stats
		counts := res.Counts()
		rep.Found, rep.Counts = len(res.ODs), &counts

	case AlgorithmBidirectional:
		res, err := bidir.DiscoverContext(ctx, enc, cfg)
		if err != nil {
			return nil, err
		}
		rep.Bidir = res
		rep.Stats = res.Stats
		rep.Found = len(res.ODs)

	case AlgorithmConditional:
		res, err := conditional.DiscoverContext(ctx, enc, req.Conditional, coreOptions(req, cfg))
		if err != nil {
			return nil, err
		}
		rep.Conditional = res
		rep.Stats = res.Stats
		rep.Found = len(res.ODs)

	case AlgorithmORDER:
		res, err := order.DiscoverContext(ctx, enc, cfg)
		if err != nil {
			return nil, err
		}
		rep.ORDER = res
		rep.Stats = res.Stats
		rep.Found, rep.Counts = len(res.ODs), &res.Counts

	default:
		// Unreachable: Validate rejected unknown algorithms above. Kept as a
		// safety net should the switches ever drift apart.
		return nil, fmt.Errorf("%w: unknown algorithm %q (want one of %v)", ErrInvalidRequest, req.Algorithm, Algorithms())
	}
	rep.Interrupted = rep.Stats.Interrupted
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// engineConfig is the request's lattice run configuration: the one mapping
// of RunOptions onto the configuration every algorithm runs under, the
// set-lattice ones and ORDER alike.
func engineConfig(req Request, store *PartitionStore, onProgress func(ProgressEvent)) lattice.Config {
	return lattice.Config{
		Workers:    req.Workers,
		MaxLevel:   req.MaxLevel,
		Budget:     req.Budget,
		Partitions: store,
		Progress:   onProgress,
	}
}

// coreOptions assembles the FASTOD options of a request from its engine
// configuration — used both for plain FASTOD runs and for the conditional
// algorithm's inner passes.
func coreOptions(req Request, cfg lattice.Config) core.Options {
	return core.Options{
		Workers:    cfg.Workers,
		MaxLevel:   cfg.MaxLevel,
		Budget:     cfg.Budget,
		Progress:   cfg.Progress,
		Partitions: cfg.Partitions,
		Flags:      req.FASTOD,
	}
}
