package fastod_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	fastod "repro"
	"repro/internal/approx"
	"repro/internal/bidir"
	"repro/internal/conditional"
	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/order"
	"repro/internal/relation"
	"repro/internal/tane"
)

// --- Request mapping: every request field that shapes an algorithm's ---
// --- output must reach that algorithm.                                ---

// discoverFunc is one algorithm package's entry point with its options bound,
// rendering the result the way renderReport renders Run's payload.
type discoverFunc func(ctx context.Context, enc *relation.Encoded) (string, error)

// direct binds an algorithm's DiscoverContext to literal options.
func direct[O, R any](discover func(context.Context, *relation.Encoded, O) (*R, error), render func(*R) string, opts O) discoverFunc {
	return func(ctx context.Context, enc *relation.Encoded) (string, error) {
		res, err := discover(ctx, enc, opts)
		if err != nil {
			return "", err
		}
		return render(res), nil
	}
}

// approxAt binds approx.DiscoverContext's threshold, leaving the engine
// configuration for direct to bind.
func approxAt(threshold float64) func(context.Context, *relation.Encoded, lattice.Config) (*approx.Result, error) {
	return func(ctx context.Context, enc *relation.Encoded, cfg lattice.Config) (*approx.Result, error) {
		return approx.DiscoverContext(ctx, enc, threshold, cfg)
	}
}

// conditionalWith binds conditional.DiscoverContext's own options, leaving
// the FASTOD options for direct to bind.
func conditionalWith(opts conditional.Options) func(context.Context, *relation.Encoded, core.Options) (*conditional.Result, error) {
	return func(ctx context.Context, enc *relation.Encoded, discovery core.Options) (*conditional.Result, error) {
		return conditional.DiscoverContext(ctx, enc, opts, discovery)
	}
}

// The renderers print every output field of a result except wall-clock
// timings: dependencies, counts, per-level statistics and work counters.

func renderFASTOD(res *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "counts=%v stats=%+v\n", res.Counts, res.Stats)
	for _, l := range res.Levels {
		l.Elapsed = 0
		fmt.Fprintf(&b, "level %+v\n", l)
	}
	for _, od := range res.ODs {
		fmt.Fprintln(&b, od)
	}
	return b.String()
}

func renderTANE(res *tane.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "nodes=%d interrupted=%v stats=%+v\n", res.Stats.NodesVisited, res.Stats.Interrupted, res.Stats)
	for _, fd := range res.FDs {
		fmt.Fprintln(&b, fd)
	}
	return b.String()
}

func renderApprox(res *approx.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "nodes=%d interrupted=%v stats=%+v\n", res.Stats.NodesVisited, res.Stats.Interrupted, res.Stats)
	for _, d := range res.ODs {
		fmt.Fprintf(&b, "%v error=%+v\n", d.OD, d.Error)
	}
	return b.String()
}

func renderBidir(res *bidir.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "nodes=%d interrupted=%v stats=%+v\n", res.Stats.NodesVisited, res.Stats.Interrupted, res.Stats)
	for _, od := range res.ODs {
		fmt.Fprintln(&b, od)
	}
	return b.String()
}

func renderConditional(res *conditional.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "slices=%d nodes=%d maxlevel=%d interrupted=%v\nglobal:\n%s",
		res.SlicesExamined, res.Stats.NodesVisited, res.Stats.MaxLevelReached, res.Stats.Interrupted, renderFASTOD(res.Global))
	for _, od := range res.ODs {
		fmt.Fprintf(&b, "%+v %v\n", od.Condition, od.OD)
	}
	return b.String()
}

func renderORDER(res *order.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "counts=%v nodes=%d maxlevel=%d interrupted=%v\n",
		res.Counts, res.Stats.NodesVisited, res.Stats.MaxLevelReached, res.Stats.Interrupted)
	for _, od := range res.ODs {
		fmt.Fprintln(&b, od)
	}
	for _, od := range res.Canonical {
		fmt.Fprintln(&b, od)
	}
	return b.String()
}

// renderReport renders Run's payload with the renderer of its algorithm.
func renderReport(rep *fastod.Report) string {
	switch {
	case rep.FASTOD != nil:
		return renderFASTOD(rep.FASTOD)
	case rep.TANE != nil:
		return renderTANE(rep.TANE)
	case rep.Approx != nil:
		return renderApprox(rep.Approx)
	case rep.Bidir != nil:
		return renderBidir(rep.Bidir)
	case rep.Conditional != nil:
		return renderConditional(rep.Conditional)
	case rep.ORDER != nil:
		return renderORDER(rep.ORDER)
	}
	return ""
}

// TestRunMapsRequestFieldsOntoAlgorithms runs each case through ds.Run and
// through the algorithm package's DiscoverContext with the options written
// out literally, so Run is checked against the algorithms rather than against
// itself. A case must also differ from the zero request, so a request field
// that Run drops cannot pass unnoticed.
func TestRunMapsRequestFieldsOntoAlgorithms(t *testing.T) {
	ds := fastod.SyntheticFlight(300, 6, 2017)
	enc, err := ds.SpecEncoded(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Budgeted cases run sequentially so the interrupted prefix is the same
	// on both sides.
	nodes := fastod.Budget{MaxNodes: 20}
	budgeted := fastod.RunOptions{Workers: 1, Budget: nodes}

	for _, c := range []struct {
		name string
		req  fastod.Request
		run  discoverFunc
		// sameAsZero marks a case whose output must equal the zero
		// request's rather than differ from it: the zero request itself, and
		// a field that by contract cannot change the output.
		sameAsZero bool
	}{
		{"fastod/zero", fastod.Request{}, direct(core.DiscoverContext, renderFASTOD, core.Options{}), true},
		{"fastod/MaxLevel", fastod.Request{RunOptions: fastod.RunOptions{MaxLevel: 2}},
			direct(core.DiscoverContext, renderFASTOD, core.Options{MaxLevel: 2}), false},
		{"fastod/Budget", fastod.Request{RunOptions: budgeted},
			direct(core.DiscoverContext, renderFASTOD, core.Options{Workers: 1, Budget: nodes}), false},
		{"fastod/DisablePruning", fastod.Request{FASTOD: fastod.FASTODRunOptions{DisablePruning: true}},
			direct(core.DiscoverContext, renderFASTOD, core.Options{Flags: core.Flags{DisablePruning: true}}), false},
		{"fastod/DisableKeyPruning", fastod.Request{FASTOD: fastod.FASTODRunOptions{DisableKeyPruning: true}},
			direct(core.DiscoverContext, renderFASTOD, core.Options{Flags: core.Flags{DisableKeyPruning: true}}), false},
		{"fastod/DisableNodePruning", fastod.Request{FASTOD: fastod.FASTODRunOptions{DisableNodePruning: true}},
			direct(core.DiscoverContext, renderFASTOD, core.Options{Flags: core.Flags{DisableNodePruning: true}}), false},
		{"fastod/CountOnly", fastod.Request{FASTOD: fastod.FASTODRunOptions{CountOnly: true}},
			direct(core.DiscoverContext, renderFASTOD, core.Options{Flags: core.Flags{CountOnly: true}}), false},
		{"fastod/CollectLevelStats", fastod.Request{FASTOD: fastod.FASTODRunOptions{CollectLevelStats: true}},
			direct(core.DiscoverContext, renderFASTOD, core.Options{Flags: core.Flags{CollectLevelStats: true}}), false},

		{"tane/zero", fastod.Request{Algorithm: fastod.AlgorithmTANE}, direct(tane.DiscoverContext, renderTANE, lattice.Config{}), true},
		{"tane/MaxLevel", fastod.Request{Algorithm: fastod.AlgorithmTANE, RunOptions: fastod.RunOptions{MaxLevel: 2}},
			direct(tane.DiscoverContext, renderTANE, lattice.Config{MaxLevel: 2}), false},
		{"tane/Budget", fastod.Request{Algorithm: fastod.AlgorithmTANE, RunOptions: budgeted},
			direct(tane.DiscoverContext, renderTANE, lattice.Config{Workers: 1, Budget: nodes}), false},

		{"approx/zero", fastod.Request{Algorithm: fastod.AlgorithmApprox}, direct(approxAt(0), renderApprox, lattice.Config{}), true},
		{"approx/Threshold", fastod.Request{Algorithm: fastod.AlgorithmApprox, Approx: fastod.ApproxRunOptions{Threshold: 0.1}},
			direct(approxAt(0.1), renderApprox, lattice.Config{}), false},
		{"approx/MaxLevel", fastod.Request{Algorithm: fastod.AlgorithmApprox, RunOptions: fastod.RunOptions{MaxLevel: 2}},
			direct(approxAt(0), renderApprox, lattice.Config{MaxLevel: 2}), false},
		{"approx/Budget", fastod.Request{Algorithm: fastod.AlgorithmApprox, RunOptions: budgeted},
			direct(approxAt(0), renderApprox, lattice.Config{Workers: 1, Budget: nodes}), false},

		{"bidir/zero", fastod.Request{Algorithm: fastod.AlgorithmBidirectional}, direct(bidir.DiscoverContext, renderBidir, lattice.Config{}), true},
		{"bidir/MaxLevel", fastod.Request{Algorithm: fastod.AlgorithmBidirectional, RunOptions: fastod.RunOptions{MaxLevel: 2}},
			direct(bidir.DiscoverContext, renderBidir, lattice.Config{MaxLevel: 2}), false},
		{"bidir/Budget", fastod.Request{Algorithm: fastod.AlgorithmBidirectional, RunOptions: budgeted},
			direct(bidir.DiscoverContext, renderBidir, lattice.Config{Workers: 1, Budget: nodes}), false},

		{"conditional/zero", fastod.Request{Algorithm: fastod.AlgorithmConditional}, direct(conditionalWith(conditional.Options{}), renderConditional, core.Options{}), true},
		{"conditional/MinSliceRows", fastod.Request{Algorithm: fastod.AlgorithmConditional, Conditional: fastod.ConditionalRunOptions{MinSliceRows: 100}},
			direct(conditionalWith(conditional.Options{MinSliceRows: 100}), renderConditional, core.Options{}), false},
		{"conditional/MaxConditionCardinality", fastod.Request{Algorithm: fastod.AlgorithmConditional, Conditional: fastod.ConditionalRunOptions{MaxConditionCardinality: 2}},
			direct(conditionalWith(conditional.Options{MaxConditionCardinality: 2}), renderConditional, core.Options{}), false},
		{"conditional/ConditionAttrs", fastod.Request{Algorithm: fastod.AlgorithmConditional, Conditional: fastod.ConditionalRunOptions{ConditionAttrs: []int{1}}},
			direct(conditionalWith(conditional.Options{ConditionAttrs: []int{1}}), renderConditional, core.Options{}), false},
		{"conditional/MaxLevel", fastod.Request{Algorithm: fastod.AlgorithmConditional, RunOptions: fastod.RunOptions{MaxLevel: 2}},
			direct(conditionalWith(conditional.Options{}), renderConditional, core.Options{MaxLevel: 2}), false},
		{"conditional/CollectLevelStats", fastod.Request{Algorithm: fastod.AlgorithmConditional, FASTOD: fastod.FASTODRunOptions{CollectLevelStats: true}},
			direct(conditionalWith(conditional.Options{}), renderConditional, core.Options{Flags: core.Flags{CollectLevelStats: true}}), false},

		{"order/zero", fastod.Request{Algorithm: fastod.AlgorithmORDER}, direct(order.DiscoverContext, renderORDER, lattice.Config{}), true},
		{"order/MaxLevel", fastod.Request{Algorithm: fastod.AlgorithmORDER, RunOptions: fastod.RunOptions{MaxLevel: 2}},
			direct(order.DiscoverContext, renderORDER, lattice.Config{MaxLevel: 2}), false},
		{"order/Budget", fastod.Request{Algorithm: fastod.AlgorithmORDER, RunOptions: fastod.RunOptions{Budget: nodes}},
			direct(order.DiscoverContext, renderORDER, lattice.Config{Budget: nodes}), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			rep, err := ds.Run(t.Context(), c.req)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			got := renderReport(rep)
			want, err := c.run(t.Context(), enc)
			if err != nil {
				t.Fatalf("DiscoverContext: %v", err)
			}
			if got != want {
				t.Fatalf("Run and DiscoverContext disagree:\n--- Run\n%s--- DiscoverContext\n%s", got, want)
			}
			zero, err := ds.Run(t.Context(), fastod.Request{Algorithm: c.req.Algorithm})
			if err != nil {
				t.Fatalf("zero request: %v", err)
			}
			if same := renderReport(zero) == got; same != c.sameAsZero {
				t.Fatalf("output equals the zero request's: %v, want %v (a case must observe its field)", same, c.sameAsZero)
			}
		})
	}
}

// --- Cancellation: a context cancelled mid-level stops the run within one ---
// --- chunk and yields a coherent partial report.                          ---

// cancelAfterFirstLevel builds a progress callback that cancels the context
// once the first level completes, so the interrupt lands inside a later
// level's parallel phase or at its barrier — never before any work happened.
func runCancelledMidway(t *testing.T, ds *fastod.Dataset, alg fastod.Algorithm) *fastod.Report {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep, err := ds.RunWithProgress(ctx, fastod.Request{Algorithm: alg}, func(ev fastod.ProgressEvent) {
		if ev.Level >= 1 {
			cancel()
		}
	})
	if err != nil {
		t.Fatalf("%s: cancelled run errored: %v", alg, err)
	}
	if !rep.Interrupted {
		t.Fatalf("%s: cancelled run not marked interrupted", alg)
	}
	return rep
}

func TestRunCancellationMidLevel(t *testing.T) {
	for _, alg := range []fastod.Algorithm{
		fastod.AlgorithmFASTOD, fastod.AlgorithmTANE, fastod.AlgorithmApprox,
		fastod.AlgorithmBidirectional,
	} {
		ds := fastod.SyntheticFlight(400, 8, 2017)
		full, err := ds.Run(context.Background(), fastod.Request{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		rep := runCancelledMidway(t, fastod.SyntheticFlight(400, 8, 2017), alg)
		if rep.Stats.NodesVisited == 0 {
			t.Errorf("%s: interrupted report shows no work", alg)
		}
		if rep.Stats.NodesVisited >= full.Stats.NodesVisited {
			t.Errorf("%s: cancelled run visited %d nodes, full run %d — cancellation had no effect",
				alg, rep.Stats.NodesVisited, full.Stats.NodesVisited)
		}
	}
}

// TestRunCancelledPartialIsPrefixOfFull: the ODs of an interrupted FASTOD run
// must be a subset of the complete output (each one individually valid).
func TestRunCancelledPartialIsPrefixOfFull(t *testing.T) {
	full, err := fastod.SyntheticFlight(400, 8, 2017).Run(context.Background(),
		fastod.Request{Algorithm: fastod.AlgorithmFASTOD})
	if err != nil {
		t.Fatal(err)
	}
	valid := make(map[string]bool, len(full.FASTOD.ODs))
	for _, od := range full.FASTOD.ODs {
		valid[od.String()] = true
	}
	rep := runCancelledMidway(t, fastod.SyntheticFlight(400, 8, 2017), fastod.AlgorithmFASTOD)
	for _, od := range rep.FASTOD.ODs {
		if !valid[od.String()] {
			t.Errorf("interrupted run emitted %v, which the complete run does not contain", od)
		}
	}
}

func TestRunPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ds := fastod.SyntheticFlight(100, 5, 2017)
	rep, err := ds.Run(ctx, fastod.Request{})
	if err != nil {
		t.Fatalf("pre-cancelled Run errored: %v", err)
	}
	if !rep.Interrupted || rep.Stats.NodesVisited != 0 {
		t.Errorf("pre-cancelled Run: interrupted=%v nodes=%d, want true/0", rep.Interrupted, rep.Stats.NodesVisited)
	}
	if rep.FASTOD == nil {
		t.Error("pre-cancelled Run must still return its payload envelope")
	}
}

// --- Budgets ---

func TestRunNodeBudgetAcrossAlgorithms(t *testing.T) {
	for _, alg := range []fastod.Algorithm{
		fastod.AlgorithmFASTOD, fastod.AlgorithmTANE, fastod.AlgorithmApprox,
		fastod.AlgorithmBidirectional, fastod.AlgorithmConditional, fastod.AlgorithmORDER,
	} {
		ds := fastod.SyntheticFlight(300, 8, 2017)
		rep, err := ds.Run(context.Background(), fastod.Request{
			Algorithm:  alg,
			RunOptions: fastod.RunOptions{Budget: fastod.Budget{MaxNodes: 20}},
		})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if !rep.Interrupted {
			t.Errorf("%s: 20-node budget did not interrupt the run", alg)
		}
		if rep.Stats.NodesVisited == 0 {
			t.Errorf("%s: interrupted report shows no work", alg)
		}
		full, err := fastod.SyntheticFlight(300, 8, 2017).Run(context.Background(), fastod.Request{
			Algorithm:  alg,
			RunOptions: fastod.RunOptions{Budget: fastod.Budget{MaxNodes: 10_000_000}},
		})
		if err != nil {
			t.Fatalf("%s (unbudgeted): %v", alg, err)
		}
		if rep.Stats.NodesVisited >= full.Stats.NodesVisited {
			t.Errorf("%s: budgeted run visited %d nodes, full run %d", alg, rep.Stats.NodesVisited, full.Stats.NodesVisited)
		}
		// Report.Elapsed is the one run clock, partial or complete.
		if rep.Elapsed <= 0 || full.Elapsed <= 0 {
			t.Errorf("%s: Elapsed not recorded: budgeted %v, full %v", alg, rep.Elapsed, full.Elapsed)
		}
	}
}

func TestRunTimeoutBudget(t *testing.T) {
	ds := fastod.SyntheticFlight(300, 8, 2017)
	rep, err := ds.Run(context.Background(), fastod.Request{
		RunOptions: fastod.RunOptions{Budget: fastod.Budget{Timeout: time.Nanosecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Interrupted {
		t.Error("1ns timeout did not interrupt the run")
	}
}

// --- Envelope semantics ---

func TestRunUnknownAlgorithm(t *testing.T) {
	ds := fastod.EmployeesExample()
	if _, err := ds.Run(context.Background(), fastod.Request{Algorithm: "bogus"}); err == nil {
		t.Error("unknown algorithm must be rejected")
	}
}

func TestRunDefaultsToFASTOD(t *testing.T) {
	ds := fastod.EmployeesExample()
	rep, err := ds.Run(context.Background(), fastod.Request{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Algorithm != fastod.AlgorithmFASTOD || rep.FASTOD == nil {
		t.Errorf("zero-value request ran %q with FASTOD payload nil=%v", rep.Algorithm, rep.FASTOD == nil)
	}
}

func TestRunNilContext(t *testing.T) {
	ds := fastod.EmployeesExample()
	rep, err := ds.Run(nil, fastod.Request{}) //nolint:staticcheck // nil ctx is part of the contract
	if err != nil || rep.Interrupted {
		t.Errorf("nil context must behave like Background: err=%v interrupted=%v", err, rep.Interrupted)
	}
}

func TestRunWithProgressStreams(t *testing.T) {
	ds := fastod.SyntheticFlight(200, 6, 2017)
	ds.EnablePartitionCache(0)
	var events []fastod.ProgressEvent
	rep, err := ds.RunWithProgress(context.Background(), fastod.Request{}, func(ev fastod.ProgressEvent) {
		events = append(events, ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events delivered")
	}
	if len(events) != rep.Stats.MaxLevelReached {
		t.Errorf("got %d events, want one per level (%d)", len(events), rep.Stats.MaxLevelReached)
	}
	for i, ev := range events {
		if ev.Level != i+1 {
			t.Errorf("event %d: level %d, want %d", i, ev.Level, i+1)
		}
		if ev.PartitionsCached == 0 {
			t.Errorf("event %d: no partitions cached despite the dataset store", i)
		}
		if i > 0 && ev.NodesVisited <= events[i-1].NodesVisited {
			t.Errorf("event %d: NodesVisited not increasing", i)
		}
		if i > 0 && ev.Elapsed < events[i-1].Elapsed {
			t.Errorf("event %d: Elapsed went backwards", i)
		}
	}
	if events[len(events)-1].NodesVisited != rep.Stats.NodesVisited {
		t.Errorf("final event NodesVisited = %d, report stats %d",
			events[len(events)-1].NodesVisited, rep.Stats.NodesVisited)
	}
}

// TestConditionalIgnoresCountOnly: the conditional algorithm needs
// materialized ODs for its global-cover comparison, so CountOnly must not
// silently empty its output.
func TestConditionalIgnoresCountOnly(t *testing.T) {
	ds := fastod.SyntheticFlight(300, 6, 2017)
	plain, err := ds.Run(context.Background(), fastod.Request{Algorithm: fastod.AlgorithmConditional})
	if err != nil {
		t.Fatal(err)
	}
	counted, err := ds.Run(context.Background(), fastod.Request{
		Algorithm: fastod.AlgorithmConditional,
		FASTOD:    fastod.FASTODRunOptions{CountOnly: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(counted.Conditional.ODs) != len(plain.Conditional.ODs) {
		t.Errorf("CountOnly changed conditional output: %d ODs vs %d",
			len(counted.Conditional.ODs), len(plain.Conditional.ODs))
	}
}

// --- Satellite: the conditional algorithm's unconditional pass must use ---
// --- the dataset's shared partition store.                              ---

func TestConditionalUsesSharedPartitionStore(t *testing.T) {
	ds := fastod.SyntheticFlight(300, 6, 2017)
	store := ds.EnablePartitionCache(0)

	// Warm the store with a plain FASTOD run.
	if _, err := ds.Run(t.Context(), fastod.Request{}); err != nil {
		t.Fatal(err)
	}
	if store.Stats().Puts == 0 {
		t.Fatal("warm-up run stored no partitions")
	}

	rep, err := ds.Run(context.Background(), fastod.Request{Algorithm: fastod.AlgorithmConditional})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.PartitionHits == 0 {
		t.Error("conditional run's unconditional pass recorded no cache hits over a warm store")
	}
	if rep.Conditional.Global.Stats.PartitionHits == 0 {
		t.Error("global pass stats show no partition hits")
	}
}

// --- Satellite: Project/HeadRows views must not inherit the parent's ---
// --- partition store (stores bind to one relation instance).         ---

func TestViewsDoNotInheritPartitionCache(t *testing.T) {
	ds := fastod.SyntheticFlight(200, 6, 2017)
	store := ds.EnablePartitionCache(0)
	if _, err := ds.Run(t.Context(), fastod.Request{}); err != nil {
		t.Fatal(err)
	}
	before := store.Stats()

	// If a view inherited the parent's store, its run would fail loudly at
	// engine construction (the store is bound to the parent relation) — so a
	// clean run on each view is itself the assertion, backed by the store's
	// accounting staying untouched.
	proj := ds.Project(4)
	projRes, err := proj.Run(context.Background(), fastod.Request{})
	if err != nil {
		t.Fatalf("Project view discovery: %v", err)
	}
	if projRes.Stats.PartitionHits != 0 || projRes.Stats.PartitionMisses != 0 {
		t.Errorf("Project view recorded store traffic: %+v", projRes.Stats)
	}

	head := ds.HeadRows(100)
	headRes, err := head.Run(context.Background(), fastod.Request{})
	if err != nil {
		t.Fatalf("HeadRows view discovery: %v", err)
	}
	if headRes.Stats.PartitionHits != 0 || headRes.Stats.PartitionMisses != 0 {
		t.Errorf("HeadRows view recorded store traffic: %+v", headRes.Stats)
	}

	after := store.Stats()
	if after.Puts != before.Puts || after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("view runs touched the parent store: before %+v, after %+v", before, after)
	}

	// A view can enable its own independent cache.
	projStore := proj.EnablePartitionCache(0)
	if projStore == store {
		t.Fatal("view's EnablePartitionCache returned the parent's store")
	}
	res, err := proj.Run(context.Background(), fastod.Request{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PartitionMisses == 0 {
		t.Error("view run with its own store recorded no store traffic")
	}
}

// TestRunWithProgressInterruptedLevel pins the documented progress contract
// of an interrupted run at the public API: a node budget that runs out
// mid-level visits exactly that many nodes, and the partially visited level
// still gets its event, the last one, whose NodesVisited matches the report.
func TestRunWithProgressInterruptedLevel(t *testing.T) {
	ds := fastod.SyntheticFlight(200, 6, 2017)
	for _, alg := range []fastod.Algorithm{
		fastod.AlgorithmFASTOD, fastod.AlgorithmTANE, fastod.AlgorithmApprox,
		fastod.AlgorithmBidirectional,
	} {
		var full []fastod.ProgressEvent
		if _, err := ds.RunWithProgress(context.Background(), fastod.Request{Algorithm: alg},
			func(ev fastod.ProgressEvent) { full = append(full, ev) }); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		// Land the budget halfway into the first level after level 1 that
		// has at least two nodes.
		cut := -1
		for i := 1; i < len(full); i++ {
			if full[i].Nodes >= 2 {
				cut = i
				break
			}
		}
		if cut < 0 {
			t.Fatalf("%s: no level to interrupt in %+v", alg, full)
		}
		k := full[cut-1].NodesVisited + full[cut].Nodes/2
		for _, workers := range []int{1, 2} {
			var events []fastod.ProgressEvent
			rep, err := ds.RunWithProgress(context.Background(), fastod.Request{
				Algorithm:  alg,
				RunOptions: fastod.RunOptions{Workers: workers, Budget: fastod.Budget{MaxNodes: k}},
			}, func(ev fastod.ProgressEvent) { events = append(events, ev) })
			if err != nil {
				t.Fatalf("%s/w%d: %v", alg, workers, err)
			}
			if !rep.Interrupted || rep.Stats.NodesVisited != k {
				t.Errorf("%s/w%d: interrupted=%v after %d nodes, want true after exactly %d",
					alg, workers, rep.Interrupted, rep.Stats.NodesVisited, k)
			}
			if len(events) != cut+1 {
				t.Fatalf("%s/w%d: %d events, want %d (the interrupted level %d included)",
					alg, workers, len(events), cut+1, cut+1)
			}
			last := events[len(events)-1]
			if last.Level != cut+1 || last.Nodes != k-full[cut-1].NodesVisited {
				t.Errorf("%s/w%d: last event = level %d with %d nodes, want level %d with %d",
					alg, workers, last.Level, last.Nodes, cut+1, k-full[cut-1].NodesVisited)
			}
			if last.NodesVisited != rep.Stats.NodesVisited {
				t.Errorf("%s/w%d: last event NodesVisited = %d, report stats %d",
					alg, workers, last.NodesVisited, rep.Stats.NodesVisited)
			}
		}
	}
}
