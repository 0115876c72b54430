package fastod_test

import (
	"context"
	"testing"
	"time"

	fastod "repro"
)

// --- Differential tests: Run must equal the legacy Discover* wrappers on ---
// --- the seed datasets when no budget fires.                             ---

func seedDatasets() map[string]*fastod.Dataset {
	return map[string]*fastod.Dataset{
		"employees": fastod.EmployeesExample(),
		"flight":    fastod.SyntheticFlight(300, 6, 2017),
		"ncvoter":   fastod.SyntheticNCVoter(200, 5, 2017),
		"dbtesma":   fastod.SyntheticDBTesma(200, 5, 2017),
	}
}

func TestRunMatchesDiscoverFASTOD(t *testing.T) {
	ctx := context.Background()
	for name, ds := range seedDatasets() {
		rep, err := ds.Run(ctx, fastod.Request{Algorithm: fastod.AlgorithmFASTOD})
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		legacy, err := ds.Discover(fastod.Options{})
		if err != nil {
			t.Fatalf("%s: Discover: %v", name, err)
		}
		if rep.Interrupted || rep.FASTOD.Stats.Interrupted {
			t.Fatalf("%s: unbudgeted run reported interrupted", name)
		}
		if rep.Algorithm != fastod.AlgorithmFASTOD || rep.FASTOD == nil {
			t.Fatalf("%s: report payload mismatch: %+v", name, rep)
		}
		if rep.FASTOD.Counts != legacy.Counts || len(rep.FASTOD.ODs) != len(legacy.ODs) {
			t.Fatalf("%s: Run counts %v, Discover counts %v", name, rep.FASTOD.Counts, legacy.Counts)
		}
		for i := range legacy.ODs {
			if !rep.FASTOD.ODs[i].Equal(legacy.ODs[i]) {
				t.Fatalf("%s: OD %d = %v, want %v", name, i, rep.FASTOD.ODs[i], legacy.ODs[i])
			}
		}
		if rep.Stats.NodesVisited != legacy.Stats.NodesVisited {
			t.Errorf("%s: Run visited %d nodes, Discover %d", name, rep.Stats.NodesVisited, legacy.Stats.NodesVisited)
		}
	}
}

func TestRunMatchesLegacyBaselinesAndExtensions(t *testing.T) {
	ctx := context.Background()
	ds := fastod.SyntheticFlight(250, 6, 2017)
	dsLegacy := fastod.SyntheticFlight(250, 6, 2017)

	tane, err := ds.Run(ctx, fastod.Request{Algorithm: fastod.AlgorithmTANE})
	if err != nil {
		t.Fatal(err)
	}
	taneLegacy, err := dsLegacy.DiscoverFDs(fastod.TANEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tane.TANE.FDs) != len(taneLegacy.FDs) {
		t.Errorf("TANE: Run found %d FDs, legacy %d", len(tane.TANE.FDs), len(taneLegacy.FDs))
	}

	apx, err := ds.Run(ctx, fastod.Request{
		Algorithm: fastod.AlgorithmApprox,
		Approx:    fastod.ApproxRunOptions{Threshold: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	apxLegacy, err := dsLegacy.DiscoverApproximate(fastod.ApproxOptions{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(apx.Approx.ODs) != len(apxLegacy.ODs) {
		t.Errorf("approx: Run found %d ODs, legacy %d", len(apx.Approx.ODs), len(apxLegacy.ODs))
	}

	bid, err := ds.Run(ctx, fastod.Request{Algorithm: fastod.AlgorithmBidirectional})
	if err != nil {
		t.Fatal(err)
	}
	bidLegacy, err := dsLegacy.DiscoverBidirectional(fastod.BidirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(bid.Bidir.ODs) != len(bidLegacy.ODs) {
		t.Errorf("bidir: Run found %d ODs, legacy %d", len(bid.Bidir.ODs), len(bidLegacy.ODs))
	}

	cond, err := ds.Run(ctx, fastod.Request{Algorithm: fastod.AlgorithmConditional})
	if err != nil {
		t.Fatal(err)
	}
	condLegacy, err := dsLegacy.DiscoverConditional(fastod.ConditionalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cond.Conditional.ODs) != len(condLegacy.ODs) || cond.Conditional.SlicesExamined != condLegacy.SlicesExamined {
		t.Errorf("conditional: Run found %d ODs over %d slices, legacy %d over %d",
			len(cond.Conditional.ODs), cond.Conditional.SlicesExamined,
			len(condLegacy.ODs), condLegacy.SlicesExamined)
	}

	ord, err := ds.Run(ctx, fastod.Request{
		Algorithm:  fastod.AlgorithmORDER,
		RunOptions: fastod.RunOptions{Budget: fastod.Budget{MaxNodes: 200_000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ordLegacy, err := dsLegacy.DiscoverWithORDER(fastod.ORDEROptions{Budget: fastod.Budget{MaxNodes: 200_000}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ord.ORDER.ODs) != len(ordLegacy.ODs) || ord.ORDER.Interrupted != ordLegacy.Interrupted {
		t.Errorf("ORDER: Run found %d ODs (interrupted=%v), legacy %d (interrupted=%v)",
			len(ord.ORDER.ODs), ord.ORDER.Interrupted, len(ordLegacy.ODs), ordLegacy.Interrupted)
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
	if _, err := ds.Discover(fastod.Options{}); err != nil {
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

	// The legacy wrapper must route through the same path.
	legacy, err := ds.DiscoverConditional(fastod.ConditionalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Global.Stats.PartitionHits == 0 {
		t.Error("DiscoverConditional bypassed the dataset's shared partition store")
	}
}

// --- Satellite: Project/HeadRows views must not inherit the parent's ---
// --- partition store (stores bind to one relation instance).         ---

func TestViewsDoNotInheritPartitionCache(t *testing.T) {
	ds := fastod.SyntheticFlight(200, 6, 2017)
	store := ds.EnablePartitionCache(0)
	if _, err := ds.Discover(fastod.Options{}); err != nil {
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
