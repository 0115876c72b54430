package fastod_test

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	fastod "repro"
)

// --- Request validation: invalid envelopes fail fast with the typed ---
// --- ErrInvalidRequest, before any encoding or store work.          ---

func TestRequestValidate(t *testing.T) {
	valid := []fastod.Request{
		{}, // zero value is a default FASTOD run
		{Algorithm: fastod.AlgorithmApprox, Approx: fastod.ApproxRunOptions{Threshold: 0.5}},
		{Algorithm: fastod.AlgorithmConditional},
		{RunOptions: fastod.RunOptions{Workers: 4, MaxLevel: 3, Budget: fastod.DefaultBudget()}},
		// Sub-option blocks not read by the selected algorithm are ignored,
		// mirroring Run's documented contract.
		{Algorithm: fastod.AlgorithmTANE, Approx: fastod.ApproxRunOptions{Threshold: 99}},
	}
	for i, req := range valid {
		if err := req.Validate(); err != nil {
			t.Errorf("valid request %d rejected: %v", i, err)
		}
	}

	invalid := []struct {
		name string
		req  fastod.Request
	}{
		{"negative workers", fastod.Request{RunOptions: fastod.RunOptions{Workers: -3}}},
		{"negative max level", fastod.Request{RunOptions: fastod.RunOptions{MaxLevel: -1}}},
		{"negative timeout", fastod.Request{RunOptions: fastod.RunOptions{Budget: fastod.Budget{Timeout: -time.Second}}}},
		{"negative max nodes", fastod.Request{RunOptions: fastod.RunOptions{Budget: fastod.Budget{MaxNodes: -5}}}},
		{"negative threshold", fastod.Request{Algorithm: fastod.AlgorithmApprox, Approx: fastod.ApproxRunOptions{Threshold: -0.1}}},
		{"threshold at one", fastod.Request{Algorithm: fastod.AlgorithmApprox, Approx: fastod.ApproxRunOptions{Threshold: 1}}},
		{"NaN threshold", fastod.Request{Algorithm: fastod.AlgorithmApprox, Approx: fastod.ApproxRunOptions{Threshold: math.NaN()}}},
		{"negative slice rows", fastod.Request{Algorithm: fastod.AlgorithmConditional, Conditional: fastod.ConditionalRunOptions{MinSliceRows: -1}}},
		{"negative condition cardinality", fastod.Request{Algorithm: fastod.AlgorithmConditional, Conditional: fastod.ConditionalRunOptions{MaxConditionCardinality: -1}}},
		{"negative condition attr", fastod.Request{Algorithm: fastod.AlgorithmConditional, Conditional: fastod.ConditionalRunOptions{ConditionAttrs: []int{2, -1}}}},
		{"duplicate condition attr", fastod.Request{Algorithm: fastod.AlgorithmConditional, Conditional: fastod.ConditionalRunOptions{ConditionAttrs: []int{1, 1}}}},
		{"unknown algorithm", fastod.Request{Algorithm: "magic"}},
	}
	for _, tc := range invalid {
		err := tc.req.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.req)
			continue
		}
		if !errors.Is(err, fastod.ErrInvalidRequest) {
			t.Errorf("%s: error %v is not ErrInvalidRequest", tc.name, err)
		}
	}
}

func TestRunRejectsInvalidRequestUpFront(t *testing.T) {
	ds := fastod.EmployeesExample()
	ctx := context.Background()

	// The approx threshold used to surface from deep inside internal/approx
	// after dataset encoding and store setup; now it is a typed pre-flight
	// rejection.
	rep, err := ds.Run(ctx, fastod.Request{
		Algorithm: fastod.AlgorithmApprox,
		Approx:    fastod.ApproxRunOptions{Threshold: 1.5},
	})
	if err == nil || rep != nil {
		t.Fatalf("out-of-range threshold: Run = (%v, %v), want typed error", rep, err)
	}
	if !errors.Is(err, fastod.ErrInvalidRequest) {
		t.Errorf("threshold error %v is not ErrInvalidRequest", err)
	}

	// Negative workers used to be silently clamped to 1 by the engine.
	_, err = ds.Run(ctx, fastod.Request{RunOptions: fastod.RunOptions{Workers: -3}})
	if !errors.Is(err, fastod.ErrInvalidRequest) {
		t.Errorf("negative workers: error %v is not ErrInvalidRequest", err)
	}

	// Negative MaxLevel used to pass through unchecked.
	_, err = ds.Run(ctx, fastod.Request{RunOptions: fastod.RunOptions{MaxLevel: -2}})
	if !errors.Is(err, fastod.ErrInvalidRequest) {
		t.Errorf("negative MaxLevel: error %v is not ErrInvalidRequest", err)
	}

	_, err = ds.Run(ctx, fastod.Request{Algorithm: "magic"})
	if !errors.Is(err, fastod.ErrInvalidRequest) {
		t.Errorf("unknown algorithm: error %v is not ErrInvalidRequest", err)
	}

	// Out-of-range condition attributes need the dataset's width, so Run
	// checks them itself — still typed, still before the unconditional pass.
	_, err = ds.Run(ctx, fastod.Request{
		Algorithm:   fastod.AlgorithmConditional,
		Conditional: fastod.ConditionalRunOptions{ConditionAttrs: []int{99}},
	})
	if !errors.Is(err, fastod.ErrInvalidRequest) {
		t.Errorf("out-of-range condition attr: error %v is not ErrInvalidRequest", err)
	}
}

func TestResolveWorkers(t *testing.T) {
	if got := fastod.ResolveWorkers(3); got != 3 {
		t.Errorf("ResolveWorkers(3) = %d", got)
	}
	if got := fastod.ResolveWorkers(0); got < 1 {
		t.Errorf("ResolveWorkers(0) = %d, want >= 1", got)
	}
	// ORDER ignores Workers: its effective parallelism is always 1.
	req := fastod.Request{Algorithm: fastod.AlgorithmORDER, RunOptions: fastod.RunOptions{Workers: 8}}
	if got := req.EffectiveWorkers(); got != 1 {
		t.Errorf("ORDER EffectiveWorkers = %d, want 1", got)
	}
	req.Algorithm = fastod.AlgorithmTANE
	if got := req.EffectiveWorkers(); got != 8 {
		t.Errorf("TANE EffectiveWorkers = %d, want 8", got)
	}
}

// --- Conditional slice progress: the run stays observable after the ---
// --- unconditional pass.                                            ---

func TestConditionalSliceProgress(t *testing.T) {
	ds := fastod.SyntheticHepatitis(80, 5, 7)
	var levels, slices int
	var lastCumulative int
	rep, err := ds.RunWithProgress(context.Background(), fastod.Request{
		Algorithm: fastod.AlgorithmConditional,
	}, func(ev fastod.ProgressEvent) {
		if ev.Level == fastod.SliceProgressLevel {
			slices++
			if ev.Nodes <= 0 {
				t.Errorf("slice event with no nodes: %+v", ev)
			}
			if ev.Slice == nil {
				t.Errorf("slice event without condition info: %+v", ev)
			} else if ev.Slice.Attr < 0 || ev.Slice.Attr >= ds.NumCols() || ev.Slice.Rows <= 0 {
				t.Errorf("slice event with bad condition info: %+v", *ev.Slice)
			}
		} else {
			levels++
			if ev.Slice != nil {
				t.Errorf("level event %+v carries slice info", ev)
			}
			if slices > 0 {
				t.Errorf("level event %+v after slice events began", ev)
			}
		}
		if ev.NodesVisited < lastCumulative {
			t.Errorf("cumulative NodesVisited went backwards: %d -> %d", lastCumulative, ev.NodesVisited)
		}
		lastCumulative = ev.NodesVisited
	})
	if err != nil {
		t.Fatalf("conditional run: %v", err)
	}
	if levels == 0 {
		t.Error("no per-level events from the unconditional pass")
	}
	if slices == 0 {
		t.Error("no per-slice events — conditional runs went dark after the unconditional pass")
	}
	if slices != rep.Conditional.SlicesExamined {
		t.Errorf("%d slice events, but %d slices examined", slices, rep.Conditional.SlicesExamined)
	}
	if lastCumulative != rep.Stats.NodesVisited {
		t.Errorf("last cumulative count %d != report total %d", lastCumulative, rep.Stats.NodesVisited)
	}
}

// --- Concurrent mixed-algorithm runs over one dataset and one shared ---
// --- partition store: exactly the pattern the HTTP server creates.   ---

// TestConcurrentRunMixedAlgorithmsSharedStore hammers one store-enabled
// dataset with every lattice algorithm at once. On the messy twin the
// requests also cross a spec that merges no values and one that does, so
// runs under different equality signatures share the one store.
func TestConcurrentRunMixedAlgorithmsSharedStore(t *testing.T) {
	algorithms := map[string]fastod.Request{
		"fastod": {Algorithm: fastod.AlgorithmFASTOD},
		"tane":   {Algorithm: fastod.AlgorithmTANE},
		"approx": {Algorithm: fastod.AlgorithmApprox, Approx: fastod.ApproxRunOptions{Threshold: 0.05}},
		"bidir":  {Algorithm: fastod.AlgorithmBidirectional},
		"conditional": {Algorithm: fastod.AlgorithmConditional,
			Conditional: fastod.ConditionalRunOptions{MaxConditionCardinality: 8}},
	}
	shapes := []struct {
		name  string
		load  func() *fastod.Dataset
		specs map[string][]fastod.AttrOrder
	}{
		{"flight", func() *fastod.Dataset { return fastod.SyntheticFlight(250, 6, 2017) },
			map[string][]fastod.AttrOrder{"default": nil}},
		{"messy", func() *fastod.Dataset { return fastod.SyntheticMessy(250, 7, 0.2, 2017) },
			map[string][]fastod.AttrOrder{
				"default":            nil,
				"m0 desc nulls last": {{Column: "m0_int", Direction: fastod.OrderDesc, Nulls: fastod.NullsLast}},
				"m2 ci":              {{Column: "m2_str", Collation: fastod.CollateCaseInsen}},
			}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			requests := make(map[string]fastod.Request)
			for alg, req := range algorithms {
				for spec, orders := range sh.specs {
					req.OrderSpecs = orders
					requests[alg+"/"+spec] = req
				}
			}
			hammerSharedStore(t, sh.load(), sh.load(), requests)
		})
	}
}

// hammerSharedStore runs every request on ds with its partition store
// enabled, several times over and all at once, and checks each report
// against a sequential run of the same request on truth, a twin dataset
// without a store.
func hammerSharedStore(t *testing.T, ds, truth *fastod.Dataset, requests map[string]fastod.Request) {
	t.Helper()
	ds.EnablePartitionCache(0)
	ctx := context.Background()
	type expectation struct {
		count int
		nodes int
	}
	want := make(map[string]expectation)
	for name, req := range requests {
		rep, err := truth.Run(ctx, req)
		if err != nil {
			t.Fatalf("baseline %s: %v", name, err)
		}
		want[name] = expectation{count: rep.Found, nodes: rep.Stats.NodesVisited}
	}

	// Hammer the cached dataset with every request at once, several times
	// over, as a server handling mixed traffic would. Run with -race in CI.
	// Spawn in sorted-name order so the schedule (and any failure output) is
	// reproducible rather than following map iteration order.
	names := make([]string, 0, len(requests))
	for name := range requests {
		names = append(names, name)
	}
	sort.Strings(names)
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(requests)*rounds)
	for _, name := range names {
		req := requests[name]
		for r := 0; r < rounds; r++ {
			wg.Add(1)
			go func(name string, req fastod.Request) {
				defer wg.Done()
				rep, err := ds.Run(ctx, req)
				if err != nil {
					errs <- err
					return
				}
				if rep.Interrupted {
					errs <- errors.New(name + ": unbudgeted run interrupted")
					return
				}
				if got := rep.Found; got != want[name].count {
					errs <- errors.New(name + ": concurrent result diverged from sequential baseline")
				}
				if rep.Stats.NodesVisited != want[name].nodes {
					errs <- errors.New(name + ": node count diverged from sequential baseline")
				}
			}(name, req)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The shared store must have served repeats from cache.
	stats := ds.EnablePartitionCache(0).Stats()
	if stats.Hits == 0 {
		t.Errorf("shared store saw no hits across %d mixed runs: %+v", len(requests)*rounds, stats)
	}
}
