package fastod_test

import (
	"context"
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"

	fastod "repro"
)

// --- Differential tests: the lattice traversal must produce byte-identical ---
// --- reports at every worker count, for every algorithm. Only wall-clock  ---
// --- fields may differ between runs.                                      ---

// zeroReportTimings clears every wall-clock field of a report in place so two
// runs can be compared with reflect.DeepEqual: timing is the only thing a
// worker count is allowed to change. Report.Elapsed is the run's one clock;
// FASTOD payloads (and the conditional algorithm's global pass) add the
// per-level clocks of Figure 7.
func zeroReportTimings(rep *fastod.Report) {
	rep.Elapsed = 0
	var levels []fastod.LevelStat
	switch {
	case rep.FASTOD != nil:
		levels = rep.FASTOD.Levels
	case rep.Conditional != nil:
		levels = rep.Conditional.Global.Levels
	}
	for i := range levels {
		levels[i].Elapsed = 0
	}
}

// schedulerDiffRequests covers all six algorithms, including a FASTOD ablation
// (no pruning, count-only) whose node set differs radically from the default
// run. ORDER ignores the worker count; it rides along to prove the plumbing
// does not disturb it.
func schedulerDiffRequests() map[string]fastod.Request {
	return map[string]fastod.Request{
		"fastod": {Algorithm: fastod.AlgorithmFASTOD,
			FASTOD: fastod.FASTODRunOptions{CollectLevelStats: true}},
		"fastod-nopruning": {Algorithm: fastod.AlgorithmFASTOD,
			FASTOD: fastod.FASTODRunOptions{DisablePruning: true, CountOnly: true}},
		"tane":   {Algorithm: fastod.AlgorithmTANE},
		"approx": {Algorithm: fastod.AlgorithmApprox, Approx: fastod.ApproxRunOptions{Threshold: 0.05}},
		"bidir":  {Algorithm: fastod.AlgorithmBidirectional},
		"conditional": {Algorithm: fastod.AlgorithmConditional,
			Conditional: fastod.ConditionalRunOptions{MaxConditionCardinality: 8}},
		"order": {Algorithm: fastod.AlgorithmORDER, RunOptions: fastod.RunOptions{MaxLevel: 3}},
	}
}

func TestSchedulerDifferential(t *testing.T) {
	ds := fastod.SyntheticFlight(200, 6, 2017)
	for name, base := range schedulerDiffRequests() {
		t.Run(name, func(t *testing.T) {
			var ref *fastod.Report
			for _, workers := range []int{1, 2, 4} {
				req := base
				req.Workers = workers
				rep, err := ds.Run(context.Background(), req)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if rep.Interrupted {
					t.Fatalf("workers=%d: unbudgeted run interrupted", workers)
				}
				zeroReportTimings(rep)
				if ref == nil {
					ref = rep
					continue
				}
				if !reflect.DeepEqual(ref, rep) {
					t.Errorf("workers=%d: report differs from workers=1\n got: %+v\nwant: %+v", workers, rep, ref)
				}
			}
		})
	}
}

// TestSchedulerDifferentialOrderSpecs repeats the full six-algorithm
// differential under a non-default order spec: direction, NULL placement and
// collation overrides must not introduce any worker-dependence.
// Every run re-encodes through the dataset's spec cache, so this also
// exercises concurrent-ish reuse of one cached spec encoding across runs.
func TestSchedulerDifferentialOrderSpecs(t *testing.T) {
	ds := fastod.SyntheticFlight(200, 6, 2017)
	specs := []fastod.AttrOrder{
		{Column: "dep_time_4", Direction: fastod.OrderDesc, Nulls: fastod.NullsLast},
		{Column: "carrier_name_3", Collation: fastod.CollateCaseInsen},
	}
	for name, base := range schedulerDiffRequests() {
		t.Run(name, func(t *testing.T) {
			var ref *fastod.Report
			for _, workers := range []int{1, 2, 4} {
				req := base
				req.Workers = workers
				req.OrderSpecs = specs
				rep, err := ds.Run(context.Background(), req)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if rep.Interrupted {
					t.Fatalf("workers=%d: unbudgeted run interrupted", workers)
				}
				zeroReportTimings(rep)
				if ref == nil {
					ref = rep
					continue
				}
				if !reflect.DeepEqual(ref, rep) {
					t.Errorf("workers=%d: spec-encoded report differs from workers=1\n got: %+v\nwant: %+v", workers, rep, ref)
				}
			}
		})
	}
}

// zeroStoreCounters clears a report's partition store hits and misses in
// place. They depend on what earlier runs left in the store; nothing else in
// a report may.
func zeroStoreCounters(rep *fastod.Report) {
	stats := []*fastod.RunStats{&rep.Stats}
	switch {
	case rep.FASTOD != nil:
		stats = append(stats, &rep.FASTOD.Stats.Stats)
	case rep.TANE != nil:
		stats = append(stats, &rep.TANE.Stats)
	case rep.Approx != nil:
		stats = append(stats, &rep.Approx.Stats)
	case rep.Bidir != nil:
		stats = append(stats, &rep.Bidir.Stats)
	case rep.Conditional != nil:
		stats = append(stats, &rep.Conditional.Stats, &rep.Conditional.Global.Stats.Stats)
	}
	for _, s := range stats {
		s.PartitionHits, s.PartitionMisses = 0, 0
	}
}

// TestSharedStoreSpecDifferential: every order spec reads and fills the
// dataset's one partition store, which files partitions by equality
// signature. Runs under specs that merge values and specs that do not, in
// either order, on a store small enough to evict mid-run, must report
// exactly what the same request reports on a fresh dataset without a store.
func TestSharedStoreSpecDifferential(t *testing.T) {
	newDataset := func() *fastod.Dataset { return fastod.SyntheticMessy(300, 7, 0.2, 11) }
	type spec struct {
		name   string
		orders []fastod.AttrOrder
		merges bool
	}
	ci := fastod.AttrOrder{Column: "m2_str", Collation: fastod.CollateCaseInsen}
	ciDesc := ci
	ciDesc.Direction = fastod.OrderDesc
	specs := []spec{
		{"default", nil, false},
		{"m0 desc nulls last", []fastod.AttrOrder{{Column: "m0_int", Direction: fastod.OrderDesc, Nulls: fastod.NullsLast}}, false},
		{"m2 ci", []fastod.AttrOrder{ci}, true},
		// The same signature as "m2 ci", ranked the other way.
		{"m2 ci desc", []fastod.AttrOrder{ciDesc}, true},
		{"m1 numeric, m2 ci", []fastod.AttrOrder{{Column: "m1_float", Collation: fastod.CollateNumeric}, ci}, true},
		{"m4 date", []fastod.AttrOrder{{Column: "m4_mixdate", Collation: fastod.CollateDate}}, true},
	}
	var merging, plain []spec
	for _, sp := range specs {
		if sp.merges {
			merging = append(merging, sp)
		} else {
			plain = append(plain, sp)
		}
	}
	sequences := []struct {
		name  string
		specs []spec
	}{{"default first", specs}, {"merging first", append(merging, plain...)}}

	run := func(ds *fastod.Dataset, req fastod.Request) *fastod.Report {
		t.Helper()
		rep, err := ds.Run(t.Context(), req)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		zeroReportTimings(rep)
		zeroStoreCounters(rep)
		return rep
	}
	requests := schedulerDiffRequests()
	names := slices.Sorted(maps.Keys(requests))
	fresh := newDataset()
	base, err := fresh.SpecEncoded(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]*fastod.Report)
	for _, sp := range specs {
		enc, err := fresh.SpecEncoded(sp.orders)
		if err != nil {
			t.Fatal(err)
		}
		merged := false
		for c, n := range enc.Cardinality {
			merged = merged || n < base.Cardinality[c]
		}
		if merged != sp.merges {
			t.Fatalf("%s: lowers a cardinality = %v, want %v (cardinalities %v, default %v)", sp.name, merged, sp.merges, enc.Cardinality, base.Cardinality)
		}
		for _, name := range names {
			req := requests[name]
			req.Workers = 1
			req.OrderSpecs = sp.orders
			want[sp.name+"/"+name] = run(fresh, req)
		}
	}

	for _, seq := range sequences {
		for _, bound := range []int{0, 4 << 10} {
			ds := newDataset()
			ds.EnablePartitionCache(bound)
			for _, sp := range seq.specs {
				for _, name := range names {
					for _, workers := range []int{1, 4} {
						req := requests[name]
						req.Workers = workers
						req.OrderSpecs = sp.orders
						if got, w := run(ds, req), want[sp.name+"/"+name]; !reflect.DeepEqual(got, w) {
							t.Errorf("%s, bound %d, %s, %s, workers=%d: report differs from a run without a store\n got: %s\nwant: %s",
								seq.name, bound, sp.name, name, workers, renderReport(got), renderReport(w))
						}
					}
				}
			}
		}
	}
}

// TestSchedulerDifferentialSecondShape repeats the core differential on a
// dataset with a different correlation shape, so an ordering bug that happens
// to be invisible on one generator still has a second chance to surface.
func TestSchedulerDifferentialSecondShape(t *testing.T) {
	ds := fastod.SyntheticNCVoter(150, 7, 41)
	for _, alg := range []fastod.Algorithm{fastod.AlgorithmFASTOD, fastod.AlgorithmBidirectional} {
		var ref *fastod.Report
		for _, workers := range []int{1, 2, 4} {
			rep, err := ds.Run(context.Background(), fastod.Request{
				Algorithm:  alg,
				RunOptions: fastod.RunOptions{Workers: workers},
			})
			if err != nil {
				t.Fatal(err)
			}
			zeroReportTimings(rep)
			if ref == nil {
				ref = rep
				continue
			}
			if !reflect.DeepEqual(ref, rep) {
				t.Errorf("%s workers=%d: report differs from workers=1", alg, workers)
			}
		}
	}
}

// TestSchedulerSharedStoreRace runs parallel traversals concurrently against
// one dataset partition store across several algorithms. Under -race this is
// the end-to-end data-race canary for the engine's store-first generation;
// without -race it still asserts every run agrees with an uncontended one.
func TestSchedulerSharedStoreRace(t *testing.T) {
	ds := fastod.SyntheticFlight(120, 5, 7)
	ds.EnablePartitionCache(0)
	baseline, err := ds.Run(context.Background(), fastod.Request{})
	if err != nil {
		t.Fatal(err)
	}
	algs := []fastod.Algorithm{
		fastod.AlgorithmFASTOD, fastod.AlgorithmTANE,
		fastod.AlgorithmApprox, fastod.AlgorithmBidirectional,
	}
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := fastod.Request{
				Algorithm:  algs[i%len(algs)],
				RunOptions: fastod.RunOptions{Workers: 2},
			}
			rep, err := ds.Run(context.Background(), req)
			if err != nil {
				t.Errorf("goroutine %d (%s): %v", i, req.Algorithm, err)
				return
			}
			if req.Algorithm == fastod.AlgorithmFASTOD {
				if got, want := rep.FASTOD.Counts, baseline.FASTOD.Counts; got != want {
					t.Errorf("goroutine %d: counts %+v differ from uncontended baseline %+v", i, got, want)
				}
			}
		}(i)
	}
	wg.Wait()
}
