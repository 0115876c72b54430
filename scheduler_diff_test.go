package fastod_test

import (
	"context"
	"reflect"
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
