package fastod_test

import (
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"

	fastod "repro"
	"repro/internal/relation"
)

// TestEnablePartitionCacheSharedAcrossAlgorithms: once a dataset carries a
// partition cache, every discovery flavour — FASTOD, TANE, approximate,
// bidirectional — reuses the partitions earlier runs computed, and the
// outputs stay identical to uncached runs.
func TestEnablePartitionCacheSharedAcrossAlgorithms(t *testing.T) {
	cached := fastod.SyntheticFlight(400, 7, 2017)
	plain := fastod.SyntheticFlight(400, 7, 2017)
	store := cached.EnablePartitionCache(0)
	run := func(ds *fastod.Dataset, req fastod.Request) *fastod.Report {
		t.Helper()
		rep, err := ds.Run(t.Context(), req)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	seq := fastod.RunOptions{Workers: 1}

	resC := run(cached, fastod.Request{RunOptions: seq}).FASTOD
	resP := run(plain, fastod.Request{RunOptions: seq}).FASTOD
	if resC.Counts != resP.Counts || len(resC.ODs) != len(resP.ODs) {
		t.Fatalf("cached counts %+v, want %+v", resC.Counts, resP.Counts)
	}
	for i := range resP.ODs {
		if !resC.ODs[i].Equal(resP.ODs[i]) {
			t.Fatalf("OD %d = %v, want %v", i, resC.ODs[i], resP.ODs[i])
		}
	}
	if resP.Stats.PartitionHits != 0 || resP.Stats.PartitionMisses != 0 {
		t.Errorf("uncached dataset recorded store traffic: %+v", resP.Stats)
	}
	afterFASTOD := store.Stats()
	if afterFASTOD.Puts == 0 {
		t.Fatal("FASTOD run stored no partitions")
	}

	// TANE prunes less aggressively than FASTOD, but every singleton and the
	// shared lattice prefix must come from the cache.
	fds := run(cached, fastod.Request{Algorithm: fastod.AlgorithmTANE, RunOptions: fastod.RunOptions{Workers: 4}}).TANE
	fdsPlain := run(plain, fastod.Request{Algorithm: fastod.AlgorithmTANE}).TANE
	if len(fds.FDs) != len(fdsPlain.FDs) {
		t.Fatalf("cached TANE found %d FDs, uncached %d", len(fds.FDs), len(fdsPlain.FDs))
	}
	afterTANE := store.Stats()
	if afterTANE.Hits <= afterFASTOD.Hits {
		t.Errorf("TANE run over the warm cache recorded no hits (before %d, after %d)", afterFASTOD.Hits, afterTANE.Hits)
	}

	// Approximate and bidirectional discovery ride the same cache.
	apx := run(cached, fastod.Request{Algorithm: fastod.AlgorithmApprox}).Approx
	apxPlain := run(plain, fastod.Request{Algorithm: fastod.AlgorithmApprox}).Approx
	if len(apx.ODs) != len(apxPlain.ODs) {
		t.Fatalf("cached approx found %d ODs, uncached %d", len(apx.ODs), len(apxPlain.ODs))
	}
	bid := run(cached, fastod.Request{Algorithm: fastod.AlgorithmBidirectional, RunOptions: fastod.RunOptions{Workers: 2}}).Bidir
	bidPlain := run(plain, fastod.Request{Algorithm: fastod.AlgorithmBidirectional}).Bidir
	if len(bid.ODs) != len(bidPlain.ODs) {
		t.Fatalf("cached bidir found %d ODs, uncached %d", len(bid.ODs), len(bidPlain.ODs))
	}
	final := store.Stats()
	if final.Hits <= afterTANE.Hits {
		t.Errorf("extension runs recorded no additional hits (before %d, after %d)", afterTANE.Hits, final.Hits)
	}
	if final.Cost > final.MaxCost {
		t.Errorf("store cost %d exceeds bound %d", final.Cost, final.MaxCost)
	}

	// A second FASTOD run over the fully warmed cache computes nothing.
	again := run(cached, fastod.Request{RunOptions: seq}).FASTOD
	if again.Stats.PartitionMisses != 0 {
		t.Errorf("warm FASTOD re-run recorded %d misses, want 0", again.Stats.PartitionMisses)
	}
	if again.Stats.PartitionHits == 0 {
		t.Error("warm FASTOD re-run recorded no hits")
	}
}

// TestFirstSpecRunOnWarmStore: every order spec reads the dataset's one
// partition store. Once a default run has filled it with the whole lattice,
// the first run of each lattice algorithm under a spec that merges no values
// computes nothing and adds no entry, however early the spec was encoded. A
// spec that merges values files its partitions apart: its first run misses,
// its second does not.
func TestFirstSpecRunOnWarmStore(t *testing.T) {
	fill := fastod.Request{
		RunOptions: fastod.RunOptions{Workers: 1},
		FASTOD:     fastod.FASTODRunOptions{DisablePruning: true, CountOnly: true},
	}
	requests := map[string]fastod.Request{
		"fastod":      {},
		"tane":        {Algorithm: fastod.AlgorithmTANE},
		"approx":      {Algorithm: fastod.AlgorithmApprox, Approx: fastod.ApproxRunOptions{Threshold: 0.05}},
		"bidir":       {Algorithm: fastod.AlgorithmBidirectional},
		"conditional": {Algorithm: fastod.AlgorithmConditional},
	}
	run := func(t *testing.T, ds *fastod.Dataset, req fastod.Request) fastod.RunStats {
		t.Helper()
		rep, err := ds.Run(t.Context(), req)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Stats
	}
	// warm enables the dataset's store and fills it with every partition of
	// the default lattice; it returns the store and its entry count.
	warm := func(t *testing.T, ds *fastod.Dataset) (*fastod.PartitionStore, int) {
		t.Helper()
		store := ds.EnablePartitionCache(0)
		run(t, ds, fill)
		if want := 1 << ds.NumCols(); store.Len() != want {
			t.Fatalf("the filling run left %d entries, want the whole lattice's %d", store.Len(), want)
		}
		return store, store.Len()
	}
	desc := []fastod.AttrOrder{{Column: "flight_sk", Direction: fastod.OrderDesc}}
	firstRuns := func(t *testing.T, ds *fastod.Dataset) {
		t.Helper()
		store, entries := warm(t, ds)
		for _, name := range slices.Sorted(maps.Keys(requests)) {
			req := requests[name]
			req.Workers = 1
			req.OrderSpecs = desc
			st := run(t, ds, req)
			if st.PartitionMisses != 0 || st.PartitionHits == 0 {
				t.Errorf("%s: first run under %v recorded %d hits and %d misses, want hits and no miss", name, desc, st.PartitionHits, st.PartitionMisses)
			}
			if store.Len() != entries {
				t.Errorf("%s: first run under %v took the store from %d to %d entries", name, desc, entries, store.Len())
			}
		}
	}

	t.Run("non-merging spec", func(t *testing.T) {
		firstRuns(t, fastod.SyntheticFlight(2000, 8, 7))
	})
	t.Run("enabled after encoding", func(t *testing.T) {
		ds := fastod.SyntheticFlight(2000, 8, 7)
		if _, err := ds.SpecEncoded(desc); err != nil {
			t.Fatal(err)
		}
		firstRuns(t, ds)
	})
	t.Run("merging spec", func(t *testing.T) {
		ds := fastod.SyntheticMessy(2000, 8, 0.2, 7)
		warm(t, ds)
		req := fastod.Request{RunOptions: fastod.RunOptions{Workers: 1,
			OrderSpecs: []fastod.AttrOrder{{Column: "m2_str", Collation: fastod.CollateCaseInsen}}}}
		if st := run(t, ds, req); st.PartitionMisses == 0 {
			t.Errorf("first run under a merging spec recorded no misses (%d hits)", st.PartitionHits)
		}
		if st := run(t, ds, req); st.PartitionMisses != 0 || st.PartitionHits == 0 {
			t.Errorf("second run under a merging spec recorded %d hits and %d misses, want hits and no miss", st.PartitionHits, st.PartitionMisses)
		}
	})
}

// TestConcurrentFirstSpecRun: runs that race to encode the same new order
// spec end up on one resident encoding, sharing the dataset's store. Half the
// goroutines ask for the encoding before running, half after, so both
// SpecEncoded and Run meet the encode race; every caller must get the
// resident encoding, and every report must list the same dependencies.
func TestConcurrentFirstSpecRun(t *testing.T) {
	const callers = 8
	spec := []fastod.AttrOrder{{Column: "dep_time_4", Direction: fastod.OrderDesc, Nulls: fastod.NullsLast}}
	req := fastod.Request{RunOptions: fastod.RunOptions{Workers: 2, OrderSpecs: spec}}
	want, err := fastod.SyntheticFlight(1000, 6, 2017).Run(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}

	ds := fastod.SyntheticFlight(1000, 6, 2017)
	ds.EnablePartitionCache(0)
	reps := make([]*fastod.Report, callers)
	encs := make([]*relation.Encoded, callers)
	errs := make([]error, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range callers {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			if i%2 == 0 {
				if encs[i], errs[i] = ds.SpecEncoded(spec); errs[i] != nil {
					return
				}
				reps[i], errs[i] = ds.Run(t.Context(), req)
				return
			}
			if reps[i], errs[i] = ds.Run(t.Context(), req); errs[i] != nil {
				return
			}
			encs[i], errs[i] = ds.SpecEncoded(spec)
		}(i)
	}
	start.Done()
	done.Wait()

	resident, err := ds.SpecEncoded(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range callers {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if encs[i] != resident {
			t.Errorf("caller %d got a spec encoding other than the resident one", i)
		}
		if got := reps[i].FASTOD; !reflect.DeepEqual(got.ODs, want.FASTOD.ODs) || got.Counts != want.FASTOD.Counts {
			t.Errorf("caller %d: %v dependencies, uncached run %v", i, got.Counts, want.FASTOD.Counts)
		}
	}
	if n, _ := ds.SpecEncodingCacheStats(); n != 1 {
		t.Errorf("spec cache holds %d encodings, want 1", n)
	}
	again, err := ds.Run(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.PartitionMisses != 0 {
		t.Errorf("run after the race recorded %d partition misses, want 0 (the dataset's store)", again.Stats.PartitionMisses)
	}
}
