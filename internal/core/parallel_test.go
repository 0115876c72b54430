package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/lattice"
	"repro/internal/relation"
)

// Differential tests for the parallel engine: a parallel run must be
// indistinguishable from a sequential one — same sorted OD list, same counts,
// same work counters — on every dataset shape and option combination.

// assertResultsEqual compares everything about two discovery results except
// wall-clock timings.
func assertResultsEqual(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Counts != want.Counts {
		t.Errorf("%s: counts = %+v, want %+v", label, got.Counts, want.Counts)
	}
	if len(got.ODs) != len(want.ODs) {
		t.Fatalf("%s: %d ODs, want %d", label, len(got.ODs), len(want.ODs))
	}
	for i := range want.ODs {
		if !got.ODs[i].Equal(want.ODs[i]) {
			t.Fatalf("%s: OD %d = %v, want %v", label, i, got.ODs[i], want.ODs[i])
		}
	}
	if got.Stats != want.Stats {
		t.Errorf("%s: stats = %+v, want %+v", label, got.Stats, want.Stats)
	}
	if len(got.Levels) != len(want.Levels) {
		t.Fatalf("%s: %d level stats, want %d", label, len(got.Levels), len(want.Levels))
	}
	for i := range want.Levels {
		g, w := got.Levels[i], want.Levels[i]
		g.Elapsed, w.Elapsed = 0, 0
		if g != w {
			t.Errorf("%s: level stat %d = %+v, want %+v", label, i, got.Levels[i], want.Levels[i])
		}
	}
}

// differentialRelations builds the seeded datagen relations the differential
// suite runs over: varying row counts, column counts and cardinality
// profiles (constants, keys, FD chains, monotone families, random noise).
func differentialRelations(t *testing.T) map[string]*relation.Encoded {
	t.Helper()
	rels := map[string]*relation.Relation{
		"flight-2000x8":    datagen.FlightLike(2000, 8, 2017),
		"flight-300x10":    datagen.FlightLike(300, 10, 7),
		"ncvoter-1000x6":   datagen.NCVoterLike(1000, 6, 2017),
		"hepatitis-155x8":  datagen.HepatitisLike(155, 8, 2017),
		"dbtesma-500x8":    datagen.DBTesmaLike(500, 8, 2017),
		"random-200x5":     datagen.RandomRelation(200, 5, 4, 42),
		"structured-400x6": datagen.RandomStructuredRelation(400, 6, 3, 99),
	}
	out := make(map[string]*relation.Encoded, len(rels))
	for name, r := range rels {
		out[name] = encode(t, r)
	}
	return out
}

func TestParallelMatchesSequentialDifferential(t *testing.T) {
	for name, enc := range differentialRelations(t) {
		seq := discover(t, enc, Options{Workers: 1, Flags: Flags{CollectLevelStats: true}})
		par := discover(t, enc, Options{Workers: 4, Flags: Flags{CollectLevelStats: true}})
		assertResultsEqual(t, name, par, seq)
	}
}

// TestParallelWorkerCounts sweeps worker counts, including 0 (GOMAXPROCS)
// and counts exceeding the number of lattice nodes per level.
func TestParallelWorkerCounts(t *testing.T) {
	enc := encode(t, datagen.FlightLike(500, 8, 2017))
	want := discover(t, enc, Options{Workers: 1})
	for _, w := range []int{0, 2, 3, 4, 8, 64} {
		got := discover(t, enc, Options{Workers: w})
		assertResultsEqual(t, fmt.Sprintf("workers=%d", w), got, want)
	}
	// Negative values clamp to the sequential path.
	got := discover(t, enc, Options{Workers: -3})
	assertResultsEqual(t, "workers=-3", got, want)
}

// TestParallelOptionVariants runs the differential check across the engine's
// option surface: ablations, no-pruning, count-only and depth limits all must
// be worker-count invariant.
func TestParallelOptionVariants(t *testing.T) {
	enc := encode(t, datagen.FlightLike(400, 8, 2017))
	variants := map[string]Options{
		"default":           {},
		"no-pruning":        {Flags: Flags{DisablePruning: true}},
		"no-pruning-counts": {Flags: Flags{DisablePruning: true, CountOnly: true}},
		"count-only":        {Flags: Flags{CountOnly: true}},
		"no-key-pruning":    {Flags: Flags{DisableKeyPruning: true}},
		"no-node-pruning":   {Flags: Flags{DisableNodePruning: true}},
		"max-level-3":       {MaxLevel: 3, Flags: Flags{CollectLevelStats: true}},
	}
	for name, opts := range variants {
		seqOpts, parOpts := opts, opts
		seqOpts.Workers = 1
		parOpts.Workers = 4
		seq := discover(t, enc, seqOpts)
		par := discover(t, enc, parOpts)
		assertResultsEqual(t, name, par, seq)
	}
}

// TestParallelDiscoverConcurrentCallers exercises the engine's only intended
// sharing model — none: independent discoveries, each internally parallel,
// run concurrently over the same encoded relation. Run under -race this
// doubles as the data-race probe for the level-barrier design.
func TestParallelDiscoverConcurrentCallers(t *testing.T) {
	enc := encode(t, datagen.FlightLike(300, 8, 2017))
	want := discover(t, enc, Options{Workers: 1})

	const callers = 4
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := DiscoverContext(t.Context(), enc, Options{Workers: 4})
			if err != nil {
				errs <- fmt.Errorf("caller %d: %v", g, err)
				return
			}
			if res.Counts != want.Counts || len(res.ODs) != len(want.ODs) {
				errs <- fmt.Errorf("caller %d: counts %+v, want %+v", g, res.Counts, want.Counts)
				return
			}
			for i := range want.ODs {
				if !res.ODs[i].Equal(want.ODs[i]) {
					errs <- fmt.Errorf("caller %d: OD %d = %v, want %v", g, i, res.ODs[i], want.ODs[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// The parallelFor/resolveWorkers unit tests moved to internal/lattice with
// the executor itself; the tests below cover what core still owns — the
// deterministic merge of per-worker results — plus the partition store's
// cross-run behaviour as seen through Discover.

// assertSameODs compares only the discovered dependencies and counts,
// ignoring work counters — used where cache warmth legitimately changes
// Stats (PartitionHits/Misses) but must never change the output.
func assertSameODs(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Counts != want.Counts {
		t.Errorf("%s: counts = %+v, want %+v", label, got.Counts, want.Counts)
	}
	if len(got.ODs) != len(want.ODs) {
		t.Fatalf("%s: %d ODs, want %d", label, len(got.ODs), len(want.ODs))
	}
	for i := range want.ODs {
		if !got.ODs[i].Equal(want.ODs[i]) {
			t.Fatalf("%s: OD %d = %v, want %v", label, i, got.ODs[i], want.ODs[i])
		}
	}
}

// TestPartitionStoreSharedAcrossPasses exercises the Figure 6 pattern: the
// pruned and un-pruned FASTOD passes over one relation sharing a partition
// store. The second pass must reuse the first pass's partitions (measured
// cache hits) and both outputs must be identical to store-less runs.
func TestPartitionStoreSharedAcrossPasses(t *testing.T) {
	enc := encode(t, datagen.FlightLike(500, 8, 2017))
	store := lattice.NewPartitionStore(0)

	pruned, err := DiscoverContext(t.Context(), enc, Options{Workers: 1, Partitions: store})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Stats.PartitionHits != 0 {
		t.Errorf("cold pass: %d hits, want 0", pruned.Stats.PartitionHits)
	}
	if pruned.Stats.PartitionMisses == 0 {
		t.Error("cold pass recorded no misses")
	}
	assertSameODs(t, "pruned+store", pruned, discover(t, enc, Options{Workers: 1}))

	unpruned, err := DiscoverContext(t.Context(), enc, Options{Workers: 4, Partitions: store, Flags: Flags{DisablePruning: true, CountOnly: true}})
	if err != nil {
		t.Fatal(err)
	}
	if unpruned.Stats.PartitionHits == 0 {
		t.Error("un-pruned pass over a shared store recorded no cache hits")
	}
	noStore := discover(t, enc, Options{Workers: 1, Flags: Flags{DisablePruning: true, CountOnly: true}})
	if unpruned.Counts != noStore.Counts {
		t.Errorf("un-pruned counts with store = %+v, want %+v", unpruned.Counts, noStore.Counts)
	}

	st := store.Stats()
	if st.Hits != pruned.Stats.PartitionHits+unpruned.Stats.PartitionHits {
		t.Errorf("store hits = %d, want %d", st.Hits, pruned.Stats.PartitionHits+unpruned.Stats.PartitionHits)
	}
	if st.Misses != pruned.Stats.PartitionMisses+unpruned.Stats.PartitionMisses {
		t.Errorf("store misses = %d, want %d", st.Misses, pruned.Stats.PartitionMisses+unpruned.Stats.PartitionMisses)
	}
}

// TestPartitionStoreRepeatedDiscover: a second identical run over a warm
// store must compute no partitions at all and still produce identical output
// — the advisor's repeated-Discover pattern.
func TestPartitionStoreRepeatedDiscover(t *testing.T) {
	enc := encode(t, datagen.FlightLike(400, 8, 2017))
	store := lattice.NewPartitionStore(0)
	first, err := DiscoverContext(t.Context(), enc, Options{Workers: 1, Partitions: store})
	if err != nil {
		t.Fatal(err)
	}
	second, err := DiscoverContext(t.Context(), enc, Options{Workers: 1, Partitions: store})
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.PartitionMisses != 0 {
		t.Errorf("warm run: %d misses, want 0", second.Stats.PartitionMisses)
	}
	if second.Stats.PartitionHits != first.Stats.PartitionMisses {
		t.Errorf("warm run: %d hits, want %d", second.Stats.PartitionHits, first.Stats.PartitionMisses)
	}
	assertSameODs(t, "warm", second, first)
}

// TestPartitionStoreBoundedDiscover: a store far too small for the lattice
// must evict rather than grow, and must not perturb the output.
func TestPartitionStoreBoundedDiscover(t *testing.T) {
	enc := encode(t, datagen.FlightLike(300, 8, 2017))
	store := lattice.NewPartitionStore(2048) // a handful of 300-row partitions
	res, err := DiscoverContext(t.Context(), enc, Options{Workers: 1, Partitions: store})
	if err != nil {
		t.Fatal(err)
	}
	assertSameODs(t, "bounded", res, discover(t, enc, Options{Workers: 1}))
	st := store.Stats()
	if st.Cost > st.MaxCost {
		t.Errorf("store cost %d exceeds bound %d", st.Cost, st.MaxCost)
	}
	if st.Evictions == 0 {
		t.Error("undersized store recorded no evictions")
	}
}
