package lattice

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/datagen"
	"repro/internal/partition"
	"repro/internal/relation"
)

func encodeFlight(t *testing.T, rows, cols int) *relation.Encoded {
	t.Helper()
	enc, err := relation.Encode(datagen.FlightLike(rows, cols, 2017))
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestNewValidation(t *testing.T) {
	if _, err := New(t.Context(), nil, Config{}); err == nil {
		t.Error("nil relation must be rejected")
	}
	if _, err := New(t.Context(), &relation.Encoded{}, Config{}); err == nil {
		t.Error("zero-column relation must be rejected")
	}
}

// TestStoreBoundToOneRelation: reusing a store for a different relation —
// even one with the same row count, which the per-partition defense cannot
// tell apart — must fail loudly at engine construction instead of silently
// serving the wrong partitions.
func TestStoreBoundToOneRelation(t *testing.T) {
	encA := encodeFlight(t, 200, 5)
	encB, err := relation.Encode(datagen.NCVoterLike(200, 5, 7)) // same rows, different data
	if err != nil {
		t.Fatal(err)
	}
	store := NewPartitionStore(0)
	if _, err := New(t.Context(), encA, Config{Workers: 1, Partitions: store}); err != nil {
		t.Fatalf("first bind: %v", err)
	}
	if _, err := New(t.Context(), encA, Config{Workers: 1, Partitions: store}); err != nil {
		t.Fatalf("rebind to the same relation: %v", err)
	}
	if _, err := New(t.Context(), encB, Config{Workers: 1, Partitions: store}); err == nil {
		t.Fatal("binding the store to a second relation must fail")
	}
}

// keepAll is a NodeVisit that keeps every node.
func keepAll(_, _ int, _ bitset.AttrSet, _ []any) (any, bool) { return nil, false }

// TestRunEnumeratesFullLattice: a visit that keeps every node must see every
// non-empty subset of the schema exactly once, at its level, with the
// partitions of the node and its immediate subsets available.
func TestRunEnumeratesFullLattice(t *testing.T) {
	const cols = 5
	enc := encodeFlight(t, 100, cols)
	eng, err := New(t.Context(), enc, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[bitset.AttrSet]int)
	eng.RunNodes(nil, func(_, l int, x bitset.AttrSet, _ []any) (any, bool) {
		if x.Len() != l {
			t.Errorf("level %d contains node %v of size %d", l, x, x.Len())
		}
		seen[x]++
		if eng.Partition(x) == nil {
			t.Errorf("no partition for node %v at level %d", x, l)
		}
		// Immediate subsets must be resolvable for validation.
		x.ForEach(func(a int) {
			if eng.Partition(x.Remove(a)) == nil {
				t.Errorf("no partition for subset %v of %v", x.Remove(a), x)
			}
		})
		return nil, false
	})
	if want := (1 << cols) - 1; len(seen) != want {
		t.Fatalf("visited %d distinct nodes, want %d", len(seen), want)
	}
	for x, n := range seen {
		if n != 1 {
			t.Errorf("node %v visited %d times", x, n)
		}
	}
	st := eng.Stats()
	if st.NodesVisited != (1<<cols)-1 {
		t.Errorf("NodesVisited = %d, want %d", st.NodesVisited, (1<<cols)-1)
	}
	if st.MaxLevelReached != cols {
		t.Errorf("MaxLevelReached = %d, want %d", st.MaxLevelReached, cols)
	}
}

// TestRunPartitionsMatchDirectComputation: partitions handed out by the
// engine must equal the ground-truth product of singleton partitions.
func TestRunPartitionsMatchDirectComputation(t *testing.T) {
	enc := encodeFlight(t, 200, 4)
	eng, err := New(t.Context(), enc, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	direct := func(x bitset.AttrSet) *partition.Partition {
		p := partition.FromConstant(enc.NumRows())
		x.ForEach(func(a int) {
			p = partition.Product(p, partition.FromColumn(enc.Column(a), enc.Cardinality[a]))
		})
		return p
	}
	eng.RunNodes(nil, func(_, _ int, x bitset.AttrSet, _ []any) (any, bool) {
		got, want := eng.Partition(x), direct(x)
		if got.Error() != want.Error() || got.NumClasses() != want.NumClasses() || got.Size() != want.Size() {
			t.Errorf("partition of %v = %v, want %v", x, got, want)
		}
		return nil, false
	})
}

// TestRunPruningStopsGeneration: nodes pruned by the visit callback must not
// generate supersets, and supersets with a missing immediate subset must not
// be generated either.
func TestRunPruningStopsGeneration(t *testing.T) {
	enc := encodeFlight(t, 100, 5)
	eng, err := New(t.Context(), enc, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	dropped := bitset.NewAttrSet(0)
	var visited []bitset.AttrSet
	eng.RunNodes(nil, func(_, _ int, x bitset.AttrSet, _ []any) (any, bool) {
		visited = append(visited, x)
		return nil, x == dropped
	})
	for _, x := range visited {
		if x != dropped && x.Contains(0) && x.Len() > 1 {
			t.Errorf("superset %v of the dropped node was generated", x)
		}
	}
	// 1 dropped singleton + the full lattice over the remaining 4 attributes.
	if want := 5 + (1<<4 - 1) - 4; len(visited) != want {
		t.Errorf("visited %d nodes, want %d", len(visited), want)
	}
}

func TestRunMaxLevel(t *testing.T) {
	enc := encodeFlight(t, 100, 5)
	eng, err := New(t.Context(), enc, Config{Workers: 1, MaxLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	maxSeen := 0
	eng.RunNodes(nil, func(_, l int, _ bitset.AttrSet, _ []any) (any, bool) {
		maxSeen = max(maxSeen, l)
		return nil, false
	})
	if maxSeen != 2 {
		t.Errorf("deepest visited level = %d, want 2", maxSeen)
	}
	if eng.Stats().MaxLevelReached != 2 {
		t.Errorf("MaxLevelReached = %d, want 2", eng.Stats().MaxLevelReached)
	}
}

// TestRunOnLevelEnd: the hook fires once per processed level, in order.
func TestRunOnLevelEnd(t *testing.T) {
	enc := encodeFlight(t, 100, 4)
	var ended []int
	eng, err := New(t.Context(), enc, Config{Workers: 1, OnLevelEnd: func(l int, _ time.Duration) { ended = append(ended, l) }})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunNodes(nil, keepAll)
	if len(ended) != 4 {
		t.Fatalf("OnLevelEnd fired %d times, want 4", len(ended))
	}
	for i, l := range ended {
		if l != i+1 {
			t.Errorf("OnLevelEnd order = %v", ended)
			break
		}
	}
}

// TestWorkerInvariance: the engine's traversal (node sets per level, stats,
// store interactions) must be identical across worker counts.
func TestWorkerInvariance(t *testing.T) {
	enc := encodeFlight(t, 300, 6)
	trace := func(w int) ([]bitset.AttrSet, Stats) {
		eng, err := New(t.Context(), enc, Config{Workers: w, Partitions: NewPartitionStore(0)})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var visited []bitset.AttrSet
		eng.RunNodes(nil, func(_, _ int, x bitset.AttrSet, _ []any) (any, bool) {
			mu.Lock()
			visited = append(visited, x)
			mu.Unlock()
			return nil, false
		})
		// Levels are visited in order; within a level the visit order is up
		// to the workers, so compare each level as a sorted set.
		sort.Slice(visited, func(i, j int) bool {
			if li, lj := visited[i].Len(), visited[j].Len(); li != lj {
				return li < lj
			}
			return visited[i] < visited[j]
		})
		return visited, eng.Stats()
	}
	seqNodes, seqStats := trace(1)
	for _, w := range []int{2, 4, 0} {
		nodes, stats := trace(w)
		if !reflect.DeepEqual(nodes, seqNodes) {
			t.Fatalf("workers=%d: visited %d nodes, sequential run %d; node sets differ", w, len(nodes), len(seqNodes))
		}
		if stats != seqStats {
			t.Errorf("workers=%d: stats = %+v, want %+v", w, stats, seqStats)
		}
	}
}

// TestRunMaxLevelSkipsFinalGeneration: the products of level MaxLevel+1 are
// never visited and must not be computed (visible through store traffic).
func TestRunMaxLevelSkipsFinalGeneration(t *testing.T) {
	enc := encodeFlight(t, 100, 5)
	store := NewPartitionStore(0)
	eng, err := New(t.Context(), enc, Config{Workers: 1, MaxLevel: 2, Partitions: store})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunNodes(nil, keepAll)
	// Exactly the empty set, 5 singletons and C(5,2)=10 pairs get partitions.
	if want := 1 + 5 + 10; store.Len() != want {
		t.Errorf("store holds %d partitions after a MaxLevel=2 run, want %d", store.Len(), want)
	}
}
