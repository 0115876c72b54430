package lattice

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"sort"
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

// keepAll is a stateless visit that keeps every node.
func keepAll(int, Node, []struct{}) (struct{}, bool) { return struct{}{}, false }

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
	RunNodes(eng, struct{}{}, func(_ int, n Node, _ []struct{}) (struct{}, bool) {
		l, x := n.Level, n.X
		if x.Len() != l {
			t.Errorf("level %d contains node %v of size %d", l, x, x.Len())
		}
		seen[x]++
		if n.Partition() == nil {
			t.Errorf("no partition for node %v at level %d", x, l)
		}
		// Immediate subsets must be resolvable for validation.
		x.ForEach(func(a int) {
			if n.Sub(a) == nil {
				t.Errorf("no partition for subset %v of %v", x.Remove(a), x)
			}
		})
		return struct{}{}, false
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

// directPartitions returns the ground truth the engine's partitions are
// checked against: Π(X) as the product of the singleton partitions of X,
// built straight from the columns. Every subset of the (small) schema is
// computed up front, so concurrent visits only read it.
func directPartitions(enc *relation.Encoded) func(x bitset.AttrSet) *partition.Partition {
	parts := make([]*partition.Partition, 1<<enc.NumCols())
	parts[0] = partition.FromConstant(enc.NumRows())
	for x := 1; x < len(parts); x++ {
		a := bits.TrailingZeros(uint(x))
		parts[x] = parts[x&(x-1)].ProductWith(partition.FromColumn(enc.Column(a), enc.Cardinality[a]), nil)
	}
	return func(x bitset.AttrSet) *partition.Partition { return parts[x] }
}

// samePartition reports whether two stripped partitions of one relation have
// the same classes, whatever their class order: every row must carry the
// same label, the smallest row of its class (-1 for a singleton).
func samePartition(p, q *partition.Partition) bool {
	label := func(p *partition.Partition) []int32 {
		l := make([]int32, p.NumRows)
		for i := range l {
			l[i] = -1
		}
		p.ForEachClass(func(cls []int32) {
			for _, row := range cls {
				l[row] = cls[0]
			}
		})
		return l
	}
	return p.NumRows == q.NumRows && slices.Equal(label(p), label(q))
}

// checkAccessors compares everything a visit can read through its Node —
// Π(X), Π(X\A) for every A ∈ X and Π(X\{A,B}) for every pair in X — with
// the direct partitions.
func checkAccessors(t *testing.T, n Node, direct func(bitset.AttrSet) *partition.Partition) {
	t.Helper()
	x := n.X
	if !samePartition(n.Partition(), direct(x)) {
		t.Errorf("node %v: Partition() = %v, want %v", x, n.Partition(), direct(x))
	}
	x.ForEach(func(a int) {
		if got, want := n.Sub(a), direct(x.Remove(a)); !samePartition(got, want) {
			t.Errorf("node %v: Sub(%d) = %v, want %v", x, a, got, want)
		}
		x.ForEach(func(b int) {
			if b == a {
				return
			}
			if got, want := n.Sub2(a, b), direct(x.Remove(a).Remove(b)); !samePartition(got, want) {
				t.Errorf("node %v: Sub2(%d, %d) = %v, want %v", x, a, b, got, want)
			}
		})
	})
}

// ViewEncodings returns encodings of one NULL-dense messy relation that a
// lattice run meets besides the default encoding: a HeadRows prefix, a
// strided SelectRows selection and an OrderSpec re-encoding whose date and
// case-insensitive collations merge values. The views' parents hold ranks
// their rows do not use, so these are the inputs on which per-rank tables
// sized by the wrong bound overrun. TestConditionalOnViewEncodings runs
// conditional discovery, a lattice per slice, over the same encodings.
func ViewEncodings(t *testing.T) map[string]*relation.Encoded {
	t.Helper()
	rel := datagen.MessyRelation(300, 5, 0.2, 2017)
	full, err := relation.Encode(rel)
	if err != nil {
		t.Fatal(err)
	}
	var strided []int
	for r := rel.NumRows() - 1; r >= 0; r -= 2 {
		strided = append(strided, r)
	}
	selected, err := full.SelectRows(strided)
	if err != nil {
		t.Fatal(err)
	}
	merging, err := relation.EncodeSpec(rel, relation.OrderSpec{
		{Direction: relation.Desc, Nulls: relation.NullsLast}, {}, {},
		{Collation: relation.CollateDate}, {Collation: relation.CollateCaseInsensitive},
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*relation.Encoded{
		"default":    full,
		"HeadRows":   full.HeadRows(170),
		"SelectRows": selected,
		"merging":    merging,
	}
}

// TestRunPartitionsMatchDirectComputation: at every node, every partition a
// visit can read through its Node must equal the ground-truth product of
// singleton partitions, at every worker count, computed afresh or served by a
// store an earlier run warmed up to level 2 (so deeper levels are derived
// from stored parents), on a default encoding and on each of ViewEncodings.
func TestRunPartitionsMatchDirectComputation(t *testing.T) {
	// The flight default keeps the subtest names it had alone.
	encs := map[string]*relation.Encoded{"": encodeFlight(t, 200, 5)}
	for name, enc := range ViewEncodings(t) {
		encs[name+"/"] = enc
	}
	for prefix, enc := range encs {
		direct := directPartitions(enc)
		for _, warm := range []bool{false, true} {
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%swarm=%v/w%d", prefix, warm, workers), func(t *testing.T) {
					var store *PartitionStore
					if warm {
						store = NewPartitionStore(0)
						pre, err := New(t.Context(), enc, Config{Workers: 1, MaxLevel: 2, Partitions: store})
						if err != nil {
							t.Fatal(err)
						}
						RunNodes(pre, struct{}{}, keepAll)
					}
					eng, err := New(t.Context(), enc, Config{Workers: workers, Partitions: store})
					if err != nil {
						t.Fatal(err)
					}
					RunNodes(eng, struct{}{}, func(_ int, n Node, _ []struct{}) (struct{}, bool) {
						checkAccessors(t, n, direct)
						return struct{}{}, false
					})
					if err := eng.Err(); err != nil {
						t.Fatalf("run failed: %v", err)
					}
					st := eng.Stats()
					if st.NodesVisited != 1<<5-1 {
						t.Errorf("visited %d nodes, want the full lattice of %d", st.NodesVisited, 1<<5-1)
					}
					if warm && (st.PartitionHits == 0 || st.PartitionMisses == 0) {
						t.Errorf("stats = %+v, want both store hits and misses", st)
					}
				})
			}
		}
	}
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
	RunNodes(eng, struct{}{}, func(_ int, n Node, _ []struct{}) (struct{}, bool) {
		x := n.X
		visited = append(visited, x)
		return struct{}{}, x == dropped
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
	RunNodes(eng, struct{}{}, func(_ int, n Node, _ []struct{}) (struct{}, bool) {
		l := n.Level
		maxSeen = max(maxSeen, l)
		return struct{}{}, false
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
	RunNodes(eng, struct{}{}, keepAll)
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
		shards := make([][]bitset.AttrSet, eng.Workers())
		RunNodes(eng, struct{}{}, func(wk int, n Node, _ []struct{}) (struct{}, bool) {
			shards[wk] = append(shards[wk], n.X)
			return struct{}{}, false
		})
		visited := slices.Concat(shards...)
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
	RunNodes(eng, struct{}{}, keepAll)
	// Exactly the empty set, 5 singletons and C(5,2)=10 pairs get partitions.
	if want := 1 + 5 + 10; store.Len() != want {
		t.Errorf("store holds %d partitions after a MaxLevel=2 run, want %d", store.Len(), want)
	}
}
