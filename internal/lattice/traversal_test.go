package lattice

import (
	"fmt"
	"math/bits"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bitset"
)

// aprioriOracle enumerates the nodes a level-wise apriori traversal over
// numAttrs attributes must visit, independently of the engine: a singleton is
// always visited, and a larger set is visited exactly when every immediate
// subset was visited and none of them was pruned. It works on raw bit masks,
// visiting the masks in increasing size, and returns each visited node's
// level and the deps RunNodes must hand it when every node's result is the
// node itself: the immediate subsets in ascending order of the removed
// attribute, or the root for a singleton.
func aprioriOracle(numAttrs int, root uint64, prune func(x uint64) bool) (levels map[uint64]int, deps map[uint64][]uint64) {
	levels = make(map[uint64]int)
	deps = make(map[uint64][]uint64)
	bySize := make([][]uint64, numAttrs+1)
	for x := uint64(1); x < 1<<numAttrs; x++ {
		n := bits.OnesCount64(x)
		bySize[n] = append(bySize[n], x)
	}
	for size := 1; size <= numAttrs; size++ {
		for _, x := range bySize[size] {
			var d []uint64
			reachable := true
			for a := 0; a < numAttrs; a++ {
				if x&(1<<a) == 0 {
					continue
				}
				sub := x &^ (1 << a)
				if size > 1 {
					if _, ok := levels[sub]; !ok || prune(sub) {
						reachable = false
						break
					}
				}
				d = append(d, sub)
			}
			if !reachable {
				continue
			}
			if size == 1 {
				d = []uint64{root}
			}
			levels[x] = size
			deps[x] = d
		}
	}
	return levels, deps
}

// TestRunNodesSchedulerDifferential: RunNodes must visit exactly the nodes
// the apriori oracle enumerates — same node set, same levels, same deps — at
// every worker count, with and without pruning, and serve every visited
// node's partition and those of its immediate subsets.
func TestRunNodesSchedulerDifferential(t *testing.T) {
	const cols = 6
	enc := encodeFlight(t, 80, cols)
	rules := map[string]func(x uint64) bool{
		"no-pruning": func(uint64) bool { return false },
		// Every node holding attributes 0 and 1, plus one level-3 node, so
		// the closure is exercised at two depths.
		"pruning": func(x uint64) bool { return x&0b11 == 0b11 || x == 0b11100 },
	}
	for name, prune := range rules {
		const root = 1 << 63 // no lattice node over six attributes
		wantLevels, wantDeps := aprioriOracle(cols, root, prune)
		if name == "pruning" && len(wantLevels) >= 1<<cols-1 {
			t.Fatalf("%s: the oracle prunes nothing", name)
		}
		wantMax := 0
		for _, l := range wantLevels {
			wantMax = max(wantMax, l)
		}
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/w%d", name, workers), func(t *testing.T) {
				eng, err := New(t.Context(), enc, Config{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				var mu sync.Mutex
				gotLevels := make(map[uint64]int)
				gotDeps := make(map[uint64][]uint64)
				eng.RunNodes(bitset.AttrSet(root), func(_, l int, x bitset.AttrSet, deps []any) (any, bool) {
					d := make([]uint64, len(deps))
					for k, r := range deps {
						d[k] = uint64(r.(bitset.AttrSet))
					}
					if eng.Partition(x) == nil {
						t.Errorf("node %v: no partition served", x)
					}
					x.ForEach(func(a int) {
						if eng.Partition(x.Remove(a)) == nil {
							t.Errorf("node %v: no partition for subset %v", x, x.Remove(a))
						}
					})
					mu.Lock()
					defer mu.Unlock()
					if old, dup := gotLevels[uint64(x)]; dup {
						t.Errorf("node %v visited twice (levels %d and %d)", x, old, l)
					}
					gotLevels[uint64(x)] = l
					gotDeps[uint64(x)] = d
					return x, prune(uint64(x))
				})
				if !reflect.DeepEqual(gotLevels, wantLevels) {
					t.Errorf("visited %d nodes, oracle %d; node->level maps differ", len(gotLevels), len(wantLevels))
				}
				if !reflect.DeepEqual(gotDeps, wantDeps) {
					t.Error("deps differ from the oracle's immediate subsets")
				}
				st := eng.Stats()
				if st.NodesVisited != len(wantLevels) || st.MaxLevelReached != wantMax || st.Interrupted {
					t.Errorf("stats = %+v, want %d nodes, max level %d, not interrupted", st, len(wantLevels), wantMax)
				}
			})
		}
	}
}

// TestSchedulerSharedStoreStress: engines hammering one PartitionStore
// concurrently at 1, 2 and 4 workers must all complete the full traversal.
// Run under -race this is the engine's data-race canary for shared stores.
func TestSchedulerSharedStoreStress(t *testing.T) {
	enc := encodeFlight(t, 60, 5)
	store := NewPartitionStore(1 << 20)
	workerCounts := []int{1, 2, 4}
	var wg sync.WaitGroup
	results := make([]int, 9)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eng, err := New(t.Context(), enc, Config{Workers: workerCounts[i%len(workerCounts)], Partitions: store})
			if err != nil {
				t.Error(err)
				return
			}
			eng.RunNodes(nil, func(_, _ int, _ bitset.AttrSet, _ []any) (any, bool) { return nil, false })
			results[i] = eng.Stats().NodesVisited
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		if want := 1<<5 - 1; got != want {
			t.Errorf("goroutine %d visited %d nodes, want %d (full lattice for all)", i, got, want)
		}
	}
	if st := store.Stats(); st.Hits == 0 {
		t.Errorf("store served no hits across %d concurrent full traversals: %+v", len(results), st)
	}
}
