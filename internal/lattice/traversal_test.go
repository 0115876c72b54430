package lattice

import (
	"fmt"
	"maps"
	"math/bits"
	"reflect"
	"slices"
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
// every worker count, with and without pruning, and serve through every
// visited node the partitions of X, of its immediate subsets and of theirs,
// with no store and with a store an earlier pruning run warmed (so some
// nodes of one level are store hits and others products).
func TestRunNodesSchedulerDifferential(t *testing.T) {
	const cols = 6
	enc := encodeFlight(t, 80, cols)
	direct := directPartitions(enc)
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
		for _, warm := range []bool{false, true} {
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/warm=%v/w%d", name, warm, workers), func(t *testing.T) {
					var store *PartitionStore
					if warm {
						store = NewPartitionStore(0)
						pre, err := New(t.Context(), enc, Config{Workers: 1, Partitions: store})
						if err != nil {
							t.Fatal(err)
						}
						RunNodes(pre, struct{}{}, func(_ int, n Node, _ []struct{}) (struct{}, bool) {
							return struct{}{}, rules["pruning"](uint64(n.X))
						})
					}
					eng, err := New(t.Context(), enc, Config{Workers: workers, Partitions: store})
					if err != nil {
						t.Fatal(err)
					}
					type visit struct {
						x     uint64
						level int
						deps  []uint64
					}
					shards := make([][]visit, eng.Workers())
					RunNodes(eng, bitset.AttrSet(root), func(wk int, n Node, deps []bitset.AttrSet) (bitset.AttrSet, bool) {
						d := make([]uint64, len(deps))
						for k, r := range deps {
							d[k] = uint64(r)
						}
						checkAccessors(t, n, direct)
						shards[wk] = append(shards[wk], visit{uint64(n.X), n.Level, d})
						return n.X, prune(uint64(n.X))
					})
					gotLevels := make(map[uint64]int)
					gotDeps := make(map[uint64][]uint64)
					for _, v := range slices.Concat(shards...) {
						if old, dup := gotLevels[v.x]; dup {
							t.Errorf("node %b visited twice (levels %d and %d)", v.x, old, v.level)
						}
						gotLevels[v.x] = v.level
						gotDeps[v.x] = v.deps
					}
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
}

// prefixOrderOracle lists, level by level, the nodes of the unpruned lattice
// over numAttrs attributes in Algorithm 2's generation order: the singletons
// ascending, then each level joined from the one before by prefix blocks.
// A block gathers the nodes that agree on all but their largest attribute;
// blocks go in ascending order of that shared prefix as an AttrSet, and
// within a block every pair of largest attributes b < c is joined in
// ascending (b, c) order.
func prefixOrderOracle(numAttrs int) []bitset.AttrSet {
	var level, all []bitset.AttrSet
	for a := range numAttrs {
		level = append(level, bitset.NewAttrSet(a))
	}
	for len(level) > 0 {
		all = append(all, level...)
		blocks := make(map[bitset.AttrSet][]int)
		for _, x := range level {
			attrs := x.Attrs()
			last := attrs[len(attrs)-1]
			blocks[x.Remove(last)] = append(blocks[x.Remove(last)], last)
		}
		var next []bitset.AttrSet
		for _, prefix := range slices.Sorted(maps.Keys(blocks)) {
			members := blocks[prefix]
			slices.Sort(members)
			for i, b := range members {
				for _, c := range members[i+1:] {
					next = append(next, prefix.Add(b).Add(c))
				}
			}
		}
		level = next
	}
	return all
}

// TestRunNodesPrefixOrder pins the order in which one worker visits the
// nodes: the prefix-block order of Algorithm 2, which decides where a node
// budget cuts a level and the order of the store's probes and puts. A budget
// that cuts level 4 halfway visits exactly the order's first nodes.
func TestRunNodesPrefixOrder(t *testing.T) {
	const cols = 6
	enc := encodeFlight(t, 80, cols)
	want := prefixOrderOracle(cols)
	// Levels 1-3 hold 6 + 15 + 20 nodes; level 4 holds 15.
	const cut = 6 + 15 + 20 + 7
	for _, budget := range []int{0, cut} {
		t.Run(fmt.Sprintf("max%d", budget), func(t *testing.T) {
			eng, err := New(t.Context(), enc, Config{Workers: 1, Budget: Budget{MaxNodes: budget}})
			if err != nil {
				t.Fatal(err)
			}
			var got []bitset.AttrSet
			RunNodes(eng, struct{}{}, func(_ int, n Node, _ []struct{}) (struct{}, bool) {
				got = append(got, n.X)
				return struct{}{}, false
			})
			wantPrefix := want
			if budget > 0 {
				wantPrefix = want[:budget]
			}
			if !slices.Equal(got, wantPrefix) {
				t.Errorf("visit order = %v, want %v", got, wantPrefix)
			}
		})
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
			RunNodes(eng, struct{}{}, keepAll)
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
