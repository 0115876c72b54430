package lattice

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bitset"
)

// checkEvents asserts the progress contract: one event per visited level in
// level order, the partial level of an interrupted run included, each with
// the cumulative node count, the last one matching the engine total.
func checkEvents(t *testing.T, events []ProgressEvent, st Stats) {
	t.Helper()
	if len(events) != st.MaxLevelReached {
		t.Fatalf("got %d events, want one per visited level (%d)", len(events), st.MaxLevelReached)
	}
	sum := 0
	for i, ev := range events {
		if ev.Level != i+1 {
			t.Errorf("event %d has level %d, want %d", i, ev.Level, i+1)
		}
		sum += ev.Nodes
		if ev.NodesVisited != sum {
			t.Errorf("event %d: NodesVisited = %d, want cumulative %d", i, ev.NodesVisited, sum)
		}
		if ev.PartitionsCached == 0 {
			t.Errorf("event %d reports no cached partitions", i)
		}
		if i > 0 && ev.Elapsed < events[i-1].Elapsed {
			t.Errorf("event %d: Elapsed went backwards", i)
		}
	}
	if sum != st.NodesVisited {
		t.Errorf("events sum to %d nodes, engine visited %d", sum, st.NodesVisited)
	}
}

// TestCancelMidLevel: cancelling the context from inside a visit stops the
// handout before the next node — at most workers-1 nodes (those already
// running on other workers) are visited after the cancelling one — and ends
// the traversal with Interrupted set, without visiting another level, and
// with a progress event for the partial level.
func TestCancelMidLevel(t *testing.T) {
	// Level 1 of the 8-attribute lattice has 8 nodes and level 2 has 28, so
	// the cancel fires on the fourth node of level 2.
	const cancelAt = 12
	enc := encodeFlight(t, 100, 8)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var events []ProgressEvent
			onProgress := func(ev ProgressEvent) { events = append(events, ev) }
			eng, err := New(ctx, enc, Config{Workers: workers, Progress: onProgress})
			if err != nil {
				t.Fatal(err)
			}
			var visits atomic.Int64
			RunNodes(eng, struct{}{}, func(_ int, nd Node, _ []struct{}) (struct{}, bool) {
				l := nd.Level
				if l > 2 {
					t.Errorf("visited a level-%d node after the cancel in level 2", l)
				}
				switch n := visits.Add(1); {
				case n == cancelAt:
					cancel()
				case n > cancelAt:
					// Handed out before the cancel took effect: finish only
					// once it has, so the cancel acts at node cancelAt and
					// not some nodes later, when cancel() returns.
					<-ctx.Done()
				}
				return struct{}{}, false
			})
			st := eng.Stats()
			if !st.Interrupted {
				t.Fatal("cancelled run not marked interrupted")
			}
			if got, max := int(visits.Load()), cancelAt+workers-1; got > max {
				t.Errorf("%d nodes visited after a cancel at node %d, want <= %d (one running node per other worker)",
					got, cancelAt, max)
			}
			if got := int(visits.Load()); got != st.NodesVisited {
				t.Errorf("%d visits but NodesVisited = %d", got, st.NodesVisited)
			}
			if st.MaxLevelReached != 2 {
				t.Errorf("MaxLevelReached = %d, want 2", st.MaxLevelReached)
			}
			checkEvents(t, events, st)
		})
	}
}

// TestDAGCancelLatency: wherever a cancel lands — on the first node, on the
// last node of a level, mid-level — the handout stops at the next node: at
// most workers-1 nodes (those already running on other workers) are visited
// after the cancelling one, and NodesVisited counts exactly the visits made.
// (The TestDAG tests are named for the dependency-driven scheduler that
// first held their contracts; the one level-synchronous traversal holds
// them now.)
func TestDAGCancelLatency(t *testing.T) {
	enc := encodeFlight(t, 100, 8)
	for _, cancelAt := range []int64{1, 8, 9, 30} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("at%d_w%d", cancelAt, workers), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				eng, err := New(ctx, enc, Config{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				var visits atomic.Int64
				RunNodes(eng, struct{}{}, func(_ int, _ Node, _ []struct{}) (struct{}, bool) {
					switch n := visits.Add(1); {
					case n == cancelAt:
						cancel()
					case n > cancelAt:
						// See TestCancelMidLevel: the cancel takes effect
						// when cancel() returns.
						<-ctx.Done()
					}
					return struct{}{}, false
				})
				st := eng.Stats()
				if !st.Interrupted {
					t.Fatal("cancelled run not marked interrupted")
				}
				got := visits.Load()
				if max := cancelAt + int64(workers) - 1; got > max {
					t.Errorf("%d nodes visited after a cancel at node %d, want <= %d", got, cancelAt, max)
				}
				if int(got) != st.NodesVisited {
					t.Errorf("%d visits but NodesVisited = %d", got, st.NodesVisited)
				}
			})
		}
	}
}

// TestNodeBudgetInterrupts: MaxNodes is enforced at node handout, mid-level:
// exactly MaxNodes nodes are visited, NodesVisited counts exactly those
// visits, and the partial level still reports its progress event.
func TestNodeBudgetInterrupts(t *testing.T) {
	enc := encodeFlight(t, 100, 8)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			var events []ProgressEvent
			onProgress := func(ev ProgressEvent) { events = append(events, ev) }
			eng, err := New(t.Context(), enc, Config{Workers: workers, Budget: Budget{MaxNodes: 10}, Progress: onProgress})
			if err != nil {
				t.Fatal(err)
			}
			var visits atomic.Int64
			RunNodes(eng, struct{}{}, func(_ int, _ Node, _ []struct{}) (struct{}, bool) {
				visits.Add(1)
				return struct{}{}, false
			})
			st := eng.Stats()
			if !st.Interrupted {
				t.Fatal("over-budget run not marked interrupted")
			}
			if got := int(visits.Load()); got != 10 || st.NodesVisited != 10 {
				t.Errorf("%d visits, NodesVisited = %d; want exactly the budget of 10", got, st.NodesVisited)
			}
			// Level 1 has 8 nodes; the budget cuts level 2 after 2 of its 28.
			if st.MaxLevelReached != 2 {
				t.Errorf("MaxLevelReached = %d, want 2", st.MaxLevelReached)
			}
			checkEvents(t, events, st)
			if events[1].Nodes != 2 {
				t.Errorf("partial level event reports %d nodes, want 2", events[1].Nodes)
			}
		})
	}
}

// TestSharedNodeBudget: runs handed one SharedNodes budget draw their visits
// from one allowance. Three concurrent runs over a 255-node lattice share a
// budget of 300 and visit exactly 300 nodes together; a run that starts once
// the allowance is spent visits nothing and is interrupted; and a budget
// that was not shared gives every run an allowance of its own.
func TestSharedNodeBudget(t *testing.T) {
	enc := encodeFlight(t, 100, 8)
	run := func(b Budget) Stats {
		eng, err := New(t.Context(), enc, Config{Workers: 2, Budget: b})
		if err != nil {
			t.Error(err)
			return Stats{}
		}
		RunNodes(eng, struct{}{}, keepAll)
		return eng.Stats()
	}
	shared := SharedNodes(Budget{MaxNodes: 300})
	stats := make([]Stats, 3)
	var wg sync.WaitGroup
	for i := range stats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i] = run(shared)
		}()
	}
	wg.Wait()
	total := 0
	for _, st := range stats {
		total += st.NodesVisited
	}
	if total != 300 || !NodesSpent(shared) {
		t.Errorf("concurrent runs visited %d nodes in all (%+v), spent=%v; want the shared 300", total, stats, NodesSpent(shared))
	}
	if st := run(shared); st.NodesVisited != 0 || !st.Interrupted {
		t.Errorf("run on a spent allowance: %+v, want no visits, interrupted", st)
	}
	own := Budget{MaxNodes: 300}
	for range 2 {
		if st := run(own); st.NodesVisited != 255 || st.Interrupted {
			t.Errorf("run on its own allowance: %+v, want the whole lattice of 255", st)
		}
	}
}

// TestDAGNodeBudgetLatency: for any budget — one node, exactly a level
// boundary, one node past it, deep mid-level, one short of the whole lattice,
// the whole lattice — the handout visits exactly min(MaxNodes, lattice size)
// nodes, NodesVisited counts exactly those, the run stops in the level that
// holds the last budgeted node, and it is interrupted exactly when the
// budget is smaller than the lattice.
func TestDAGNodeBudgetLatency(t *testing.T) {
	const cols = 8
	enc := encodeFlight(t, 100, cols)
	// levelOf returns the level holding the n-th node of the unpruned
	// lattice, whose level l has C(cols, l) nodes.
	levelOf := func(n int) int {
		total, size := 0, 1
		for l := 1; ; l++ {
			size = size * (cols - l + 1) / l
			if total += size; n <= total {
				return l
			}
		}
	}
	const lattice = 1<<cols - 1
	for _, budget := range []int{1, 8, 9, 36, 100, lattice - 1, lattice} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("max%d_w%d", budget, workers), func(t *testing.T) {
				var events []ProgressEvent
				onProgress := func(ev ProgressEvent) { events = append(events, ev) }
				eng, err := New(t.Context(), enc, Config{Workers: workers, Budget: Budget{MaxNodes: budget}, Progress: onProgress})
				if err != nil {
					t.Fatal(err)
				}
				var visits atomic.Int64
				RunNodes(eng, struct{}{}, func(_ int, _ Node, _ []struct{}) (struct{}, bool) {
					visits.Add(1)
					return struct{}{}, false
				})
				st := eng.Stats()
				if got := int(visits.Load()); got != budget || st.NodesVisited != budget {
					t.Errorf("%d visits, NodesVisited = %d; want exactly the budget of %d", got, st.NodesVisited, budget)
				}
				if want := budget < lattice; st.Interrupted != want {
					t.Errorf("Interrupted = %v, want %v", st.Interrupted, want)
				}
				if want := levelOf(budget); st.MaxLevelReached != want {
					t.Errorf("MaxLevelReached = %d, want %d", st.MaxLevelReached, want)
				}
				checkEvents(t, events, st)
			})
		}
	}
}

// TestTimeoutInterrupts: an immediate deadline stops the run before any node
// is visited, with Interrupted set and no error.
func TestTimeoutInterrupts(t *testing.T) {
	enc := encodeFlight(t, 100, 8)
	eng, err := New(t.Context(), enc, Config{Workers: 1, Budget: Budget{Timeout: time.Nanosecond}})
	if err != nil {
		t.Fatal(err)
	}
	visited := 0
	RunNodes(eng, struct{}{}, func(_ int, _ Node, _ []struct{}) (struct{}, bool) {
		visited++
		return struct{}{}, false
	})
	if !eng.Stats().Interrupted {
		t.Fatal("timed-out run not marked interrupted")
	}
	if visited != 0 {
		t.Errorf("visited %d nodes under a 1ns timeout, want 0", visited)
	}
}

// TestPreCancelledContext: a context cancelled before RunNodes starts must
// interrupt before any node is visited.
func TestPreCancelledContext(t *testing.T) {
	enc := encodeFlight(t, 50, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng, err := New(ctx, enc, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var visited atomic.Int64
	RunNodes(eng, struct{}{}, func(_ int, _ Node, _ []struct{}) (struct{}, bool) {
		visited.Add(1)
		return struct{}{}, false
	})
	if !eng.Stats().Interrupted || visited.Load() != 0 {
		t.Errorf("pre-cancelled run: interrupted=%v visited=%d, want true/0",
			eng.Stats().Interrupted, visited.Load())
	}
}

// TestProgressEvents: a full traversal emits one event per level, in level
// order, with the cumulative node count through that level and the
// retention window's partition count, at every worker count.
func TestProgressEvents(t *testing.T) {
	enc := encodeFlight(t, 80, 6)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			var events []ProgressEvent
			onProgress := func(ev ProgressEvent) { events = append(events, ev) }
			eng, err := New(t.Context(), enc, Config{Workers: workers, Progress: onProgress})
			if err != nil {
				t.Fatal(err)
			}
			RunNodes(eng, struct{}{}, keepAll)
			st := eng.Stats()
			if st.Interrupted || st.MaxLevelReached != 6 {
				t.Fatalf("stats = %+v, want a complete 6-level traversal", st)
			}
			checkEvents(t, events, st)
		})
	}
}

// TestDAGProgressCoherence: when the nodes of a level finish out of order —
// visits of uneven cost spread over the workers — the progress events still
// arrive one at a time, one per level, in level order, each with the
// cumulative node count, for a complete run and for one a budget cuts
// mid-level.
func TestDAGProgressCoherence(t *testing.T) {
	enc := encodeFlight(t, 80, 6)
	for _, budget := range []int{0, 30} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("max%d_w%d", budget, workers), func(t *testing.T) {
				var events []ProgressEvent
				var inHook atomic.Int32
				onProgress := func(ev ProgressEvent) {
					if inHook.Add(1) != 1 {
						t.Error("progress hook called concurrently with itself")
					}
					events = append(events, ev)
					inHook.Add(-1)
				}
				eng, err := New(t.Context(), enc, Config{Workers: workers, Budget: Budget{MaxNodes: budget}, Progress: onProgress})
				if err != nil {
					t.Fatal(err)
				}
				RunNodes(eng, struct{}{}, func(_ int, n Node, _ []struct{}) (struct{}, bool) {
					x := n.X
					if x.Contains(0) {
						time.Sleep(100 * time.Microsecond)
					}
					return struct{}{}, false
				})
				st := eng.Stats()
				if budget > 0 && (!st.Interrupted || st.NodesVisited != budget) {
					t.Fatalf("stats = %+v, want an interrupted run of %d nodes", st, budget)
				}
				if budget == 0 && (st.Interrupted || st.MaxLevelReached != 6) {
					t.Fatalf("stats = %+v, want a complete 6-level traversal", st)
				}
				checkEvents(t, events, st)
			})
		}
	}
}

// TestInterruptedRunKeepsCompleteLevels: a node budget that stops the
// traversal mid-lattice must leave every fully visited level intact and cut
// the partial level to a subset of the full run's — the partial-output
// contract clients rely on.
func TestInterruptedRunKeepsCompleteLevels(t *testing.T) {
	enc := encodeFlight(t, 100, 8)
	collect := func(budget Budget) []map[bitset.AttrSet]bool {
		eng, err := New(t.Context(), enc, Config{Workers: 2, Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		shards := make([][]bitset.AttrSet, eng.Workers())
		RunNodes(eng, struct{}{}, func(wk int, n Node, _ []struct{}) (struct{}, bool) {
			shards[wk] = append(shards[wk], n.X)
			return struct{}{}, false
		})
		var levels []map[bitset.AttrSet]bool
		for _, sh := range shards {
			for _, x := range sh {
				for len(levels) < x.Len() {
					levels = append(levels, make(map[bitset.AttrSet]bool))
				}
				levels[x.Len()-1][x] = true
			}
		}
		return levels
	}
	fullLevels := collect(Budget{})
	// 8 + 28 nodes fill levels 1 and 2; the budget cuts level 3 after 4.
	partialLevels := collect(Budget{MaxNodes: 40})
	if len(partialLevels) != 3 || len(fullLevels) <= 3 {
		t.Fatalf("budgeted run visited %d levels, full run %d; want 3 and more", len(partialLevels), len(fullLevels))
	}
	for i := 0; i < 2; i++ {
		if !reflect.DeepEqual(partialLevels[i], fullLevels[i]) {
			t.Errorf("level %d of the budgeted run differs from the full run", i+1)
		}
	}
	if got := len(partialLevels[2]); got != 4 {
		t.Errorf("partial level 3 holds %d nodes, want 4", got)
	}
	for x := range partialLevels[2] {
		if !fullLevels[2][x] {
			t.Errorf("partial level 3 visited %v, which the full run never does", x)
		}
	}
}
