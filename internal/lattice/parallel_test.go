package lattice

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestResolveWorkers(t *testing.T) {
	if got := ResolveWorkers(1); got != 1 {
		t.Errorf("ResolveWorkers(1) = %d", got)
	}
	if got := ResolveWorkers(7); got != 7 {
		t.Errorf("ResolveWorkers(7) = %d", got)
	}
	if got := ResolveWorkers(-2); got != 1 {
		t.Errorf("ResolveWorkers(-2) = %d", got)
	}
	if got := ResolveWorkers(0); got < 1 {
		t.Errorf("ResolveWorkers(0) = %d, want >= 1", got)
	}
}

// TestParallelForCoversAllItems: the engine's parallelFor processes every
// item exactly once, on worker indexes inside the pool, at every pool size.
func TestParallelForCoversAllItems(t *testing.T) {
	enc := encodeFlight(t, 20, 3)
	for _, w := range []int{1, 2, 4, 9} {
		eng, err := New(t.Context(), enc, Config{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		const n = 1000
		hits := make([]int32, n)
		var mu sync.Mutex
		workersSeen := map[int]bool{}
		eng.parallelFor(n, func(wk, i int) {
			mu.Lock()
			hits[i]++
			workersSeen[wk] = true
			mu.Unlock()
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("w=%d: item %d processed %d times", w, i, h)
			}
		}
		for wk := range workersSeen {
			if wk < 0 || wk >= w {
				t.Fatalf("w=%d: worker index %d out of range", w, wk)
			}
		}
		// Zero items must not call fn at all.
		eng.parallelFor(0, func(_, _ int) { t.Fatal("fn called for empty range") })
	}
}

// TestParallelForNilTrapRaisesOnCaller: with a nil trap, a worker's panic
// is raised again on the caller's goroutine, where a deferred recover gets
// its value, and the pool starts no item after it, so the level's other
// items are abandoned rather than run by the surviving worker.
func TestParallelForNilTrapRaisesOnCaller(t *testing.T) {
	const n = 1000
	var started atomic.Int64
	rec := func() (rec any) {
		defer func() { rec = recover() }()
		ParallelFor(2, n, 1, nil, nil, func(_, i int) {
			started.Add(1)
			if i == 3 {
				panic("item 3")
			}
			time.Sleep(100 * time.Microsecond)
		})
		return nil
	}()
	if rec != "item 3" {
		t.Fatalf("the caller recovered %v, want the worker's value %q", rec, "item 3")
	}
	if s := started.Load(); s == n {
		t.Errorf("all %d items started, although item 3 panicked", s)
	}
}

// TestParallelForChunkedCoversAllItems exercises the chunked handout with
// chunk sizes that do and do not divide the item count.
func TestParallelForChunkedCoversAllItems(t *testing.T) {
	for _, tc := range []struct{ w, n, chunk int }{
		{2, 1000, 7}, {4, 1000, 64}, {4, 63, 64}, {3, 10, 1}, {8, 1000, 0},
	} {
		hits := make([]atomic.Int32, tc.n)
		ParallelFor(tc.w, tc.n, tc.chunk, nil, nil, func(_, i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("w=%d n=%d chunk=%d: item %d processed %d times", tc.w, tc.n, tc.chunk, i, got)
			}
		}
	}
}

func TestChunkFor(t *testing.T) {
	if got := chunkFor(4, 10); got != 1 {
		t.Errorf("chunkFor(4, 10) = %d, want 1 (small levels stay maximally balanced)", got)
	}
	if got := chunkFor(4, 100_000); got != 64 {
		t.Errorf("chunkFor(4, 100000) = %d, want capped at 64", got)
	}
	if got := chunkFor(4, 1024); got < 1 || got > 64 {
		t.Errorf("chunkFor(4, 1024) = %d, want within [1, 64]", got)
	}
}

// BenchmarkParallelForHandout measures the cursor-contention effect the
// chunked handout amortizes: many near-empty items (the shape of key-pruned
// superkey levels) dispatched one per atomic fetch versus in batches. On
// multi-core hardware the chunked series should win clearly; on a single CPU
// the two mostly coincide.
func BenchmarkParallelForHandout(b *testing.B) {
	const n = 1 << 17
	out := make([]int32, n)
	for _, w := range []int{2, 4, 8} {
		for _, cfg := range []struct {
			name  string
			chunk int
		}{{"chunk=1", 1}, {"chunk=auto", chunkFor(w, n)}} {
			b.Run("workers="+strconv.Itoa(w)+"/"+cfg.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ParallelFor(w, n, cfg.chunk, nil, nil, func(_, item int) {
						out[item] = int32(item) // trivially cheap per-item work
					})
				}
			})
		}
	}
}
