package lattice

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The per-level work of a lattice traversal — candidate-set derivation, OD/FD
// validation and partition products — is embarrassingly parallel: every node
// of a level only reads state produced by previous levels. The engine
// therefore shards each level's nodes across a small worker pool and its
// clients merge per-worker results at node completion. All merge points are
// deterministic (per-node output slots, counter addition in worker order), so
// a parallel run is byte-identical to a sequential one.

// ResolveWorkers maps a Config.Workers-style request onto a concrete worker
// count: 0 selects runtime.GOMAXPROCS(0), anything below 1 is clamped to 1.
func ResolveWorkers(requested int) int {
	if requested == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if requested < 1 {
		return 1
	}
	return requested
}

// chunkFor picks the batch size of the engine's partition-product handout per
// atomic fetch: 1 for small levels (maximum load balance), growing with the
// item count so the cursor is touched a bounded number of times per worker.
// The cap keeps a single unlucky chunk of expensive items from stalling the
// barrier.
func chunkFor(w, n int) int {
	const (
		// targetFetches is the number of cursor fetches each worker should
		// need for an evenly-costed level; more fetches only buy balance.
		targetFetches = 16
		maxChunk      = 64
	)
	if w < 1 {
		w = 1
	}
	c := n / (w * targetFetches)
	if c < 1 {
		return 1
	}
	if c > maxChunk {
		return maxChunk
	}
	return c
}

// ParallelFor is the worker pool of the engine and of conditional
// discovery's slice fan-out: it runs fn for every item index in [0, n) using
// at most w goroutines. Items are handed out in chunks of the given size
// through an atomic cursor, so that uneven per-item costs (partition sizes
// vary wildly across nodes) balance out without any up-front partitioning,
// while levels with thousands of near-empty nodes (e.g. key-pruned superkey
// contexts) do not serialize on the cursor. fn receives the worker index
// (0..w-1), which callers use to address per-worker scratch buffers and
// counter shards without locks, and the item index, which callers use to
// write results into per-item output slots. With w <= 1 or a single item the
// call degenerates to an inline loop with no goroutines — the sequential
// path of the engine.
//
// A non-nil stop is polled before every item — on the sequential path as
// well as by every worker — and once it reports true the remaining items are
// abandoned: cancellation latency is bounded by one item per worker, never
// by a chunk or the whole level. A non-nil trap receives any panic a worker
// raises (the worker's remaining items are abandoned; the trap is expected
// to latch the stop signal so siblings drain too). With a nil trap panics
// propagate to the caller: a worker's panic is recovered, no worker starts
// another item, and once every worker has returned the first recovered
// value is raised again on the caller's goroutine.
func ParallelFor(w, n, chunk int, stop func() bool, trap func(rec any), fn func(worker, item int)) {
	if w > n {
		w = n
	}
	if chunk < 1 {
		chunk = 1
	}
	if w <= 1 {
		runTrapped(trap, func() {
			for i := 0; i < n; i++ {
				if stop != nil && stop() {
					return
				}
				fn(0, i)
			}
		})
		return
	}
	if trap == nil {
		var raised any
		var failed atomic.Bool
		ParallelFor(w, n, chunk, func() bool { return failed.Load() || stop != nil && stop() }, func(rec any) {
			if failed.CompareAndSwap(false, true) {
				raised = rec
			}
		}, fn)
		if raised != nil {
			panic(raised)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for wk := 0; wk < w; wk++ {
		go func(wk int) {
			defer wg.Done()
			runTrapped(trap, func() {
				for {
					start := int(cursor.Add(int64(chunk))) - chunk
					if start >= n {
						return
					}
					end := min(start+chunk, n)
					for i := start; i < end; i++ {
						if stop != nil && stop() {
							return
						}
						fn(wk, i)
					}
				}
			})
		}(wk)
	}
	wg.Wait()
}

// runTrapped runs body, routing a recovered panic to trap; a nil trap lets
// panics propagate unchanged.
func runTrapped(trap func(rec any), body func()) {
	if trap == nil {
		body()
		return
	}
	defer func() {
		if rec := recover(); rec != nil {
			trap(rec)
		}
	}()
	body()
}
