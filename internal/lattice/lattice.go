// Package lattice owns the level-wise apriori driver shared by every
// algorithm in this repository that traverses the set-containment lattice of
// attribute sets with stripped partitions: FASTOD (internal/core), the TANE
// baseline (internal/tane), and the approximate and bidirectional extensions
// (internal/approx, internal/bidir).
//
// The Engine factors out what those traversals have in common — singleton
// seeding, prefix-block joins for the next level (Algorithm 2 of the paper),
// partition products, the bounded per-level partition retention window, and a
// worker pool — while FASTOD and TANE keep ownership of their candidate-set
// bookkeeping, validation and pruning inside a per-node visit callback
// (RunNodes). The approximate and bidirectional extensions keep only their
// checks: RunMinimal is the one subset-minimal search over the two canonical
// OD forms, with the paper's minimality rule (Section 4.1) applied to
// whatever the checks accept.
//
// The traversal is level-synchronous: level l+1 is generated and visited
// only after every node of level l has been visited. Inside a level
// the cancellation and deadline signals are checked before every node, so an
// interrupt abandons at most the nodes already running, and the handout is
// capped by the node budget, so a run never visits more than Budget.MaxNodes
// nodes. A shared PartitionStore memoizes stripped partitions across runs
// (e.g. the pruned and un-pruned FASTOD passes of Figure 6, or repeated runs
// on one dataset behind the advisor) under a configurable memory bound.
package lattice

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/faultinject"
	"repro/internal/partition"
	"repro/internal/relation"
)

// Config is the run configuration every engine client takes: FASTOD
// (through core.Options, which copies its engine fields into one), TANE, the
// approximate and bidirectional extensions, and the inner passes of
// conditional discovery. The zero value runs unbounded on all CPUs without a
// shared store.
type Config struct {
	// Workers is the number of goroutines used per lattice level: 0 selects
	// runtime.GOMAXPROCS, 1 forces the fully sequential path with no
	// goroutines, negatives clamp to 1. The output is identical for every
	// setting.
	Workers int
	// MaxLevel, when positive, stops the traversal after processing the given
	// lattice level. Unlike a budget interrupt, stopping at MaxLevel is a
	// normal completion: the caller asked for a bounded traversal.
	MaxLevel int
	// Budget bounds the traversal's wall-clock time and visited node count;
	// see Budget. An exhausted budget interrupts the run like a cancelled
	// context does.
	Budget Budget
	// Partitions, when non-nil, is consulted before any stripped partition is
	// computed and receives every partition the run derives, so partitions are
	// reused across runs that share the store. It must only ever be shared
	// between runs over the same relation instance. Nil disables cross-run
	// caching; the per-run retention window still guarantees every partition
	// a level needs is available.
	Partitions *PartitionStore
	// Progress, when non-nil, receives one ProgressEvent per visited level,
	// in level order, including the partial level of an interrupted run. It
	// is invoked from the traversal goroutine (never concurrently).
	Progress func(ProgressEvent)
	// OnLevelEnd, when non-nil, is invoked after each level has been visited
	// and the next level generated, with the wall-clock time the whole level
	// took. Clients use it to record per-level statistics.
	OnLevelEnd func(level int, elapsed time.Duration)
}

// Stats aggregates the work counters the engine maintains on behalf of its
// clients. It is the one shape of a run's traversal counters: every
// algorithm's result carries it (core.Stats embeds it), and the public
// RunStats is an alias.
type Stats struct {
	// NodesVisited is the total number of lattice nodes handed to visit
	// callbacks.
	NodesVisited int
	// MaxLevelReached is the deepest lattice level that produced nodes.
	MaxLevelReached int
	// PartitionHits and PartitionMisses count the store lookups for lattice
	// node partitions during this run. Both stay zero without a store
	// (Config.Partitions).
	PartitionHits   int
	PartitionMisses int
	// Interrupted reports that the traversal stopped early because the
	// context was cancelled or the budget was exhausted. Everything computed
	// before the interrupt is retained; NodesVisited counts the nodes handed
	// to visit callbacks, including those of a partially processed level.
	Interrupted bool
}

// Engine drives one level-wise traversal over one encoded relation. It is not
// safe for concurrent use; concurrent discoveries each build their own Engine
// (they may share a PartitionStore, which is internally synchronized).
type Engine struct {
	enc        *relation.Encoded
	ctx        context.Context
	workers    int
	maxLevel   int
	budget     Budget
	store      *PartitionStore
	onEnd      func(int, time.Duration)
	onProgress func(ProgressEvent)

	// started and deadline frame the run's wall clock: both are set once at
	// the top of RunNodes and only read afterwards, including from worker
	// goroutines. A zero deadline means no timeout.
	started  time.Time
	deadline time.Time
	// stop is the cooperative interrupt flag, latched by checkInterrupt from
	// any goroutine and polled before every node visit and partition product.
	stop atomic.Bool
	// fail latches the first recovered worker panic (see panic.go); failMu
	// guards it because workers recover concurrently. Read through Err.
	failMu sync.Mutex
	fail   *PanicError

	numAttrs int
	all      bitset.AttrSet

	// scratch holds one partition-product workspace per worker, reused across
	// all levels of the run.
	scratch []*partition.Scratch
	// deps holds one reusable NodeVisit deps buffer per worker.
	deps [][]any

	// parts retains the stripped partitions of the last three lattice levels,
	// keyed by level then attribute set. The maps are written only at level
	// barriers and are read-only while a level's nodes are being visited, so
	// visit callbacks may read them from any worker goroutine.
	parts map[int]map[bitset.AttrSet]*partition.Partition

	stats Stats
}

// New validates the relation and builds an engine for one run. The context
// is checked cooperatively throughout the traversal: before every node visit
// and every partition product, and at every level barrier. A cancelled
// context interrupts the run within one node of work per worker; the engine
// keeps everything computed so far and reports Stats.Interrupted. A nil ctx
// behaves like context.Background().
func New(ctx context.Context, enc *relation.Encoded, cfg Config) (*Engine, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if enc == nil {
		return nil, fmt.Errorf("lattice: nil relation")
	}
	if enc.NumCols() == 0 {
		return nil, fmt.Errorf("lattice: relation has no columns")
	}
	if enc.NumCols() > bitset.MaxAttrs {
		return nil, fmt.Errorf("lattice: relation has %d columns, maximum is %d", enc.NumCols(), bitset.MaxAttrs)
	}
	if cfg.Partitions != nil {
		if err := cfg.Partitions.bind(enc); err != nil {
			return nil, err
		}
	}
	e := &Engine{
		enc:        enc,
		ctx:        ctx,
		workers:    ResolveWorkers(cfg.Workers),
		maxLevel:   cfg.MaxLevel,
		budget:     cfg.Budget,
		store:      cfg.Partitions,
		onEnd:      cfg.OnLevelEnd,
		onProgress: cfg.Progress,
		numAttrs:   enc.NumCols(),
		parts:      make(map[int]map[bitset.AttrSet]*partition.Partition),
	}
	e.scratch = make([]*partition.Scratch, e.workers)
	e.deps = make([][]any, e.workers)
	for i := range e.scratch {
		e.scratch[i] = partition.NewScratch()
		e.deps[i] = make([]any, 0, e.numAttrs)
	}
	for a := 0; a < e.numAttrs; a++ {
		e.all = e.all.Add(a)
	}
	return e, nil
}

// Workers returns the resolved worker count (>= 1). Clients size per-worker
// shards (counters, buffers) with it.
func (e *Engine) Workers() int { return e.workers }

// Scratch returns the engine's reusable partition workspace for one worker
// index (as handed to NodeVisit callbacks). The engine itself only uses
// scratch i from worker goroutine i while generating the next level, which
// never overlaps a visit callback, so visit callbacks are free to use their
// worker's scratch for swap checks, removal counting and ad-hoc products,
// keeping the whole validation hot path allocation-free. A scratch must never
// be used from a different worker index than the one it was requested for.
func (e *Engine) Scratch(worker int) *partition.Scratch { return e.scratch[worker] }

// All returns the full schema R as an attribute set.
func (e *Engine) All() bitset.AttrSet { return e.all }

// Stats returns the engine's work counters accumulated so far.
func (e *Engine) Stats() Stats { return e.stats }

// checkInterrupt evaluates the cancellation signals — the latched stop flag,
// the context, the deadline — and latches the stop flag when any fires. It is
// called from worker goroutines before every node visit and partition
// product, and at level barriers, so it must stay cheap: one atomic load on
// the fast path.
func (e *Engine) checkInterrupt() bool {
	if e.stop.Load() {
		return true
	}
	select {
	case <-e.ctx.Done():
		e.stop.Store(true)
		return true
	default:
	}
	if !e.deadline.IsZero() && !time.Now().Before(e.deadline) {
		e.stop.Store(true)
		return true
	}
	return false
}

// overNodeBudget reports whether the node budget is exhausted. It is only
// called at level barriers (stats are owned by the traversal goroutine);
// inside a level, visitLevel caps the handout at the budget instead.
func (e *Engine) overNodeBudget() bool {
	return e.budget.MaxNodes > 0 && e.stats.NodesVisited >= e.budget.MaxNodes
}

// partitionsCached counts the stripped partitions currently retained for
// progress reporting: the shared store when configured (partitions survive
// the run), otherwise the run's own retention window.
func (e *Engine) partitionsCached() int {
	if e.store != nil {
		return e.store.Len()
	}
	n := 0
	for _, m := range e.parts {
		n += len(m)
	}
	return n
}

// finishLevel stamps the completed (possibly partial) level's wall-clock time
// and emits its progress event.
func (e *Engine) finishLevel(l, nodes int, start time.Time) {
	if e.onEnd != nil {
		e.onEnd(l, time.Since(start))
	}
	if e.onProgress != nil {
		e.onProgress(ProgressEvent{
			Level:            l,
			Nodes:            nodes,
			NodesVisited:     e.stats.NodesVisited,
			PartitionsCached: e.partitionsCached(),
			Elapsed:          time.Since(e.started),
		})
	}
}

// Partition returns the stripped partition of an attribute set from the
// retention window. During the visit of a level-l node, the partitions of
// levels l-2, l-1 and l are available — exactly what constancy (context size
// l-1) and order-compatibility (context size l-2) validation need. It is safe
// to call from visit worker goroutines.
func (e *Engine) Partition(x bitset.AttrSet) *partition.Partition {
	return e.parts[x.Len()][x]
}

// parallelFor shards n items — the seeds, node visits or partition products
// of a level — across the worker pool in chunks (see ParallelFor). The
// cancellation signals are polled before every item, and once one fires the
// remaining items are left unprocessed (their per-item output slots keep
// their zero values); RunNodes then stops before any incomplete level is
// visited or extended.
func (e *Engine) parallelFor(n int, fn func(worker, item int)) {
	ParallelFor(e.workers, n, chunkFor(e.workers, n), e.checkInterrupt, e.trapWorker, fn)
}

// NodeVisit is the node-reentrant visit callback of RunNodes: it validates
// one lattice node and returns the node's result (the algorithm's per-node
// state, e.g. FASTOD's candidate sets) plus its pruning decision. A pruned
// node generates no supersets.
//
// deps carries the results of the node's immediate subsets in ascending order
// of the removed attribute: deps[k] is the result of x with its (k+1)-th
// smallest attribute removed. For level 1 it is [root]. The slice is only
// valid for the duration of the call and must not be retained.
//
// The callback must be safe to run concurrently with itself on different
// nodes of the same level, from the given worker goroutine (worker indexes
// its Scratch and any per-worker shards). Every node of earlier levels has
// completed before any node of level l starts. Emission order within a level
// is schedule-dependent; algorithms keep deterministic output by sorting
// their results in a total order at the end of the run.
type NodeVisit func(worker, level int, x bitset.AttrSet, deps []any) (result any, pruned bool)

// RunNodes executes the level-wise traversal. Starting from the singleton
// level, it calls visit exactly once per apriori-reachable node (every
// immediate subset visited, none pruned it), after the node's stripped
// partition and those of its two preceding levels are available through
// Partition, and with the immediate-subset results as deps. Once a level has
// been visited, the next one is generated by joining prefix blocks of the
// unpruned nodes, keeping only candidates whose every immediate subset
// survived, and deriving each new node's partition (from the store when
// shared, as a parallel partition product otherwise).
//
// Cancellation and budget signals interrupt the traversal cooperatively:
// before every node visit and partition product, and at every level barrier.
// At most Budget.MaxNodes nodes are ever visited. An interrupted run keeps
// everything already computed, never visits a partially generated level,
// reports Stats.Interrupted and still emits the progress event of its
// partially visited level.
func (e *Engine) RunNodes(root any, visit NodeVisit) {
	defer e.trapTraversal()
	e.started = time.Now()
	if e.budget.Timeout > 0 {
		e.deadline = e.started.Add(e.budget.Timeout)
	}
	level := e.firstLevel()
	var prev map[bitset.AttrSet]any
	for l := 1; len(level) > 0 && (e.maxLevel <= 0 || l <= e.maxLevel); l++ {
		// The interrupt may have fired between levels (or during level
		// generation, whose partitions would then be incomplete), and a node
		// budget spent exactly by the previous level leaves nothing for this
		// one: either way the level is abandoned before any node is visited.
		if e.checkInterrupt() || e.overNodeBudget() {
			e.stop.Store(true)
			e.stats.Interrupted = true
			break
		}
		start := time.Now()
		e.stats.MaxLevelReached = l
		results, pruned, visited := e.visitLevel(root, l, level, prev, visit)
		e.stats.NodesVisited += visited
		if e.stopped() {
			// The level was only partially visited; its statistics are still
			// stamped so partial reports stay coherent.
			e.stats.Interrupted = true
			e.finishLevel(l, visited, start)
			break
		}
		prev = make(map[bitset.AttrSet]any, len(level))
		kept := make([]bitset.AttrSet, 0, len(level))
		for i, x := range level {
			prev[x] = results[i]
			if !pruned[i] {
				kept = append(kept, x)
			}
		}
		if e.maxLevel > 0 && l == e.maxLevel {
			// The loop is about to terminate; don't pay for the partition
			// products of a level that will never be visited.
			level = nil
		} else {
			level = e.nextLevel(kept, l)
			if e.stopped() {
				// Some products of the next level were never computed; the
				// level must not be visited.
				e.stats.Interrupted = true
				e.finishLevel(l, visited, start)
				break
			}
		}
		// Partitions of level l-2 are no longer needed once level l+1 starts.
		delete(e.parts, l-2)
		e.finishLevel(l, visited, start)
	}
}

// visitLevel hands the nodes of level l to the worker pool and returns each
// node's result and pruning decision, plus the number of nodes handed to
// visit. The stop flag, context and deadline are polled before every node,
// so an interrupt abandons at most the nodes already running. The handout is
// capped at what is left of the node budget, so the run never visits more
// than Budget.MaxNodes nodes; a level the cap cuts short latches the stop
// flag. Unvisited nodes keep zero results.
func (e *Engine) visitLevel(root any, l int, level []bitset.AttrSet, prev map[bitset.AttrSet]any, visit NodeVisit) (results []any, pruned []bool, visited int) {
	n := len(level)
	if left := e.budget.MaxNodes - e.stats.NodesVisited; e.budget.MaxNodes > 0 && left < n {
		n = left
	}
	results = make([]any, len(level))
	pruned = make([]bool, len(level))
	handed := make([]int, e.workers)
	e.parallelFor(n, func(wk, i int) {
		x := level[i]
		// Recover inside the per-node frame rather than relying on the
		// worker-level trap alone, so a panic is recorded with the node that
		// raised it.
		defer func() {
			if rec := recover(); rec != nil {
				e.recordPanic(rec, x, true)
			}
		}()
		faultinject.Hit(faultinject.NodeDispatch)
		handed[wk]++
		deps := e.deps[wk][:0]
		if l == 1 {
			deps = append(deps, root)
		} else {
			x.ForEach(func(a int) {
				deps = append(deps, prev[x.Remove(a)])
			})
		}
		results[i], pruned[i] = visit(wk, l, x, deps)
	})
	for _, h := range handed {
		visited += h
	}
	if n < len(level) {
		e.stop.Store(true)
	}
	return results, pruned, visited
}

// stopped reports whether the interrupt flag is latched, without re-deriving
// the signals.
func (e *Engine) stopped() bool { return e.stop.Load() }

// storeGet consults the shared store, counting hits and misses. New has
// bound the store to this engine's relation, so a stored partition is always
// the right one.
func (e *Engine) storeGet(x bitset.AttrSet) (*partition.Partition, bool) {
	if e.store == nil {
		return nil, false
	}
	p, ok := e.store.Get(x)
	if ok {
		e.stats.PartitionHits++
	} else {
		e.stats.PartitionMisses++
	}
	return p, ok
}

func (e *Engine) storePut(x bitset.AttrSet, p *partition.Partition) {
	if e.store != nil {
		e.store.Put(x, p)
	}
}

// firstLevel seeds the empty-set partition and the singleton attribute sets;
// per-column partitions are independent and are built in parallel, except
// those already present in the shared store.
func (e *Engine) firstLevel() []bitset.AttrSet {
	empty := bitset.AttrSet(0)
	p0, ok := e.storeGet(empty)
	if !ok {
		p0 = partition.FromConstant(e.enc.NumRows())
		e.storePut(empty, p0)
	}
	e.parts[0] = map[bitset.AttrSet]*partition.Partition{empty: p0}

	level := make([]bitset.AttrSet, e.numAttrs)
	partsArr := make([]*partition.Partition, e.numAttrs)
	miss := make([]int, 0, e.numAttrs)
	for a := 0; a < e.numAttrs; a++ {
		x := bitset.NewAttrSet(a)
		level[a] = x
		if p, ok := e.storeGet(x); ok {
			partsArr[a] = p
		} else {
			miss = append(miss, a)
		}
	}
	e.parallelFor(len(miss), func(_, k int) {
		a := miss[k]
		partsArr[a] = partition.FromColumn(e.enc.Column(a), e.enc.Cardinality[a])
	})
	e.parts[1] = make(map[bitset.AttrSet]*partition.Partition, e.numAttrs)
	for a := 0; a < e.numAttrs; a++ {
		e.parts[1][level[a]] = partsArr[a]
	}
	for _, a := range miss {
		e.storePut(level[a], partsArr[a])
	}
	return level
}

// nextLevel is Algorithm 2 of the paper: it joins pairs of surviving nodes
// that share all but one attribute (prefix blocks), keeps only candidates
// whose every immediate subset survived, and derives the new nodes'
// partitions. Join enumeration is sequential (cheap bit-set work); the
// partition products — the dominant cost of level generation — run in
// parallel, each worker reusing its own scratch buffer. The shared store is
// probed store-first, during candidate enumeration itself: a hit skips the
// product staging (no generator lookups, no join slot) entirely, so a warm
// store reduces level generation to bit-set work plus map lookups.
func (e *Engine) nextLevel(level []bitset.AttrSet, l int) []bitset.AttrSet {
	if len(level) == 0 {
		return nil
	}
	present := make(map[bitset.AttrSet]bool, len(level))
	for _, x := range level {
		present[x] = true
	}
	// Prefix blocks: nodes that agree on everything except their largest
	// attribute. Sorting the block members keeps generation deterministic.
	blocks := make(map[bitset.AttrSet][]int)
	for _, x := range level {
		attrs := x.Attrs()
		last := attrs[len(attrs)-1]
		prefix := x.Remove(last)
		blocks[prefix] = append(blocks[prefix], last)
	}
	prefixes := make([]bitset.AttrSet, 0, len(blocks))
	for prefix := range blocks {
		prefixes = append(prefixes, prefix)
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i] < prefixes[j] })

	curParts := e.parts[l]
	next := make([]bitset.AttrSet, 0)
	partsArr := make([]*partition.Partition, 0)
	type join struct{ left, right *partition.Partition }
	// miss and joins run parallel to each other: joins[k] stages the product
	// inputs for candidate index miss[k]. Store hits never occupy a slot.
	miss := make([]int, 0)
	joins := make([]join, 0)
	for _, prefix := range prefixes {
		members := blocks[prefix]
		sort.Ints(members)
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				b, c := members[i], members[j]
				x := prefix.Add(b).Add(c)
				if !allSubsetsPresent(x, present) {
					continue
				}
				if p, ok := e.storeGet(x); ok {
					next = append(next, x)
					partsArr = append(partsArr, p)
					continue
				}
				miss = append(miss, len(next))
				joins = append(joins, join{curParts[prefix.Add(b)], curParts[prefix.Add(c)]})
				next = append(next, x)
				partsArr = append(partsArr, nil)
			}
		}
	}

	e.parallelFor(len(miss), func(wk, k int) {
		i := miss[k]
		x := next[i]
		// A panic inside the product (an invariant violation, or an injected
		// fault) is recorded with the node it was computing, so the recovered
		// stack names the offending attribute set; the worker-level trap would
		// only know the goroutine.
		defer func() {
			if rec := recover(); rec != nil {
				e.recordPanic(rec, x, true)
			}
		}()
		faultinject.Hit(faultinject.PartitionProduct)
		partsArr[i] = joins[k].left.ProductWith(joins[k].right, e.scratch[wk])
	})
	for _, i := range miss {
		e.storePut(next[i], partsArr[i])
	}
	nextParts := make(map[bitset.AttrSet]*partition.Partition, len(next))
	for i, x := range next {
		nextParts[x] = partsArr[i]
	}
	e.parts[l+1] = nextParts
	return next
}

func allSubsetsPresent(x bitset.AttrSet, present map[bitset.AttrSet]bool) bool {
	ok := true
	x.ForEach(func(a int) {
		if ok && !present[x.Remove(a)] {
			ok = false
		}
	})
	return ok
}
