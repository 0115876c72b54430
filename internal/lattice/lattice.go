// Package lattice owns the level-wise apriori driver shared by every
// algorithm in this repository that traverses the set-containment lattice of
// attribute sets with stripped partitions: FASTOD (internal/core), the TANE
// baseline (internal/tane), and the approximate and bidirectional extensions
// (internal/approx, internal/bidir).
//
// The Engine factors out what those traversals have in common — singleton
// seeding, prefix-block joins for the next level (Algorithm 2 of the paper),
// partition products, and a worker pool — while FASTOD and TANE keep
// ownership of their candidate-set bookkeeping, validation and pruning inside
// a per-node visit callback (RunNodes). The approximate and bidirectional
// extensions keep only their checks: RunMinimal is the one subset-minimal
// search over the two canonical OD forms, with the paper's minimality rule
// (Section 4.1) applied to whatever the checks accept. Every client,
// RunMinimal included, derives a node's minimality state from its immediate
// subsets' states alone and writes what it finds into its worker's shard,
// so no visit takes a lock.
//
// A run keeps its last three levels as slices indexed like the levels:
// attribute sets, partitions, and for every node the indexes of its
// immediate subsets one level down. A visit receives its subsets' states and
// reaches the partitions of X, X\A and X\{A,B} along those indexes, never
// by looking up an attribute set.
//
// The traversal is level-synchronous: level l+1 is generated and visited
// only after every node of level l has been visited. Inside a level the
// cancellation and deadline signals are checked before every node, so an
// interrupt abandons at most the nodes already running, and the handout is
// drawn from the budget's node allowance, so the runs sharing it never
// visit more than Budget.MaxNodes nodes. A shared PartitionStore memoizes
// stripped partitions across runs (e.g. the pruned and un-pruned FASTOD
// passes of Figure 6, or repeated runs on one dataset behind the advisor)
// under a configurable memory bound.
package lattice

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"
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
	// between runs over one default encoding and its re-encodings, whose
	// partitions it files by equality signature. Nil disables cross-run
	// caching; a run still keeps the partitions of the three levels a visit
	// reads (the node's, its subsets' and theirs) in its level slices.
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
// algorithm's result carries it (core.Stats embeds it), the public RunStats
// is an alias, and the tags are its JSON names in an odserve reply.
type Stats struct {
	// NodesVisited is the total number of lattice nodes handed to visit
	// callbacks.
	NodesVisited int `json:"nodes_visited"`
	// MaxLevelReached is the deepest lattice level that produced nodes.
	MaxLevelReached int `json:"max_level_reached"`
	// PartitionHits and PartitionMisses count the store lookups for lattice
	// node partitions during this run. Both stay zero without a store
	// (Config.Partitions).
	PartitionHits   int `json:"partition_hits"`
	PartitionMisses int `json:"partition_misses"`
	// Interrupted reports that the traversal stopped early because the
	// context was cancelled or the budget was exhausted. Everything computed
	// before the interrupt is retained; NodesVisited counts the nodes handed
	// to visit callbacks, including those of a partially processed level. A
	// reply carries it once, at its top level.
	Interrupted bool `json:"-"`
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

	// levels[l] is level l's working set; only the last three levels are
	// kept, earlier ones are emptied. The slice is written only at level
	// barriers and is read-only while a level's nodes are being visited, so
	// Node accessors may read it from any worker goroutine.
	levels []level

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
	if cfg.Budget.nodes == nil {
		cfg.Budget = SharedNodes(cfg.Budget)
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
	}
	e.scratch = make([]*partition.Scratch, e.workers)
	for i := range e.scratch {
		e.scratch[i] = partition.NewScratch()
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
// index (as handed to RunNodes' visit callbacks). The engine itself only uses
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

// partitionsCached counts the stripped partitions currently retained for
// progress reporting: the shared store when configured (partitions survive
// the run), otherwise those of the run's kept levels.
func (e *Engine) partitionsCached() int {
	if e.store != nil {
		return e.store.Len()
	}
	n := 0
	for _, lv := range e.levels {
		n += len(lv.parts)
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

// parallelFor shards n items — the seeds, node visits or partition products
// of a level — across the worker pool in chunks (see ParallelFor). The
// cancellation signals are polled before every item, and once one fires the
// remaining items are left unprocessed (their per-item output slots keep
// their zero values); RunNodes then stops before any incomplete level is
// visited or extended.
func (e *Engine) parallelFor(n int, fn func(worker, item int)) {
	ParallelFor(e.workers, n, chunkFor(e.workers, n), e.checkInterrupt, e.trapWorker, fn)
}

// Node is one lattice node as a visit callback sees it: its level and
// attribute set, plus accessors for the stripped partitions Algorithm 3 reads
// (Π(X), Π(X\A) and Π(X\{A,B})). The accessors follow the subset indexes
// recorded when the node's level was generated, so no partition is looked up
// by attribute set. A Node is only valid for the duration of its visit.
type Node struct {
	Level int
	X     bitset.AttrSet
	e     *Engine
	i     int // the node's index in its level
}

// Partition returns Π(X).
func (n Node) Partition() *partition.Partition { return n.e.levels[n.Level].parts[n.i] }

// Sub returns Π(X\A) for an attribute A ∈ X.
func (n Node) Sub(a int) *partition.Partition {
	return n.e.levels[n.Level-1].parts[n.sub(a)]
}

// Sub2 returns Π(X\{A,B}) for distinct attributes A, B ∈ X.
func (n Node) Sub2(a, b int) *partition.Partition {
	up := n.Level - 1
	j := int(n.sub(a))
	return n.e.levels[up-1].parts[n.e.levels[up].subs[j*up+n.X.Remove(a).Rank(b)]]
}

// sub returns the index of X\A in the previous level.
func (n Node) sub(a int) int32 { return n.e.levels[n.Level].subs[n.i*n.Level+n.X.Rank(a)] }

// level is the working set of one lattice level, indexed like its nodes:
// node i is sets[i] with partition parts[i], and for a level-l node,
// subs[i*l+k] is the index in level l-1 of sets[i] minus its (k+1)-th
// smallest attribute.
type level struct {
	sets  []bitset.AttrSet
	parts []*partition.Partition
	subs  []int32
}

// RunNodes executes the level-wise traversal with e. Starting from the
// singleton level, it calls visit exactly once per apriori-reachable node
// (every immediate subset visited, none pruned it). Once a level has been
// visited, the next one is generated by joining prefix blocks of the
// unpruned nodes, keeping only candidates whose every immediate subset
// survived, and deriving each new node's partition (from the store when
// shared, as a parallel partition product otherwise).
//
// visit validates one node and returns the node's state S (e.g. FASTOD's
// candidate sets) plus its pruning decision; a pruned node generates no
// supersets. deps holds the states of the node's immediate subsets in
// ascending order of the removed attribute: deps[k] is the state of X with
// its (k+1)-th smallest attribute removed, and [root] for a singleton. The
// slice is only valid for the duration of the call. The node's Partition,
// Sub and Sub2 accessors serve the partitions of X, of its immediate subsets
// and of theirs.
//
// visit must be safe to run concurrently with itself on different nodes of
// the same level, from the given worker goroutine (worker indexes the
// engine's Scratch and any per-worker shards). Every node of earlier levels
// has completed before any node of level l starts. Completion order within a
// level is schedule-dependent; algorithms keep deterministic output by
// sorting their results in a total order at the end of the run.
//
// Cancellation and budget signals interrupt the traversal cooperatively:
// before every node visit and partition product, and at every level barrier.
// At most Budget.MaxNodes nodes are ever visited. An interrupted run keeps
// everything already computed, never visits a partially generated level,
// reports Stats.Interrupted and still emits the progress event of its
// partially visited level.
func RunNodes[S any](e *Engine, root S, visit func(worker int, n Node, deps []S) (S, bool)) {
	defer e.trapTraversal()
	e.started = time.Now()
	if e.budget.Timeout > 0 {
		e.deadline = e.started.Add(e.budget.Timeout)
	}
	e.firstLevel()
	deps := make([][]S, e.workers)
	for wk := range deps {
		deps[wk] = make([]S, 0, e.numAttrs)
	}
	// prev holds the states of level l-1, indexed like it; level 0 is the
	// empty set, whose state is root.
	prev := []S{root}
	for l := 1; l < len(e.levels) && len(e.levels[l].sets) > 0; l++ {
		// The interrupt may have fired between levels (or during level
		// generation, whose partitions would then be incomplete), and a node
		// budget spent exactly by the previous level leaves nothing for this
		// one: either way the level is abandoned before any node is visited.
		if e.checkInterrupt() || NodesSpent(e.budget) {
			e.stop.Store(true)
			e.stats.Interrupted = true
			break
		}
		start := time.Now()
		e.stats.MaxLevelReached = l
		states, pruned, visited := visitLevel(e, l, prev, deps, visit)
		e.stats.NodesVisited += visited
		if e.stopped() {
			// The level was only partially visited; its statistics are still
			// stamped so partial reports stay coherent.
			e.stats.Interrupted = true
			e.finishLevel(l, visited, start)
			break
		}
		// Past MaxLevel the loop ends: the products of a level that will
		// never be visited are not paid for.
		if e.maxLevel <= 0 || l < e.maxLevel {
			e.levels = append(e.levels, e.nextLevel(l, pruned))
			if e.stopped() {
				// Some products of the next level were never computed; the
				// level must not be visited.
				e.stats.Interrupted = true
				e.finishLevel(l, visited, start)
				break
			}
		}
		// Partitions of level l-2 are no longer needed once level l+1 starts.
		if l >= 2 {
			e.levels[l-2] = level{}
		}
		e.finishLevel(l, visited, start)
		prev = states
	}
}

// visitLevel hands the nodes of level l to the worker pool and returns each
// node's state and pruning decision, plus the number of nodes handed to
// visit. The stop flag, context and deadline are polled before every node,
// so an interrupt abandons at most the nodes already running. The handout is
// the level's first nodes, as many as the node allowance grants, so the runs
// sharing it never visit more than Budget.MaxNodes nodes; a level the
// allowance cuts short latches the stop flag. Unvisited nodes keep zero
// states.
func visitLevel[S any](e *Engine, l int, prev []S, deps [][]S, visit func(int, Node, []S) (S, bool)) (states []S, pruned []bool, visited int) {
	lv := &e.levels[l]
	n := e.budget.take(len(lv.sets))
	states = make([]S, len(lv.sets))
	pruned = make([]bool, len(lv.sets))
	// Each worker counts its handouts on its own cache line.
	handed := make([]struct {
		n int
		_ [56]byte
	}, e.workers)
	e.parallelFor(n, func(wk, i int) {
		x := lv.sets[i]
		// Recover inside the per-node frame rather than relying on the
		// worker-level trap alone, so a panic is recorded with the node that
		// raised it.
		defer func() {
			if rec := recover(); rec != nil {
				e.recordPanic(rec, x, true)
			}
		}()
		faultinject.Hit(faultinject.NodeDispatch)
		handed[wk].n++
		d := deps[wk][:0]
		for _, j := range lv.subs[i*l : (i+1)*l] {
			d = append(d, prev[j])
		}
		states[i], pruned[i] = visit(wk, Node{Level: l, X: x, e: e, i: i}, d)
	})
	for _, h := range handed {
		visited += h.n
	}
	if n < len(lv.sets) {
		e.stop.Store(true)
	}
	return states, pruned, visited
}

// stopped reports whether the interrupt flag is latched, without re-deriving
// the signals.
func (e *Engine) stopped() bool { return e.stop.Load() }

// storeGet consults the shared store under the relation's equality signature,
// counting hits and misses. New has bound the store to this engine's relation
// (or its Base), so a stored partition is always the right one.
func (e *Engine) storeGet(x bitset.AttrSet) (*partition.Partition, bool) {
	if e.store == nil {
		return nil, false
	}
	p, ok := e.store.Get(x, e.enc.Equality)
	if ok {
		e.stats.PartitionHits++
	} else {
		e.stats.PartitionMisses++
	}
	return p, ok
}

func (e *Engine) storePut(x bitset.AttrSet, p *partition.Partition) {
	if e.store != nil {
		e.store.Put(x, e.enc.Equality, p)
	}
}

// firstLevel seeds levels 0 (the empty set) and 1 (the singletons);
// per-column partitions are independent and are built in parallel, except
// those already present in the shared store.
func (e *Engine) firstLevel() {
	empty := bitset.AttrSet(0)
	p0, ok := e.storeGet(empty)
	if !ok {
		p0 = partition.FromConstant(e.enc.NumRows())
		e.storePut(empty, p0)
	}
	// Every singleton's one immediate subset is the empty set, node 0 of
	// level 0, so subs stays all zero.
	one := level{
		sets:  make([]bitset.AttrSet, e.numAttrs),
		parts: make([]*partition.Partition, e.numAttrs),
		subs:  make([]int32, e.numAttrs),
	}
	miss := make([]int, 0, e.numAttrs)
	for a := range e.numAttrs {
		x := bitset.NewAttrSet(a)
		one.sets[a] = x
		if p, ok := e.storeGet(x); ok {
			one.parts[a] = p
		} else {
			miss = append(miss, a)
		}
	}
	e.parallelFor(len(miss), func(_, k int) {
		a := miss[k]
		one.parts[a] = partition.FromColumn(e.enc.Column(a), e.enc.Cardinality[a])
	})
	for _, a := range miss {
		e.storePut(one.sets[a], one.parts[a])
	}
	e.levels = []level{{sets: []bitset.AttrSet{empty}, parts: []*partition.Partition{p0}}, one}
}

// nextLevel is Algorithm 2 of the paper: it joins pairs of level l's
// unpruned nodes that share all but their largest attribute (prefix blocks),
// keeps only candidates whose every immediate subset survived, and derives
// the new nodes' partitions. The two joined nodes are two of a candidate's
// immediate subsets; the others come from one index over the survivors.
// Nodes come out in prefix order (prefixes ascending as attribute sets,
// members ascending within a block), which fixes where a node budget cuts a
// level and the order of the store's probes and puts. Join enumeration is
// sequential (cheap bit-set work). The partitions run in parallel, each
// worker reusing its own scratch: Π(X) = Π(X\B)·Π({B}), so each is the
// smaller joined node's partition refined by the column of the attribute it
// lacks (partition.RefineWith), a superkey parent costing nothing. The
// shared store is probed during enumeration itself: a hit skips the
// refinement, so a warm store reduces level generation to bit-set work.
func (e *Engine) nextLevel(l int, pruned []bool) level {
	cur := &e.levels[l]
	type member struct {
		prefix bitset.AttrSet
		last   int
		idx    int32
	}
	members := make([]member, 0, len(cur.sets))
	index := make(map[bitset.AttrSet]int32, len(cur.sets))
	for i, x := range cur.sets {
		if pruned[i] {
			continue
		}
		last := bits.Len64(uint64(x)) - 1
		members = append(members, member{x.Remove(last), last, int32(i)})
		index[x] = int32(i)
	}
	slices.SortFunc(members, func(p, q member) int {
		if c := cmp.Compare(p.prefix, q.prefix); c != 0 {
			return c
		}
		return cmp.Compare(p.last, q.last)
	})
	// A block of k members joins into at most k(k-1)/2 candidates: each
	// member pairs with those before it in its block.
	size, start := 0, 0
	for i := range members {
		if members[i].prefix != members[start].prefix {
			start = i
		}
		size += i - start
	}

	width := l + 1 // immediate subsets per level-(l+1) node
	next := level{
		sets:  make([]bitset.AttrSet, 0, size),
		parts: make([]*partition.Partition, 0, size),
		subs:  make([]int32, 0, size*width),
	}
	// miss lists the candidates whose partition is a product to compute;
	// store hits never occupy a slot.
	miss := make([]int, 0, size)
	for i, left := range members {
	pairs:
		for _, right := range members[i+1:] {
			if right.prefix != left.prefix {
				break // the block ends
			}
			x := left.prefix.Add(left.last).Add(right.last)
			// Subsets in ascending order of the removed attribute: the
			// prefix's attributes first, then X\B (right's node) and X\C
			// (left's node), B < C being the joined attributes.
			n := len(next.subs)
			for v := uint64(left.prefix); v != 0; v &= v - 1 {
				j, ok := index[x.Remove(bits.TrailingZeros64(v))]
				if !ok {
					next.subs = next.subs[:n] // a subset was pruned
					continue pairs
				}
				next.subs = append(next.subs, j)
			}
			next.subs = append(next.subs, right.idx, left.idx)
			p, ok := e.storeGet(x)
			if !ok {
				miss = append(miss, len(next.sets))
			}
			next.sets = append(next.sets, x)
			next.parts = append(next.parts, p)
		}
	}

	e.parallelFor(len(miss), func(wk, k int) {
		i := miss[k]
		// A panic inside the product (an invariant violation, or an injected
		// fault) is recorded with the node it was computing, so the recovered
		// stack names the offending attribute set; the worker-level trap would
		// only know the goroutine.
		defer func() {
			if rec := recover(); rec != nil {
				e.recordPanic(rec, next.sets[i], true)
			}
		}()
		faultinject.Hit(faultinject.PartitionProduct)
		// The joined nodes are X\B and X\C, B < C being X's two largest
		// attributes. Refining X\B by B on a tie reproduces the two-operand
		// product Π(X\C)·Π(X\B) exactly, rows and class order alike.
		x, subs := next.sets[i], next.subs[i*width:(i+1)*width]
		c := bits.Len64(uint64(x)) - 1
		b := bits.Len64(uint64(x.Remove(c))) - 1
		parent, a := cur.parts[subs[width-2]], b
		if pc := cur.parts[subs[width-1]]; pc.Size() < parent.Size() {
			parent, a = pc, c
		}
		next.parts[i] = parent.RefineWith(e.enc.Column(a), e.enc.Cardinality[a], e.scratch[wk])
	})
	for _, i := range miss {
		e.storePut(next.sets[i], next.parts[i])
	}
	return next
}
