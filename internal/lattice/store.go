package lattice

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/bitset"
	"repro/internal/faultinject"
	"repro/internal/partition"
	"repro/internal/relation"
)

// DefaultStoreCost is the default memory bound of a PartitionStore in bytes
// of retained class data (16 MiB). Entry costs are byte-exact: each cached
// partition is charged its flat rows arena plus its class-offset index (see
// partition.FootprintBytes).
const DefaultStoreCost = 16 << 20

// pinnedMaxLevel is the deepest attribute-set level whose entries are pinned:
// the empty-set partition (level 0) and the singleton partitions (level 1)
// seed every traversal, there are at most numAttrs+1 of them, and every
// deeper partition is derived from them — so they are evicted only as a last
// resort, when no deeper entry is left to make room.
const pinnedMaxLevel = 1

// PartitionStore memoizes stripped partitions keyed by attribute set, so they
// are computed once and reused across discovery runs: the pruned and
// un-pruned FASTOD passes of one experiment, repeated runs on the same
// dataset (e.g. behind the advisor), or different algorithms (FASTOD, TANE,
// approximate, bidirectional) profiling the same relation.
//
// The store is bounded: every entry is charged the exact byte size of its
// flat class data (rows arena + offsets index), and entries are evicted once
// the total exceeds the bound, so memory stays predictable on wide relations
// whose lattices materialize millions of attribute sets.
//
// Eviction is level-weighted, not purely LRU: a partition over a small
// attribute set is exponentially more reusable than a deep one (it is a
// sub-expression of exponentially many supersets, and every traversal
// revisits the shallow levels first), so the victim is always the
// least-recently-used entry of the DEEPEST level present, and the level-0/1
// seed partitions are pinned until nothing deeper is left. Within one level
// the policy degenerates to plain LRU.
//
// A store belongs to one relation instance: the first engine run binds it to
// its *relation.Encoded, and building an engine over a different relation
// with the same store fails loudly rather than silently serving the wrong
// partitions. (As a second line of defense for direct Put callers, the row
// count is also pinned and mismatching puts are dropped.) Partitions handed
// out are shared between callers and goroutines; this is safe because
// partitions are immutable after construction — the flat arena is never
// written again, and Class hands out read-only views (see the package
// partition docs for the contract).
//
// All methods are safe for concurrent use.
type PartitionStore struct {
	mu      sync.Mutex
	maxCost int
	owner   *relation.Encoded // pinned by the first engine bind; nil before
	rows    int               // pinned by the first Put; -1 before
	cost    int
	entries map[bitset.AttrSet]*list.Element
	// lrus holds one recency list per attribute-set level (index = |X|);
	// front = most recently used. Values are *storeEntry.
	lrus []*list.List
	// deepest is the highest level with entries, maintained as an eviction
	// scan hint; levels above it are all empty.
	deepest int
	stats   StoreStats
}

type storeEntry struct {
	key   bitset.AttrSet
	p     *partition.Partition
	cost  int
	level int
}

// StoreStats describes a store's accounting at one point in time.
type StoreStats struct {
	// Hits and Misses count Get outcomes.
	Hits, Misses int
	// Puts counts partitions accepted into the store; Evictions counts
	// entries removed to respect the bound.
	Puts, Evictions int
	// Entries and Cost describe the current contents; Cost is in bytes of
	// retained class data and never exceeds MaxCost.
	Entries, Cost, MaxCost int
}

// NewPartitionStore builds an empty store bounded to maxCost bytes of
// retained class data; maxCost <= 0 selects DefaultStoreCost.
func NewPartitionStore(maxCost int) *PartitionStore {
	if maxCost <= 0 {
		maxCost = DefaultStoreCost
	}
	return &PartitionStore{
		maxCost: maxCost,
		rows:    -1,
		entries: make(map[bitset.AttrSet]*list.Element),
		lrus:    make([]*list.List, bitset.MaxAttrs+1),
	}
}

// entryCost charges a partition its exact flat footprint. Even an empty
// (superkey) partition — cheap but very valuable to cache — carries its
// offsets sentinel, so every entry has positive accounting weight.
func entryCost(p *partition.Partition) int {
	c := p.FootprintBytes()
	if c <= 0 {
		c = 1
	}
	return c
}

// bind pins the store to one relation instance. The first bind wins;
// binding to a different relation is an error, which engines surface from
// New so misuse fails before any wrong partition can be served.
func (s *PartitionStore) bind(enc *relation.Encoded) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.owner == nil {
		s.owner = enc
		return nil
	}
	if s.owner != enc {
		return fmt.Errorf("lattice: partition store is bound to a different relation (a store must only be shared between runs over the same relation instance)")
	}
	return nil
}

// Get returns the memoized partition for an attribute set, refreshing its
// recency within its level.
func (s *PartitionStore) Get(x bitset.AttrSet) (*partition.Partition, bool) {
	if err := faultinject.Fire(faultinject.StoreGet); err != nil {
		// An injected lookup failure degrades to a miss: the caller recomputes
		// the partition, trading CPU for availability. (Fired before the lock
		// so an injected panic never wedges the store.)
		s.mu.Lock()
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[x]
	if !ok {
		s.stats.Misses++
		return nil, false
	}
	s.lrus[el.Value.(*storeEntry).level].MoveToFront(el)
	s.stats.Hits++
	return el.Value.(*storeEntry).p, true
}

// Put memoizes a partition. Puts for a different relation (row-count
// mismatch with the pinned one) and partitions larger than the whole bound
// are dropped; otherwise entries are evicted — deepest level first, LRU
// within a level — until the new entry fits.
func (s *PartitionStore) Put(x bitset.AttrSet, p *partition.Partition) {
	if p == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rows == -1 {
		s.rows = p.NumRows
	} else if s.rows != p.NumRows {
		return
	}
	cost := entryCost(p)
	if cost > s.maxCost {
		return
	}
	if el, ok := s.entries[x]; ok {
		// Refresh: another run recomputed the same partition (e.g. after an
		// eviction race); keep the existing entry, update recency.
		s.lrus[el.Value.(*storeEntry).level].MoveToFront(el)
		return
	}
	for s.cost+cost > s.maxCost {
		if !s.evictOne() {
			break
		}
	}
	level := x.Len()
	if s.lrus[level] == nil {
		s.lrus[level] = list.New()
	}
	el := s.lrus[level].PushFront(&storeEntry{key: x, p: p, cost: cost, level: level})
	s.entries[x] = el
	s.cost += cost
	if level > s.deepest {
		s.deepest = level
	}
	s.stats.Puts++
}

// evictOne removes one entry under the level-weighted policy: the
// least-recently-used entry of the deepest non-empty unpinned level, falling
// back to the pinned seed levels (deepest first) only when nothing else is
// left. It reports whether an entry was evicted; callers hold the lock.
func (s *PartitionStore) evictOne() bool {
	if err := faultinject.Fire(faultinject.StoreEvict); err != nil {
		// An injected eviction failure stops this Put's eviction loop: the
		// store temporarily overshoots its bound instead of failing the run.
		return false
	}
	for pass := 0; pass < 2; pass++ {
		lo := pinnedMaxLevel + 1
		if pass == 1 {
			lo = 0 // fall back to the pinned seed levels
		}
		hi := s.deepest
		if pass == 1 && hi > pinnedMaxLevel {
			hi = pinnedMaxLevel
		}
		for l := hi; l >= lo; l-- {
			lru := s.lrus[l]
			if lru == nil || lru.Len() == 0 {
				continue
			}
			el := lru.Back()
			ent := el.Value.(*storeEntry)
			lru.Remove(el)
			delete(s.entries, ent.key)
			s.cost -= ent.cost
			s.stats.Evictions++
			for s.deepest > 0 && (s.lrus[s.deepest] == nil || s.lrus[s.deepest].Len() == 0) {
				s.deepest--
			}
			return true
		}
	}
	return false
}

// Len returns the number of memoized partitions.
func (s *PartitionStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats returns a snapshot of the store's accounting.
func (s *PartitionStore) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	st.Cost = s.cost
	st.MaxCost = s.maxCost
	return st
}

// Reset drops every entry and the pinned relation but keeps the cumulative
// hit/miss counters, so a store can be reused for a different relation.
func (s *PartitionStore) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = make(map[bitset.AttrSet]*list.Element)
	s.lrus = make([]*list.List, bitset.MaxAttrs+1)
	s.deepest = 0
	s.cost = 0
	s.rows = -1
	s.owner = nil
}
