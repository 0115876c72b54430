// Package lru is the one cache core behind the repository's memos: the
// partition store (lattice.PartitionStore), odserve's report cache
// (internal/server) and a dataset's per-spec re-encodings. It is a
// byte-bounded, concurrency-safe map with least-recently-used eviction.
//
// Every entry carries a cost, charged against the cache's single bound, and
// a tier. The eviction victim is the least recently used entry of the
// highest non-empty tier, so a cache that files everything under tier 0 is
// plain LRU, while the partition store files each partition under its
// attribute-set level and so evicts deep partitions before shallow ones.
// The insertion rules every cache shares are those of Add.
//
// Two fault points fire inside the core, so every cache shares one failure
// contract: faultinject.StoreGet once per lookup (a failed lookup is a
// miss) and faultinject.StoreEvict once per victim (a failed eviction stops
// the loop, and the cache overshoots its bound until a later insert evicts).
package lru

import (
	"container/list"
	"sync"

	"repro/internal/faultinject"
)

// Cache is a byte-bounded LRU map from K to V. The zero value is not usable;
// build one with New. All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	maxCost int
	cost    int
	items   map[K]*list.Element
	// tiers holds one recency list per tier, front = most recently used;
	// values are *entry[K, V].
	tiers []*list.List
	stats Stats
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int
	tier int
}

// Stats describes a cache's accounting at one point in time. Its tags are
// the names odserve's /healthz reports the report cache under; every cache
// in this module charges bytes.
type Stats struct {
	// Hits and Misses count Get outcomes.
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
	// Puts counts values accepted into the cache; Evictions counts entries
	// removed to respect the bound.
	Puts      int `json:"puts"`
	Evictions int `json:"evictions"`
	// Entries and Cost describe the current contents. Cost never exceeds
	// MaxCost except while an injected eviction fault has left the cache
	// overshooting.
	Entries int `json:"entries"`
	Cost    int `json:"cost_bytes"`
	MaxCost int `json:"max_cost_bytes"`
}

// New builds an empty cache bounded to maxCost units of entry cost.
func New[K comparable, V any](maxCost int) *Cache[K, V] {
	return &Cache[K, V]{maxCost: maxCost, items: make(map[K]*list.Element)}
}

// Get returns the value stored under k, refreshing its recency within its
// tier.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	var zero V
	// Fired before the lock, so an injected panic never wedges the cache.
	failed := faultinject.Fire(faultinject.StoreGet) != nil
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if failed || !ok {
		c.stats.Misses++
		return zero, false
	}
	e := el.Value.(*entry[K, V])
	c.tiers[e.tier].MoveToFront(el)
	c.stats.Hits++
	return e.val, true
}

// Add stores v under k at the given non-negative cost and tier and returns
// the value now resident under k, reporting whether k is resident:
//
//   - a key already resident keeps its value, which is returned with its
//     recency refreshed, so concurrent producers of one key all share the
//     first value in;
//   - a value costing more than the whole bound is returned unretained,
//     with false, and evicts nothing;
//   - otherwise entries are evicted, each the least recently used of the
//     highest non-empty tier, until v fits.
func (c *Cache[K, V]) Add(k K, v V, cost, tier int) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cost > c.maxCost {
		return v, false
	}
	if el, ok := c.items[k]; ok {
		e := el.Value.(*entry[K, V])
		c.tiers[e.tier].MoveToFront(el)
		return e.val, true
	}
	for c.cost+cost > c.maxCost {
		if faultinject.Fire(faultinject.StoreEvict) != nil || !c.evictOne() {
			break
		}
	}
	for len(c.tiers) <= tier {
		c.tiers = append(c.tiers, list.New())
	}
	c.items[k] = c.tiers[tier].PushFront(&entry[K, V]{key: k, val: v, cost: cost, tier: tier})
	c.cost += cost
	c.stats.Puts++
	return v, true
}

// evictOne removes the least recently used entry of the highest non-empty
// tier and reports whether there was one. Callers hold the lock.
func (c *Cache[K, V]) evictOne() bool {
	for t := len(c.tiers) - 1; t >= 0; t-- {
		l := c.tiers[t]
		if l.Len() == 0 {
			continue
		}
		e := l.Remove(l.Back()).(*entry[K, V])
		delete(c.items, e.key)
		c.cost -= e.cost
		c.stats.Evictions++
		return true
	}
	return false
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Stats returns a snapshot of the cache's accounting.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.items)
	st.Cost = c.cost
	st.MaxCost = c.maxCost
	return st
}
