package lattice

import (
	"fmt"
	"sync"

	"repro/internal/bitset"
	"repro/internal/lru"
	"repro/internal/partition"
	"repro/internal/relation"
)

// DefaultStoreCost is the default memory bound of a PartitionStore in bytes
// of retained class data (16 MiB). Entry costs are byte-exact: each cached
// partition is charged its flat rows arena plus its class-offset index (see
// partition.FootprintBytes).
const DefaultStoreCost = 16 << 20

// PartitionStore memoizes stripped partitions keyed by attribute set and
// equality signature (relation.Encoded.Equality), so they are computed once
// and reused across discovery runs: the pruned and un-pruned FASTOD passes
// of one experiment, repeated runs on the same dataset (e.g. behind the
// advisor), different algorithms profiling the same relation, or runs under
// order specs with one signature (every spec that merges no values has the
// default's). Classes keep the computing encoding's order; no reader cares.
//
// The store is bounded: every entry is charged the exact byte size of its
// flat class data (rows arena + offsets index), and entries are evicted once
// the total exceeds the bound, so memory stays predictable on wide relations
// whose lattices materialize millions of attribute sets.
//
// Eviction is level-weighted, not purely LRU: a partition over a small
// attribute set is exponentially more reusable than a deep one (it is a
// sub-expression of exponentially many supersets, and every traversal
// revisits the shallow levels first), so each partition is filed in the
// lru core under tier |X| and the victim is always the least-recently-used
// entry of the DEEPEST level present. The level-0/1 seed partitions
// therefore go only when nothing deeper is left. Within one level the
// policy degenerates to plain LRU.
//
// A store belongs to one default encoding and its re-encodings: the first
// engine run binds it to its *relation.Encoded (a re-encoding's Base), and
// building an engine over any other relation with the same store fails
// loudly rather than silently serving the wrong partitions. (As a second
// line of defense for direct Put callers, the row count is also pinned and
// mismatching puts are dropped.) Partitions handed out are shared between
// callers and goroutines; this is safe because partitions are immutable
// after construction — the flat arena is never written again, and Class
// hands out read-only views (see the package partition docs for the
// contract).
//
// All methods are safe for concurrent use.
type PartitionStore struct {
	mu    sync.Mutex
	owner *relation.Encoded // pinned by the first engine bind; nil before
	rows  int               // pinned by the first Put; -1 before
	cache *lru.Cache[storeKey, *partition.Partition]
}

// storeKey files a partition under its attribute set and its encoding's
// equality signature.
type storeKey struct {
	x  bitset.AttrSet
	eq string
}

// StoreStats describes a store's accounting at one point in time; Cost is
// in bytes of retained class data.
type StoreStats = lru.Stats

// NewPartitionStore builds an empty store bounded to maxCost bytes of
// retained class data; maxCost <= 0 selects DefaultStoreCost.
func NewPartitionStore(maxCost int) *PartitionStore {
	if maxCost <= 0 {
		maxCost = DefaultStoreCost
	}
	return &PartitionStore{rows: -1, cache: lru.New[storeKey, *partition.Partition](maxCost)}
}

// bind pins the store to one default encoding: enc itself, or its Base when
// enc re-encodes one. The first bind wins; binding to a different relation
// is an error, which engines surface from New so misuse fails before any
// wrong partition can be served.
func (s *PartitionStore) bind(enc *relation.Encoded) error {
	if enc.Base != nil {
		enc = enc.Base
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.owner == nil {
		s.owner = enc
		return nil
	}
	if s.owner != enc {
		return fmt.Errorf("lattice: partition store is bound to a different relation (a store must only be shared between runs over one default encoding and its re-encodings)")
	}
	return nil
}

// Get returns the memoized partition for an attribute set under an
// equality signature, refreshing its recency within its level.
func (s *PartitionStore) Get(x bitset.AttrSet, eq string) (*partition.Partition, bool) {
	return s.cache.Get(storeKey{x, eq})
}

// Put memoizes a partition under an attribute set and equality signature,
// charged its exact flat footprint (even an empty superkey partition
// carries its offsets sentinel, so every entry has positive weight). Puts
// for a different relation (row-count mismatch with the pinned one) and
// partitions larger than the whole bound are dropped; otherwise entries are
// evicted — deepest level first, LRU within a level — until the new entry
// fits.
func (s *PartitionStore) Put(x bitset.AttrSet, eq string, p *partition.Partition) {
	if p == nil {
		return
	}
	s.mu.Lock()
	if s.rows == -1 {
		s.rows = p.NumRows
	}
	same := s.rows == p.NumRows
	s.mu.Unlock()
	if same {
		s.cache.Add(storeKey{x, eq}, p, p.FootprintBytes(), x.Len())
	}
}

// Len returns the number of memoized partitions.
func (s *PartitionStore) Len() int { return s.cache.Len() }

// Stats returns a snapshot of the store's accounting.
func (s *PartitionStore) Stats() StoreStats { return s.cache.Stats() }
