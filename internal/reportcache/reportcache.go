// Package reportcache is a bounded, concurrency-safe LRU cache of whole
// discovery reports — the answer-level analog of lattice.PartitionStore.
// Where the partition store amortizes the sub-expressions of ONE run, the
// report cache amortizes entire runs across users: a profiling service's
// dominant access pattern is many clients asking the same questions of the
// same dataset, and the second identical question should cost a map lookup,
// not a lattice traversal.
//
// Keys are opaque strings assembled by Key from the three coordinates that
// fully determine a complete report: a dataset name, its version stamp
// (fastod.Dataset.Version — a dataset never changes after construction and
// every dataset gets a fresh stamp, so a key never outlives its data), and
// the canonical request fingerprint (fastod.Request.Fingerprint — requests
// differing only in execution knobs such as Workers share an entry).
//
// Correctness rules are enforced IN the cache, not left to callers: an
// interrupted (partial) report is never stored — where a run stops on budget
// exhaustion depends on machine load and worker scheduling, so a partial
// report is not a function of its key and must be recomputed every time.
// Entries larger than the whole bound are refused rather than evicting
// everything else.
package reportcache

import (
	"fmt"
	"sync/atomic"

	fastod "repro"
	"repro/internal/lru"
)

// DefaultMaxBytes is the default cache bound: 32 MiB of estimated retained
// report data.
const DefaultMaxBytes = 32 << 20

// Cache is the bounded report cache: plain LRU (one tier) on the lru core.
// All methods are safe for concurrent use. Reports handed out are shared,
// not copied — callers must treat them as immutable, the same contract
// discovery results already carry.
type Cache struct {
	lru     *lru.Cache[string, *fastod.Report]
	rejects atomic.Int64
}

// Stats describes a cache's accounting at one point in time: the lru core's
// counters, which lattice.StoreStats shares (here Cost is the estimated
// retained bytes), plus Rejects.
type Stats struct {
	lru.Stats
	// Rejects counts Put calls refused by the correctness rules
	// (interrupted reports, reports larger than the whole bound).
	Rejects int
}

// New builds an empty cache bounded to maxBytes of estimated report data;
// maxBytes <= 0 selects DefaultMaxBytes.
func New(maxBytes int) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Cache{lru: lru.New[string, *fastod.Report](maxBytes)}
}

// Key assembles the cache key of one (dataset, version, request) coordinate.
// The version separator cannot occur in a fingerprint and versions are
// process-unique (see fastod.Dataset.Version), so distinct coordinates can
// never collide even when dataset names contain unusual characters.
func Key(dataset string, version uint64, fingerprint string) string {
	return fmt.Sprintf("%s@%d|%s", dataset, version, fingerprint)
}

// Get returns the cached report for a key, refreshing its recency.
func (c *Cache) Get(key string) (*fastod.Report, bool) { return c.lru.Get(key) }

// Put stores a complete report under a key and reports whether it was
// accepted. Nil and interrupted reports are refused (a partial report is not
// a function of its key — see the package comment), as are reports whose
// estimated size exceeds the whole bound. Storing under an existing key
// refreshes recency and keeps the existing report: complete reports for one
// key are interchangeable, so the first one in wins.
func (c *Cache) Put(key string, rep *fastod.Report) bool {
	if rep != nil && !rep.Interrupted {
		if _, ok := c.lru.Add(key, rep, reportCost(rep), 0); ok {
			return true
		}
	}
	c.rejects.Add(1)
	return false
}

// Len returns the number of cached reports.
func (c *Cache) Len() int { return c.lru.Len() }

// Stats returns a snapshot of the cache's accounting.
func (c *Cache) Stats() Stats {
	return Stats{Stats: c.lru.Stats(), Rejects: int(c.rejects.Load())}
}

// Per-element cost estimates of reportCost, in bytes. Unlike the partition
// store's byte-exact accounting these are approximations (reports are pointer
// shaped, not flat arenas); they only need to be proportional so the bound
// tracks real memory within a small constant factor.
const (
	baseReportCost = 512 // envelope, payload struct, slice headers
	odCost         = 40  // canonical/bidir OD: context set + kind + attrs
	levelStatCost  = 64
	stringCost     = 32 // column name: header + short string data
)

// reportCost estimates the retained bytes of a report's payload.
func reportCost(rep *fastod.Report) int {
	cost := baseReportCost
	addResult := func(res *fastod.Result) {
		if res == nil {
			return
		}
		cost += len(res.ODs)*odCost + len(res.Levels)*levelStatCost + len(res.ColumnNames)*stringCost
	}
	switch {
	case rep.FASTOD != nil:
		addResult(rep.FASTOD)
	case rep.TANE != nil:
		cost += len(rep.TANE.FDs) * odCost
	case rep.Approx != nil:
		cost += len(rep.Approx.ODs) * (odCost + 24) // OD + measured error
	case rep.Bidir != nil:
		cost += len(rep.Bidir.ODs) * (odCost + 8) // OD + polarity
	case rep.Conditional != nil:
		addResult(rep.Conditional.Global)
		cost += len(rep.Conditional.ODs) * (odCost + 32) // OD + condition
	case rep.ORDER != nil:
		res := rep.ORDER
		cost += len(res.Canonical) * odCost
		for _, od := range res.ODs {
			cost += 48 + 8*(len(od.Left)+len(od.Right))
		}
	}
	return cost
}
