package lru

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/faultinject"
)

// resident reports which of keys are resident, without touching recency or
// the hit counters.
func resident(c *Cache[string, int], keys ...string) map[string]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]bool, len(keys))
	for _, k := range keys {
		_, out[k] = c.items[k]
	}
	return out
}

func wantResident(t *testing.T, c *Cache[string, int], in []string, out []string) {
	t.Helper()
	got := resident(c, append(append([]string(nil), in...), out...)...)
	for _, k := range in {
		if !got[k] {
			t.Errorf("%s was evicted, want it resident", k)
		}
	}
	for _, k := range out {
		if got[k] {
			t.Errorf("%s is resident, want it evicted", k)
		}
	}
}

// TestTierOrder: the victim is the least recently used entry of the highest
// non-empty tier, whatever the recency of lower tiers.
func TestTierOrder(t *testing.T) {
	c := New[string, int](3)
	c.Add("a0", 0, 1, 0) // oldest entry, lowest tier
	c.Add("b2", 0, 1, 2)
	c.Add("c1", 0, 1, 1)
	c.Add("d1", 0, 1, 1) // full: evicts b2, the only tier-2 entry
	wantResident(t, c, []string{"a0", "c1", "d1"}, []string{"b2"})

	c.Get("c1")          // within tier 1, d1 is now least recently used
	c.Add("e0", 0, 1, 0) // tier 1 still goes before tier 0
	wantResident(t, c, []string{"a0", "c1", "e0"}, []string{"d1"})

	c.Add("f0", 0, 1, 0) // evicts c1, the last tier-1 entry
	wantResident(t, c, []string{"a0", "e0", "f0"}, []string{"c1"})

	c.Get("a0") // only tier 0 is left: plain LRU, e0 is oldest
	c.Add("g0", 0, 1, 0)
	wantResident(t, c, []string{"a0", "f0", "g0"}, []string{"e0"})

	if st := c.Stats(); st.Evictions != 4 || st.Cost != 3 || st.Entries != 3 {
		t.Errorf("stats = %+v, want 4 evictions and 3 entries costing 3", st)
	}
}

// TestDuplicateAddKeepsResident: adding a resident key keeps and returns the
// resident value, refreshes its recency, and is not a new put.
func TestDuplicateAddKeepsResident(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1, 1, 0)
	c.Add("b", 2, 1, 0)
	got, ok := c.Add("a", 99, 1, 0)
	if !ok || got != 1 {
		t.Fatalf("duplicate Add = (%d, %v), want the resident (1, true)", got, ok)
	}
	if v, _ := c.Get("a"); v != 1 {
		t.Errorf("Get after duplicate Add = %d, want the resident 1", v)
	}
	c.Add("c", 3, 1, 0) // a was refreshed, so b is the victim
	wantResident(t, c, []string{"a", "c"}, []string{"b"})
	if st := c.Stats(); st.Puts != 3 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 3 puts (the duplicate is not one) and 2 entries", st)
	}
}

// TestOversizedValueEvictsNothing: a value costing more than the whole bound
// is handed back unretained, and every resident entry stays.
func TestOversizedValueEvictsNothing(t *testing.T) {
	c := New[string, int](10)
	c.Add("a", 1, 5, 0)
	c.Add("b", 2, 5, 3)
	got, ok := c.Add("big", 7, 11, 0)
	if ok || got != 7 {
		t.Fatalf("oversized Add = (%d, %v), want its own value and false", got, ok)
	}
	wantResident(t, c, []string{"a", "b"}, []string{"big"})
	want := Stats{Puts: 2, Entries: 2, Cost: 10, MaxCost: 10}
	if st := c.Stats(); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	// A value exactly at the bound is retained, evicting everything else.
	if _, ok := c.Add("full", 8, 10, 0); !ok {
		t.Fatal("a value costing exactly the bound was refused")
	}
	wantResident(t, c, []string{"full"}, []string{"a", "b"})
}

// TestStatsAfterEachOperation follows the counters through a short script.
func TestStatsAfterEachOperation(t *testing.T) {
	c := New[string, int](5)
	steps := []struct {
		name string
		op   func()
		want Stats
	}{
		{"new", func() {}, Stats{MaxCost: 5}},
		{"miss", func() { c.Get("a") }, Stats{Misses: 1, MaxCost: 5}},
		{"add a", func() { c.Add("a", 1, 2, 0) }, Stats{Misses: 1, Puts: 1, Entries: 1, Cost: 2, MaxCost: 5}},
		{"hit a", func() { c.Get("a") }, Stats{Hits: 1, Misses: 1, Puts: 1, Entries: 1, Cost: 2, MaxCost: 5}},
		{"add b", func() { c.Add("b", 2, 3, 1) }, Stats{Hits: 1, Misses: 1, Puts: 2, Entries: 2, Cost: 5, MaxCost: 5}},
		{"re-add a", func() { c.Add("a", 9, 2, 0) }, Stats{Hits: 1, Misses: 1, Puts: 2, Entries: 2, Cost: 5, MaxCost: 5}},
		{"add c", func() { c.Add("c", 3, 1, 0) }, Stats{Hits: 1, Misses: 1, Puts: 3, Evictions: 1, Entries: 2, Cost: 3, MaxCost: 5}},
		{"oversized", func() { c.Add("d", 4, 6, 0) }, Stats{Hits: 1, Misses: 1, Puts: 3, Evictions: 1, Entries: 2, Cost: 3, MaxCost: 5}},
		{"miss b", func() { c.Get("b") }, Stats{Hits: 1, Misses: 2, Puts: 3, Evictions: 1, Entries: 2, Cost: 3, MaxCost: 5}},
	}
	for _, s := range steps {
		s.op()
		if got := c.Stats(); got != s.want {
			t.Fatalf("after %s: stats = %+v, want %+v", s.name, got, s.want)
		}
		if c.Len() != s.want.Entries {
			t.Fatalf("after %s: Len = %d, want %d", s.name, c.Len(), s.want.Entries)
		}
	}
}

// TestInjectedGetIsMiss: a failed lookup degrades to a miss and the entry
// stays; the next lookup hits.
func TestInjectedGetIsMiss(t *testing.T) {
	c := New[string, int](5)
	c.Add("a", 1, 1, 0)
	plan := faultinject.NewPlan(faultinject.Rule{Point: faultinject.StoreGet, Action: faultinject.ActionError, Times: 1})
	disarm := faultinject.Enable(plan)
	_, failed := c.Get("a")
	v, ok := c.Get("a")
	disarm()
	if failed {
		t.Error("lookup hit despite an injected store.get fault")
	}
	if !ok || v != 1 {
		t.Errorf("lookup after the fault = (%d, %v), want (1, true)", v, ok)
	}
	if plan.Fired() != 1 || plan.Hits(faultinject.StoreGet) != 2 {
		t.Errorf("plan fired %d of %d hits, want 1 of 2 (one per lookup)", plan.Fired(), plan.Hits(faultinject.StoreGet))
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
}

// TestInjectedEvictOvershootsThenRecovers: a failed eviction stops the
// loop, so the cache overshoots its bound; the next insert evicts until it
// fits again.
func TestInjectedEvictOvershootsThenRecovers(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1, 1, 0)
	c.Add("b", 2, 1, 0)
	plan := faultinject.NewPlan(faultinject.Rule{Point: faultinject.StoreEvict, Action: faultinject.ActionError, Times: 1})
	disarm := faultinject.Enable(plan)
	c.Add("c", 3, 1, 0)
	disarm()
	if plan.Fired() != 1 {
		t.Fatalf("store.evict fired %d times, want 1", plan.Fired())
	}
	if st := c.Stats(); st.Cost != 3 || st.Entries != 3 || st.Evictions != 0 {
		t.Fatalf("after the failed eviction: stats = %+v, want 3 entries costing 3 over a bound of 2, no eviction", st)
	}
	c.Add("d", 4, 1, 0)
	wantResident(t, c, []string{"c", "d"}, []string{"a", "b"})
	if st := c.Stats(); st.Cost != 2 || st.Entries != 2 || st.Evictions != 2 {
		t.Errorf("after recovery: stats = %+v, want 2 entries costing 2 and 2 evictions", st)
	}
}

// TestInjectedEvictFiresPerVictim: the eviction point fires once per victim,
// so a value that needs two victims makes two hits.
func TestInjectedEvictFiresPerVictim(t *testing.T) {
	c := New[string, int](3)
	c.Add("a", 1, 1, 0)
	c.Add("b", 2, 1, 0)
	c.Add("c", 3, 1, 0)
	plan := faultinject.NewPlan(faultinject.Rule{Point: faultinject.StoreEvict, Action: faultinject.ActionError, After: 1 << 20})
	disarm := faultinject.Enable(plan)
	c.Add("d", 4, 2, 0)
	disarm()
	if got := plan.Hits(faultinject.StoreEvict); got != 2 {
		t.Errorf("store.evict hit %d times for two victims, want 2", got)
	}
}

// TestInjectedPanicLeavesCacheUsable: a panic raised at either point
// unwinds without holding the lock or corrupting the accounting.
func TestInjectedPanicLeavesCacheUsable(t *testing.T) {
	c := New[string, int](1)
	c.Add("a", 1, 1, 0)
	for _, point := range []faultinject.Point{faultinject.StoreGet, faultinject.StoreEvict} {
		func() {
			defer faultinject.Enable(faultinject.NewPlan(faultinject.Rule{Point: point, Action: faultinject.ActionPanic}))()
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no injected panic", point)
				}
			}()
			c.Get("a")
			c.Add("b", 2, 1, 0)
		}()
	}
	if st := c.Stats(); st.Entries != 1 || st.Cost != 1 {
		t.Fatalf("stats after injected panics = %+v, want the one entry", st)
	}
	c.Add("b", 2, 1, 0)
	wantResident(t, c, []string{"b"}, []string{"a"})
}

// TestConcurrentChurn hammers one cache from several goroutines (run it
// under -race). Once quiescent the bound holds and the counters reconcile
// with the contents.
func TestConcurrentChurn(t *testing.T) {
	const workers, ops = 8, 2000
	c := New[string, int](100)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < ops; i++ {
				k := rng.Intn(64)
				key := fmt.Sprintf("k%d", k)
				if rng.Intn(2) == 0 {
					if v, ok := c.Get(key); ok && v != k {
						t.Errorf("Get(%s) = %d", key, v)
						return
					}
					continue
				}
				// A key's cost and tier are functions of the key, as in every
				// cache built on the core.
				if v, ok := c.Add(key, k, 1+k%16, k%4); ok && v != k {
					t.Errorf("Add(%s) returned %d", key, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Cost > st.MaxCost {
		t.Errorf("cost %d exceeds bound %d after churn", st.Cost, st.MaxCost)
	}
	if st.Puts-st.Evictions != st.Entries || st.Entries != c.Len() {
		t.Errorf("stats = %+v, Len %d: puts minus evictions must equal entries", st, c.Len())
	}
	if st.Hits+st.Misses == 0 || st.Evictions == 0 {
		t.Errorf("stats = %+v: churn exercised neither lookups nor evictions", st)
	}
	sum := 0
	c.mu.Lock()
	for key, el := range c.items {
		e := el.Value.(*entry[string, int])
		if e.key != key {
			t.Errorf("entry %s filed under %s", e.key, key)
		}
		sum += e.cost
	}
	c.mu.Unlock()
	if sum != st.Cost {
		t.Errorf("resident entries cost %d, Stats.Cost %d", sum, st.Cost)
	}
}
