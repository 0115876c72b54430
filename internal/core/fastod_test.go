package core

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/canonical"
	"repro/internal/datagen"
	"repro/internal/relation"
)

func encode(t *testing.T, r *relation.Relation) *relation.Encoded {
	t.Helper()
	enc, err := relation.Encode(r)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return enc
}

func discover(t *testing.T, enc *relation.Encoded, opts Options) *Result {
	t.Helper()
	res, err := DiscoverContext(t.Context(), enc, opts)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	return res
}

func TestDiscoverInputValidation(t *testing.T) {
	if _, err := DiscoverContext(t.Context(), nil, Options{}); err == nil {
		t.Error("nil relation must be rejected")
	}
	empty := &relation.Encoded{}
	if _, err := DiscoverContext(t.Context(), empty, Options{}); err == nil {
		t.Error("zero-column relation must be rejected")
	}
}

func TestDiscoverTable1(t *testing.T) {
	enc := encode(t, datagen.Employees())
	idx := map[string]int{}
	for i, n := range enc.ColumnNames {
		idx[n] = i
	}
	res := discover(t, enc, Options{})
	if len(res.ODs) == 0 {
		t.Fatal("expected ODs on Table 1")
	}
	if res.Counts.Total != len(res.ODs) {
		t.Errorf("Counts.Total = %d, len(ODs) = %d", res.Counts.Total, len(res.ODs))
	}
	if res.Counts.Constancy+res.Counts.OrderCompat != res.Counts.Total {
		t.Errorf("count breakdown inconsistent: %+v", res.Counts)
	}

	// Every reported OD holds and is non-trivial.
	for _, od := range res.ODs {
		if od.IsTrivial() {
			t.Errorf("trivial OD reported: %v", od)
		}
		if !canonical.MustHold(enc, od) {
			t.Errorf("reported OD does not hold: %v", od.NamesString(enc.ColumnNames))
		}
	}

	cover := canonical.NewCover(res.ODs)
	sal, tax, perc := idx["sal"], idx["tax"], idx["perc"]
	grp, subg := idx["grp"], idx["subg"]
	yr, bin := idx["yr"], idx["bin"]

	// The paper's running examples (Example 1 mapped through Theorem 5).
	expectations := []struct {
		od   canonical.OD
		want bool
	}{
		{canonical.NewConstancy(bitset.NewAttrSet(sal), tax), true},
		{canonical.NewConstancy(bitset.NewAttrSet(sal), perc), true},
		{canonical.NewConstancy(bitset.NewAttrSet(sal), grp), true},
		{canonical.NewConstancy(bitset.NewAttrSet(sal), subg), true},
		{canonical.NewOrderCompatible(bitset.AttrSet(0), sal, tax), true},
		{canonical.NewOrderCompatible(bitset.NewAttrSet(yr), bin, sal), true},
		{canonical.NewOrderCompatible(bitset.AttrSet(0), sal, subg), false}, // swap (Example 3)
		{canonical.NewConstancy(bitset.NewAttrSet(idx["posit"]), sal), false},
	}
	for _, e := range expectations {
		if got := cover.Implies(e.od); got != e.want {
			t.Errorf("cover.Implies(%v) = %v, want %v", e.od.NamesString(enc.ColumnNames), got, e.want)
		}
	}
	if len(res.ColumnNames) != enc.NumCols() {
		t.Error("ColumnNames not propagated")
	}
}

func TestDiscoverConstantColumn(t *testing.T) {
	enc := encode(t, datagen.FlightLike(60, 6, 1))
	res := discover(t, enc, Options{})
	// flight-like data has a constant year column at index 0: {}: [] -> year
	// must be discovered at level 1 with the empty context.
	found := false
	for _, od := range res.ODs {
		if od.Kind == canonical.Constancy && od.Context.IsEmpty() && od.A == 0 {
			found = true
		}
	}
	if !found {
		t.Error("constant column not reported as {}: [] -> year")
	}
}

func TestDiscoverMatchesReferenceOnRandomRelations(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		rows := 2 + rng.Intn(20)
		cols := 2 + rng.Intn(4) // up to 5 attributes
		var rel *relation.Relation
		if trial%2 == 0 {
			rel = datagen.RandomRelation(rows, cols, 2+rng.Intn(3), rng.Int63())
		} else {
			rel = datagen.RandomStructuredRelation(rows, cols, 3, rng.Int63())
		}
		enc := encode(t, rel)
		want, err := canonical.ReferenceDiscover(enc)
		if err != nil {
			t.Fatal(err)
		}
		got := discover(t, enc, Options{}).ODs
		if len(got) != len(want) {
			t.Fatalf("trial %d (%dx%d): FASTOD found %d ODs, reference %d\n got: %v\nwant: %v",
				trial, rows, cols, len(got), len(want), got, want)
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("trial %d: OD %d differs: got %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestDiscoverCompleteness: the cover of FASTOD's output implies exactly the
// canonical ODs that hold on the instance (Theorem 8).
func TestDiscoverCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 15; trial++ {
		rel := datagen.RandomStructuredRelation(2+rng.Intn(16), 4, 3, rng.Int63())
		enc := encode(t, rel)
		res := discover(t, enc, Options{})
		cover := canonical.NewCover(res.ODs)
		n := enc.NumCols()
		for mask := 0; mask < 1<<uint(n); mask++ {
			ctx := bitset.AttrSet(mask)
			for a := 0; a < n; a++ {
				if ctx.Contains(a) {
					continue
				}
				od := canonical.NewConstancy(ctx, a)
				if canonical.MustHold(enc, od) != cover.Implies(od) {
					t.Fatalf("trial %d: completeness mismatch for %v", trial, od)
				}
				for b := a + 1; b < n; b++ {
					if ctx.Contains(b) {
						continue
					}
					oc := canonical.NewOrderCompatible(ctx, a, b)
					if canonical.MustHold(enc, oc) != cover.Implies(oc) {
						t.Fatalf("trial %d: completeness mismatch for %v", trial, oc)
					}
				}
			}
		}
	}
}

// TestDiscoverMinimality: no reported OD is implied by the others.
func TestDiscoverMinimality(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 20; trial++ {
		rel := datagen.RandomStructuredRelation(2+rng.Intn(16), 4, 3, rng.Int63())
		enc := encode(t, rel)
		res := discover(t, enc, Options{})
		minimized := canonical.Minimize(res.ODs)
		if len(minimized) != len(res.ODs) {
			t.Fatalf("trial %d: output is not minimal: %d ODs reduce to %d", trial, len(res.ODs), len(minimized))
		}
	}
}

func TestDiscoverNoPruningSupersetAndMinimization(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		rel := datagen.RandomStructuredRelation(2+rng.Intn(12), 4, 3, rng.Int63())
		enc := encode(t, rel)
		minimal := discover(t, enc, Options{})
		all := discover(t, enc, Options{Flags: Flags{DisablePruning: true}})

		if all.Counts.Total < minimal.Counts.Total {
			t.Fatalf("trial %d: no-pruning found fewer ODs (%d) than pruned (%d)",
				trial, all.Counts.Total, minimal.Counts.Total)
		}
		// Every OD in the un-pruned output must hold; every minimal OD must be
		// present in the un-pruned output.
		allSet := make(map[canonical.OD]bool, len(all.ODs))
		for _, od := range all.ODs {
			if !canonical.MustHold(enc, od) {
				t.Fatalf("trial %d: invalid OD in no-pruning output: %v", trial, od)
			}
			allSet[od] = true
		}
		for _, od := range minimal.ODs {
			if !allSet[od] {
				t.Fatalf("trial %d: minimal OD %v missing from no-pruning output", trial, od)
			}
		}
		// Minimizing the un-pruned output must reproduce the minimal output.
		reduced := canonical.Minimize(all.ODs)
		if len(reduced) != len(minimal.ODs) {
			t.Fatalf("trial %d: Minimize(all) has %d ODs, FASTOD minimal has %d",
				trial, len(reduced), len(minimal.ODs))
		}
		for i := range reduced {
			if !reduced[i].Equal(minimal.ODs[i]) {
				t.Fatalf("trial %d: minimized OD %d = %v, want %v", trial, i, reduced[i], minimal.ODs[i])
			}
		}
	}
}

func TestDiscoverOptionVariantsAgree(t *testing.T) {
	enc := encode(t, datagen.RandomStructuredRelation(40, 5, 3, 123))
	base := discover(t, enc, Options{})
	variants := map[string]Options{
		"no key pruning":  {Flags: Flags{DisableKeyPruning: true}},
		"no node pruning": {Flags: Flags{DisableNodePruning: true}},
		"no key, no node": {Flags: Flags{DisableKeyPruning: true, DisableNodePruning: true}},
	}
	for name, opts := range variants {
		got := discover(t, enc, opts)
		if len(got.ODs) != len(base.ODs) {
			t.Errorf("%s: %d ODs, want %d", name, len(got.ODs), len(base.ODs))
			continue
		}
		for i := range base.ODs {
			if !got.ODs[i].Equal(base.ODs[i]) {
				t.Errorf("%s: OD %d = %v, want %v", name, i, got.ODs[i], base.ODs[i])
				break
			}
		}
	}
}

func TestDiscoverCountOnly(t *testing.T) {
	enc := encode(t, datagen.Employees())
	full := discover(t, enc, Options{})
	counted := discover(t, enc, Options{Flags: Flags{CountOnly: true}})
	if counted.ODs != nil {
		t.Error("CountOnly must not materialize ODs")
	}
	if counted.Counts != full.Counts {
		t.Errorf("CountOnly counts = %+v, want %+v", counted.Counts, full.Counts)
	}
}

func TestDiscoverMaxLevelAndLevelStats(t *testing.T) {
	enc := encode(t, datagen.Employees())
	res := discover(t, enc, Options{MaxLevel: 2, Flags: Flags{CollectLevelStats: true}})
	if len(res.Levels) != 2 {
		t.Fatalf("levels recorded = %d, want 2", len(res.Levels))
	}
	if res.Levels[0].Level != 1 || res.Levels[1].Level != 2 {
		t.Errorf("level numbering wrong: %+v", res.Levels)
	}
	if res.Levels[1].Nodes == 0 {
		t.Error("level 2 should have nodes")
	}
	// All ODs from a depth-limited run must still hold and have small contexts.
	for _, od := range res.ODs {
		if !canonical.MustHold(enc, od) {
			t.Errorf("OD from depth-limited run does not hold: %v", od)
		}
		if od.Context.Len() > 1 {
			t.Errorf("OD context too large for MaxLevel=2: %v", od)
		}
	}
	// Stats should reflect the traversal.
	if res.Stats.NodesVisited == 0 || res.Stats.MaxLevelReached != 2 {
		t.Errorf("stats = %+v", res.Stats)
	}
	sumC, sumO := 0, 0
	for _, ls := range res.Levels {
		sumC += ls.Constancy
		sumO += ls.OrderCompat
	}
	if sumC != res.Counts.Constancy || sumO != res.Counts.OrderCompat {
		t.Errorf("per-level counts (%d,%d) do not add up to totals %+v", sumC, sumO, res.Counts)
	}
}

func TestDiscoverResultFilters(t *testing.T) {
	enc := encode(t, datagen.Employees())
	res := discover(t, enc, Options{})
	fds := res.ConstancyODs()
	ocs := res.OrderCompatibleODs()
	if len(fds)+len(ocs) != len(res.ODs) {
		t.Errorf("filters lose ODs: %d + %d != %d", len(fds), len(ocs), len(res.ODs))
	}
	for _, od := range fds {
		if od.Kind != canonical.Constancy {
			t.Error("ConstancyODs returned a non-constancy OD")
		}
	}
	for _, od := range ocs {
		if od.Kind != canonical.OrderCompatible {
			t.Error("OrderCompatibleODs returned a constancy OD")
		}
	}
}

func TestDiscoverSingleColumnAndKeyRelation(t *testing.T) {
	// Single constant column.
	rel, err := relation.FromRows("one", []string{"c"}, [][]string{{"5"}, {"5"}, {"5"}})
	if err != nil {
		t.Fatal(err)
	}
	res := discover(t, encode(t, rel), Options{})
	if len(res.ODs) != 1 || !res.ODs[0].Equal(canonical.NewConstancy(bitset.AttrSet(0), 0)) {
		t.Errorf("constant single column ODs = %v", res.ODs)
	}

	// Two-column key relation: each column is a key, so each determines the
	// other, and the pair is order compatible or not depending on the order.
	rel2, err := relation.FromRows("keys", []string{"a", "b"}, [][]string{
		{"1", "30"}, {"2", "20"}, {"3", "10"},
	})
	if err != nil {
		t.Fatal(err)
	}
	enc2 := encode(t, rel2)
	res2 := discover(t, enc2, Options{})
	cover := canonical.NewCover(res2.ODs)
	if !cover.ImpliesConstancy(bitset.NewAttrSet(0), 1) || !cover.ImpliesConstancy(bitset.NewAttrSet(1), 0) {
		t.Error("key columns must determine each other")
	}
	// a ascending while b descending: no order compatibility at the empty context.
	if cover.ImpliesOrderCompat(bitset.AttrSet(0), 0, 1) {
		t.Error("{}: a ~ b must not hold for reversed orders")
	}
}

func TestDiscoverDateDimQueryOptimizationODs(t *testing.T) {
	enc := encode(t, datagen.DateDim(200))
	idx := map[string]int{}
	for i, n := range enc.ColumnNames {
		idx[n] = i
	}
	res := discover(t, enc, Options{})
	cover := canonical.NewCover(res.ODs)
	// The introduction's motivating ODs: the surrogate key orders the date and
	// the year, and month determines/orders quarter.
	if !cover.ImpliesConstancy(bitset.NewAttrSet(idx["d_date_sk"]), idx["d_year"]) {
		t.Error("{d_date_sk}: [] -> d_year should be implied")
	}
	if !cover.ImpliesOrderCompat(bitset.AttrSet(0), idx["d_date_sk"], idx["d_year"]) {
		t.Error("{}: d_date_sk ~ d_year should be implied")
	}
	if !cover.ImpliesConstancy(bitset.NewAttrSet(idx["d_month"]), idx["d_quarter"]) {
		t.Error("{d_month}: [] -> d_quarter should be implied")
	}
	if !cover.ImpliesOrderCompat(bitset.AttrSet(0), idx["d_month"], idx["d_quarter"]) {
		t.Error("{}: d_month ~ d_quarter should be implied")
	}
	// d_version is constant.
	if !cover.ImpliesConstancy(bitset.AttrSet(0), idx["d_version"]) {
		t.Error("{}: [] -> d_version should be implied")
	}
}

// TestDiscoverAllocsPerNode bounds FASTOD's allocations per visited lattice
// node on Exp-2's attribute axis (hepatitis-like 155×13, about 7 900 nodes).
// There the live heap stays far below the collector's 4 MB floor, so every
// allocation turns into GC work. A node needs its candidate pair set and
// one partition product (the Partition and one buffer for its rows and
// offsets); the level slices spread over a level's nodes.
func TestDiscoverAllocsPerNode(t *testing.T) {
	enc := encode(t, datagen.HepatitisLike(155, 13, 2017))
	var res *Result
	allocs := testing.AllocsPerRun(3, func() {
		res = discover(t, enc, Options{Workers: 1})
	})
	if perNode := allocs / float64(res.Stats.NodesVisited); perNode > 4 {
		t.Errorf("%.0f allocations over %d nodes = %.2f per node, want at most 4",
			allocs, res.Stats.NodesVisited, perNode)
	}
}
