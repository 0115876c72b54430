package conditional

import (
	"math"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/canonical"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/lattice"
	"repro/internal/relation"
)

// bracketRelation builds a relation where "rate" increases with "income"
// within each country, but the two countries use opposite scales so the OD
// fails globally: a textbook conditional OD.
func bracketRelation(t *testing.T) *relation.Encoded {
	t.Helper()
	header := []string{"country", "income", "rate", "noise"}
	var rows [][]string
	for i := 0; i < 30; i++ {
		// Country A: rate = income/3 (monotone).
		rows = append(rows, []string{"A", strconv.Itoa(1000 + i*10), strconv.Itoa(10 + i/3), strconv.Itoa(i % 4)})
		// Country B: rate falls as income rises, breaking the global OD.
		rows = append(rows, []string{"B", strconv.Itoa(1000 + i*10), strconv.Itoa(90 - i/3), strconv.Itoa(i % 5)})
	}
	rel, err := relation.FromRows("brackets", header, rows)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := relation.Encode(rel)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestDiscoverValidation(t *testing.T) {
	if _, err := DiscoverContext(t.Context(), nil, Options{}, core.Options{}); err == nil {
		t.Error("nil relation must be rejected")
	}
	if _, err := DiscoverContext(t.Context(), &relation.Encoded{}, Options{}, core.Options{}); err == nil {
		t.Error("empty relation must be rejected")
	}
	enc := bracketRelation(t)
	if _, err := DiscoverContext(t.Context(), enc, Options{ConditionAttrs: []int{99}}, core.Options{}); err == nil {
		t.Error("out-of-range condition attribute must be rejected")
	}
}

func TestDiscoverFindsBracketRule(t *testing.T) {
	enc := bracketRelation(t)
	res, err := DiscoverContext(t.Context(), enc, Options{}, core.Options{})
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if res.Global == nil || res.SlicesExamined == 0 {
		t.Fatalf("result metadata incomplete: %+v", res)
	}
	incomeIdx, rateIdx, countryIdx := 1, 2, 0

	// The unconditional OD {}: income ~ rate must NOT hold globally.
	globalCover := canonical.NewCover(res.Global.ODs)
	target := canonical.NewOrderCompatible(0, incomeIdx, rateIdx)
	if globalCover.Implies(target) {
		t.Fatal("fixture broken: income ~ rate should fail globally")
	}

	// Within country A income and rate rise together, so the conditional OD
	// {}: income ~ rate must be reported for exactly one country slice (in
	// country B the rate falls as income rises, so it fails there too).
	found := 0
	for _, cod := range res.ODs {
		if cod.Condition.Attr != countryIdx {
			continue
		}
		if cod.OD.Kind == canonical.OrderCompatible && cod.OD.A == incomeIdx && cod.OD.B == rateIdx && cod.OD.Context.IsEmpty() {
			found++
		}
		want := enc.ColumnNames[countryIdx] + "=rank(" + strconv.Itoa(int(cod.Condition.Value)) + ")"
		if got := cod.Condition.NamesString(enc.ColumnNames); got != want {
			t.Errorf("Condition.NamesString = %q, want %q", got, want)
		}
	}
	if found != 1 {
		t.Errorf("expected {}: income ~ rate conditionally in exactly one country, found %d", found)
	}
}

func TestDiscoverSkipsGloballyImpliedAndConditionAttribute(t *testing.T) {
	enc := bracketRelation(t)
	res, err := DiscoverContext(t.Context(), enc, Options{}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	globalCover := canonical.NewCover(res.Global.ODs)
	for _, cod := range res.ODs {
		if globalCover.Implies(cod.OD) {
			t.Errorf("conditional OD %v is already implied globally", cod.OD)
		}
		if cod.OD.Attributes().Contains(cod.Condition.Attr) {
			t.Errorf("conditional OD %v mentions its own condition attribute", cod.OD)
		}
	}
}

func TestDiscoverRespectsBounds(t *testing.T) {
	enc := bracketRelation(t)
	// income has ~30 distinct values; with the default cardinality bound it
	// must not be used as a condition attribute.
	res, err := DiscoverContext(t.Context(), enc, Options{MaxConditionCardinality: 8}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cod := range res.ODs {
		if cod.Condition.Attr == 1 {
			t.Errorf("high-cardinality attribute used as condition: %+v", cod.Condition)
		}
	}
	// MinSliceRows larger than every slice suppresses all conditional ODs.
	res, err = DiscoverContext(t.Context(), enc, Options{MinSliceRows: 1000}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ODs) != 0 || res.SlicesExamined != 0 {
		t.Errorf("expected no slices with MinSliceRows=1000, got %d ODs over %d slices", len(res.ODs), res.SlicesExamined)
	}
	// Restricting condition attributes is honoured.
	res, err = DiscoverContext(t.Context(), enc, Options{ConditionAttrs: []int{3}}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cod := range res.ODs {
		if cod.Condition.Attr != 3 {
			t.Errorf("condition attribute %d not in the allowed list", cod.Condition.Attr)
		}
	}
}

func TestDiscoverOnEmployees(t *testing.T) {
	// Smoke test on Table 1 with a depth limit passed through to FASTOD.
	enc, err := relation.Encode(datagen.Employees())
	if err != nil {
		t.Fatal(err)
	}
	res, err := DiscoverContext(t.Context(), enc, Options{MinSliceRows: 2}, core.Options{MaxLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, cod := range res.ODs {
		if cod.OD.Context.Len() > 2 {
			t.Errorf("conditional OD %v exceeds the discovery depth limit", cod.OD)
		}
	}
}

// TestMaxLevelReachedCoversSlicePasses is the regression test for the stats
// under-report fixed alongside the report cache: Result.MaxLevelReached must
// be the deepest lattice level processed by ANY pass — the unconditional pass
// or a slice pass — verified here against an oracle that re-runs FASTOD on
// every slice the conditional traversal visits. Before the fix the field did
// not exist and callers (run.go) reported the unconditional pass alone.
func TestMaxLevelReachedCoversSlicePasses(t *testing.T) {
	for _, enc := range []*relation.Encoded{
		bracketRelation(t),
		mustEncode(t, datagen.HepatitisLike(80, 5, 7)),
	} {
		res, err := DiscoverContext(t.Context(), enc, Options{}, core.Options{})
		if err != nil {
			t.Fatalf("Discover: %v", err)
		}
		// Oracle: the global pass plus an independent FASTOD run per slice,
		// replicating the slicing rules (default cardinality/row bounds).
		global, err := core.DiscoverContext(t.Context(), enc, core.Options{})
		if err != nil {
			t.Fatalf("core.Discover: %v", err)
		}
		want := global.Stats.MaxLevelReached
		for attr := 0; attr < enc.NumCols(); attr++ {
			if enc.Cardinality[attr] < 2 || enc.Cardinality[attr] > 16 {
				continue
			}
			groups := make(map[int32][]int)
			for row, v := range enc.Column(attr) {
				groups[v] = append(groups[v], row)
			}
			for _, rows := range groups {
				if len(rows) < 4 {
					continue
				}
				slice, err := enc.SelectRows(rows)
				if err != nil {
					t.Fatalf("SelectRows: %v", err)
				}
				sliceRes, err := core.DiscoverContext(t.Context(), slice, core.Options{})
				if err != nil {
					t.Fatalf("slice core.Discover: %v", err)
				}
				if sliceRes.Stats.MaxLevelReached > want {
					want = sliceRes.Stats.MaxLevelReached
				}
			}
		}
		if res.Stats.MaxLevelReached != want {
			t.Errorf("%s: MaxLevelReached = %d, want max over all passes %d",
				enc.Name, res.Stats.MaxLevelReached, want)
		}
		if res.Stats.MaxLevelReached < res.Global.Stats.MaxLevelReached {
			t.Errorf("%s: MaxLevelReached = %d below the unconditional pass's %d",
				enc.Name, res.Stats.MaxLevelReached, res.Global.Stats.MaxLevelReached)
		}
	}
}

// TestNodeBudgetSharedBySlicePasses: every pass of a conditional run draws
// its visits from one node allowance, so no run visits more than MaxNodes
// nodes, however many slice passes run at once. The budgets sweep the slice
// phase, from one node past the unconditional pass to the whole run, at 1, 2
// and 4 workers; each cuts the run short.
func TestNodeBudgetSharedBySlicePasses(t *testing.T) {
	enc := mustEncode(t, datagen.FlightLike(3000, 8, 7))
	full, err := DiscoverContext(t.Context(), enc, Options{}, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for budget := full.Global.Stats.NodesVisited + 1; budget < full.Stats.NodesVisited; budget += 53 {
		for _, workers := range []int{1, 2, 4} {
			res, err := DiscoverContext(t.Context(), enc, Options{}, core.Options{
				Workers: workers, Budget: lattice.Budget{MaxNodes: budget},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.NodesVisited > budget || !res.Stats.Interrupted {
				t.Errorf("MaxNodes %d, workers %d: %d nodes visited, interrupted=%v; want at most %d, interrupted",
					budget, workers, res.Stats.NodesVisited, res.Stats.Interrupted, budget)
			}
		}
	}
}

// TestNodeBudgetedRunIsWorkerInvariant: a run its node budget cuts short
// reports the same result at every worker count. Slices too many for the
// allowance left run in job order, so which of them finish does not depend
// on scheduling: ten 2-worker runs equal the 1-worker run.
func TestNodeBudgetedRunIsWorkerInvariant(t *testing.T) {
	enc := mustEncode(t, datagen.HepatitisLike(155, 10, 7))
	budget := lattice.Budget{MaxNodes: 3000}
	want, err := DiscoverContext(t.Context(), enc, Options{}, core.Options{Workers: 1, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if !want.Stats.Interrupted || want.Global.Stats.Interrupted {
		t.Fatalf("the budget must cut the slice passes, not the unconditional one: %+v", want.Stats)
	}
	for run := 0; run < 10; run++ {
		got, err := DiscoverContext(t.Context(), enc, Options{}, core.Options{Workers: 2, Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.ODs, want.ODs) || got.SlicesExamined != want.SlicesExamined || got.Stats != want.Stats {
			t.Fatalf("run %d at 2 workers: %d ODs over %d slices, stats %+v; at 1 worker: %d ODs over %d slices, stats %+v",
				run, len(got.ODs), got.SlicesExamined, got.Stats, len(want.ODs), want.SlicesExamined, want.Stats)
		}
	}
}

// TestCoversSlices pins the fan-out rule's arithmetic: jobs × (2^cols − 1)
// node visits, saturating rather than overflowing.
func TestCoversSlices(t *testing.T) {
	for _, c := range []struct {
		left, jobs, cols int
		want             bool
	}{
		{left: 1023, jobs: 1, cols: 10, want: true},
		{left: 1022, jobs: 1, cols: 10, want: false},
		{left: 2046, jobs: 2, cols: 10, want: true},
		{left: 0, jobs: 0, cols: 10, want: true},
		{left: -5, jobs: 1, cols: 1, want: false},
		{left: math.MaxInt, jobs: 1, cols: 63, want: true},
		{left: math.MaxInt, jobs: 2, cols: 63, want: false},
		{left: math.MaxInt, jobs: 1, cols: 64, want: false},
		{left: math.MaxInt, jobs: math.MaxInt, cols: 2, want: false},
	} {
		if got := coversSlices(c.left, c.jobs, c.cols); got != c.want {
			t.Errorf("coversSlices(%d, %d, %d) = %v, want %v", c.left, c.jobs, c.cols, got, c.want)
		}
	}
}

// TestDeadlineSharedBySlicePasses: Budget.Timeout is one deadline for the
// whole run, not a fresh timeout per pass. A progress callback that sleeps
// past it at the first slice event leaves no later slice to start, at 1, 2
// and 4 workers: the run is interrupted, has examined at most the slices
// that were running when the deadline passed (one per worker), and reports
// only ODs the unbudgeted run reports.
func TestDeadlineSharedBySlicePasses(t *testing.T) {
	enc := mustEncode(t, datagen.FlightLike(3000, 8, 7))
	full, err := DiscoverContext(t.Context(), enc, Options{}, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	complete := make(map[OD]bool, len(full.ODs))
	for _, od := range full.ODs {
		complete[od] = true
	}
	const timeout = 300 * time.Millisecond
	for _, workers := range []int{1, 2, 4} {
		deadline := time.Now().Add(timeout)
		// Slice events are serialized, so the flag needs no lock.
		slept := false
		res, err := DiscoverContext(t.Context(), enc, Options{}, core.Options{
			Workers: workers,
			Budget:  lattice.Budget{Timeout: timeout},
			Progress: func(ev lattice.ProgressEvent) {
				if ev.Level == SliceProgressLevel && !slept {
					slept = true
					time.Sleep(time.Until(deadline) + 50*time.Millisecond)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.Interrupted || res.SlicesExamined > workers {
			t.Errorf("workers %d: interrupted=%v after %d of %d slices; want interrupted after at most %d",
				workers, res.Stats.Interrupted, res.SlicesExamined, full.SlicesExamined, workers)
		}
		for _, od := range res.ODs {
			if !complete[od] {
				t.Errorf("workers %d: %s: %s is not reported by the unbudgeted run",
					workers, od.Condition.NamesString(enc.ColumnNames), od.OD.NamesString(enc.ColumnNames))
			}
		}
	}
}

func mustEncode(t *testing.T, rel *relation.Relation) *relation.Encoded {
	t.Helper()
	enc, err := relation.Encode(rel)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}
