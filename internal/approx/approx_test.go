package approx

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/canonical"
	"repro/internal/datagen"
	"repro/internal/partition"
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

func TestErrorOfExactODsIsZero(t *testing.T) {
	enc := encode(t, datagen.Employees())
	idx := map[string]int{}
	for i, n := range enc.ColumnNames {
		idx[n] = i
	}
	exact := []canonical.OD{
		canonical.NewConstancy(bitset.NewAttrSet(idx["sal"]), idx["tax"]),
		canonical.NewOrderCompatible(bitset.AttrSet(0), idx["sal"], idx["tax"]),
		canonical.NewConstancy(bitset.NewAttrSet(idx["sal"]), idx["sal"]), // trivial
	}
	for _, od := range exact {
		e, err := ErrorOf(enc, od)
		if err != nil {
			t.Fatalf("ErrorOf(%v): %v", od, err)
		}
		if e.Removals != 0 || e.Rate != 0 {
			t.Errorf("ErrorOf(%v) = %+v, want zero", od.NamesString(enc.ColumnNames), e)
		}
	}
}

func TestErrorOfViolatedODs(t *testing.T) {
	enc := encode(t, datagen.Employees())
	idx := map[string]int{}
	for i, n := range enc.ColumnNames {
		idx[n] = i
	}
	// {posit}: [] -> sal: each position class has 2 distinct salaries over 2
	// tuples, so one removal per class = 3 removals out of 6 tuples.
	e, err := ErrorOf(enc, canonical.NewConstancy(bitset.NewAttrSet(idx["posit"]), idx["sal"]))
	if err != nil {
		t.Fatal(err)
	}
	if e.Removals != 3 || math.Abs(e.Rate-0.5) > 1e-9 {
		t.Errorf("posit->sal error = %+v, want 3 removals (rate 0.5)", e)
	}
	// {}: sal ~ subg has a swap; removing one tuple fixes... compute and check
	// it is strictly between 0 and 1 and achievable.
	e, err = ErrorOf(enc, canonical.NewOrderCompatible(bitset.AttrSet(0), idx["sal"], idx["subg"]))
	if err != nil {
		t.Fatal(err)
	}
	if e.Removals <= 0 || e.Removals >= enc.NumRows() {
		t.Errorf("sal ~ subg removals = %d, want in (0, rows)", e.Removals)
	}
}

func TestErrorOfAttributeValidation(t *testing.T) {
	enc := encode(t, datagen.Employees())
	if _, err := ErrorOf(enc, canonical.NewConstancy(bitset.AttrSet(0), 63)); err == nil {
		t.Error("expected error for out-of-range attribute")
	}
	if _, err := ErrorOf(enc, canonical.NewOrderCompatible(bitset.AttrSet(0), 0, 63)); err == nil {
		t.Error("expected error for out-of-range pair attribute")
	}
	if _, err := ErrorOf(enc, canonical.NewConstancy(bitset.NewAttrSet(63), 0)); err == nil {
		t.Error("expected error for out-of-range context attribute")
	}
	if _, err := ErrorOf(enc, canonical.OD{Kind: canonical.Kind(9)}); err == nil {
		t.Error("expected error for unknown kind")
	}
}

// TestErrorMatchesMinimumRemovalsBruteForce verifies the removal counts
// against exhaustive search over subsets on tiny relations.
func TestErrorMatchesMinimumRemovalsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		rows := 2 + rng.Intn(8) // brute force over subsets: keep tiny
		rel := datagen.RandomRelation(rows, 3, 3, rng.Int63())
		enc := encode(t, rel)

		ods := []canonical.OD{
			canonical.NewConstancy(bitset.NewAttrSet(0), 1),
			canonical.NewOrderCompatible(bitset.NewAttrSet(2), 0, 1),
			canonical.NewOrderCompatible(bitset.AttrSet(0), 1, 2),
		}
		for _, od := range ods {
			e, err := ErrorOf(enc, od)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteMinRemovals(enc, od)
			if e.Removals != want {
				t.Fatalf("trial %d: ErrorOf(%v).Removals = %d, brute force = %d",
					trial, od, e.Removals, want)
			}
		}
	}
}

// bruteMinRemovals finds the smallest number of rows whose removal makes the
// OD hold, by trying all subsets of rows (ascending cardinality).
func bruteMinRemovals(enc *relation.Encoded, od canonical.OD) int {
	n := enc.NumRows()
	for k := 0; k <= n; k++ {
		if existsKeepSet(enc, od, n, n-k) {
			return k
		}
	}
	return n
}

// existsKeepSet reports whether some subset of `keep` rows satisfies the OD.
func existsKeepSet(enc *relation.Encoded, od canonical.OD, n, keep int) bool {
	rows := make([]int, 0, keep)
	var rec func(start int) bool
	rec = func(start int) bool {
		if len(rows) == keep {
			return holdsOnSubset(enc, od, rows)
		}
		for i := start; i < n; i++ {
			rows = append(rows, i)
			if rec(i + 1) {
				return true
			}
			rows = rows[:len(rows)-1]
		}
		return false
	}
	return rec(0)
}

// holdsOnSubset checks the canonical OD over just the given rows.
func holdsOnSubset(enc *relation.Encoded, od canonical.OD, rows []int) bool {
	ctxAttrs := od.Context.Attrs()
	sameCtx := func(s, t int) bool {
		for _, a := range ctxAttrs {
			if enc.Column(a)[s] != enc.Column(a)[t] {
				return false
			}
		}
		return true
	}
	for _, s := range rows {
		for _, t := range rows {
			if !sameCtx(s, t) {
				continue
			}
			switch od.Kind {
			case canonical.Constancy:
				if enc.Column(od.A)[s] != enc.Column(od.A)[t] {
					return false
				}
			case canonical.OrderCompatible:
				a, b := enc.Column(od.A), enc.Column(od.B)
				if a[s] < a[t] && b[t] < b[s] {
					return false
				}
			}
		}
	}
	return true
}

func TestProfile(t *testing.T) {
	enc := encode(t, datagen.Employees())
	ods := []canonical.OD{
		canonical.NewConstancy(bitset.NewAttrSet(4), 6), // sal -> tax (holds)
		canonical.NewConstancy(bitset.NewAttrSet(2), 4), // posit -> sal (violated)
	}
	prof, err := Profile(enc, ods)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) != 2 {
		t.Fatalf("Profile len = %d", len(prof))
	}
	if prof[0].Error.Removals != 0 || prof[1].Error.Removals == 0 {
		t.Errorf("Profile = %+v", prof)
	}
	if _, err := Profile(enc, []canonical.OD{canonical.NewConstancy(bitset.AttrSet(0), 63)}); err == nil {
		t.Error("expected error for invalid OD")
	}
}

func TestSwapRemovalsHandlesTies(t *testing.T) {
	// Rows with equal A never conflict; equal B never conflict.
	colA := []int32{0, 0, 1, 1, 2}
	colB := []int32{5, 1, 3, 3, 2}
	// One class holding all five rows (the empty context).
	cls := partition.FromConstant(5)
	// Largest swap-free subset is rows {1,2,3} (A = 0,1,1 and B = 1,3,3):
	// row 0 (B=5) conflicts with every larger-A row, and row 4 (A=2,B=2)
	// conflicts with rows 2 and 3 — so two removals.
	got := cls.SwapRemovals(colA, colB, math.MaxInt, nil)
	if got != 2 {
		t.Errorf("SwapRemovals = %d, want 2", got)
	}
}
