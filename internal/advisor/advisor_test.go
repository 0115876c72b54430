package advisor

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/relation"
)

// dateDimAdvisor discovers ODs over the TPC-DS-style date dimension and
// wraps them in an advisor, the setting of Query 1 in the paper.
func dateDimAdvisor(t *testing.T) (*Advisor, []string) {
	t.Helper()
	rel := datagen.DateDim(3 * 365)
	enc, err := relation.Encode(rel)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.DiscoverContext(t.Context(), enc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return New(res.ODs, enc.ColumnNames), enc.ColumnNames
}

func TestImpliesListOD(t *testing.T) {
	adv, _ := dateDimAdvisor(t)
	ok, err := adv.ImpliesListOD([]string{"d_date_sk"}, []string{"d_year"})
	if err != nil || !ok {
		t.Errorf("d_date_sk -> d_year = %v, %v", ok, err)
	}
	ok, err = adv.ImpliesListOD([]string{"d_month"}, []string{"d_quarter"})
	if err != nil || !ok {
		t.Errorf("d_month -> d_quarter = %v, %v", ok, err)
	}
	ok, err = adv.ImpliesListOD([]string{"d_quarter"}, []string{"d_month"})
	if err != nil || ok {
		t.Errorf("d_quarter -> d_month = %v, %v (should not be implied)", ok, err)
	}
	if _, err := adv.ImpliesListOD([]string{"bogus"}, []string{"d_year"}); err == nil {
		t.Error("unknown column should error")
	}
	if _, err := adv.ImpliesListOD([]string{"d_year"}, []string{"bogus"}); err == nil {
		t.Error("unknown column should error")
	}
}

func TestConstantColumns(t *testing.T) {
	adv, _ := dateDimAdvisor(t)
	constants := adv.ConstantColumns()
	found := false
	for _, c := range constants {
		if c == "d_version" {
			found = true
		}
	}
	if !found {
		t.Errorf("ConstantColumns = %v, want to include d_version", constants)
	}
}

func TestSimplifyOrderBy(t *testing.T) {
	adv, _ := dateDimAdvisor(t)
	// The prefix-based rule drops an attribute when the attributes kept so
	// far already determine it. With the surrogate key first, everything
	// after it is redundant.
	got, err := adv.SimplifyOrderBy([]string{"d_date_sk", "d_year", "d_quarter"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "d_date_sk" {
		t.Errorf("SimplifyOrderBy = %v, want [d_date_sk] (the key determines everything)", got)
	}
	// A constant column is always dropped unless it is first with nothing
	// before it... the empty prefix determines it, so it is dropped too.
	got, err = adv.SimplifyOrderBy([]string{"d_version", "d_year"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "d_year" {
		t.Errorf("SimplifyOrderBy = %v, want [d_year]", got)
	}
	if _, err := adv.SimplifyOrderBy([]string{"bogus"}); err == nil {
		t.Error("unknown column should error")
	}
}

func TestSimplifyGroupBy(t *testing.T) {
	adv, _ := dateDimAdvisor(t)
	// GROUP BY d_year, d_quarter, d_month: the quarter is determined by the
	// month, so it can be removed (the FD-based rewrite from the paper).
	got, err := adv.SimplifyGroupBy([]string{"d_year", "d_quarter", "d_month"})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(got, ",")
	if strings.Contains(joined, "d_quarter") {
		t.Errorf("SimplifyGroupBy = %v, want d_quarter removed", got)
	}
	if !strings.Contains(joined, "d_month") {
		t.Errorf("SimplifyGroupBy = %v, must keep d_month", got)
	}
	if _, err := adv.SimplifyGroupBy([]string{"bogus"}); err == nil {
		t.Error("unknown column should error")
	}
}

func TestIndexSatisfiesOrderByAndRangeRewrites(t *testing.T) {
	adv, _ := dateDimAdvisor(t)
	ok, err := adv.IndexSatisfiesOrderBy([]string{"d_date_sk"}, []string{"d_year", "d_quarter"})
	if err != nil || !ok {
		t.Errorf("index d_date_sk should satisfy ORDER BY d_year, d_quarter: %v %v", ok, err)
	}
	ok, err = adv.IndexSatisfiesOrderBy([]string{"d_day"}, []string{"d_year"})
	if err != nil || ok {
		t.Errorf("index d_day should not satisfy ORDER BY d_year: %v %v", ok, err)
	}

	rewrites, err := adv.RangeRewrites("d_year")
	if err != nil {
		t.Fatal(err)
	}
	foundSK := false
	for _, r := range rewrites {
		if r == "d_date_sk" {
			foundSK = true
		}
	}
	if !foundSK {
		t.Errorf("RangeRewrites(d_year) = %v, want to include d_date_sk", rewrites)
	}
	if _, err := adv.RangeRewrites("bogus"); err == nil {
		t.Error("unknown column should error")
	}
}

func TestAdvise(t *testing.T) {
	adv, _ := dateDimAdvisor(t)
	suggestions, err := adv.Advise(Query{
		OrderBy:         []string{"d_version", "d_year", "d_quarter", "d_month"},
		GroupBy:         []string{"d_year", "d_quarter", "d_month"},
		RangePredicates: []string{"d_year"},
		Indexes:         [][]string{{"d_date_sk"}, {"d_day"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[SuggestionKind]int{}
	for _, s := range suggestions {
		kinds[s.Kind]++
		if s.Message == "" {
			t.Errorf("suggestion %v has empty message", s.Kind)
		}
	}
	if kinds[DropConstant] == 0 {
		t.Error("expected a drop-constant suggestion for d_version")
	}
	if kinds[SimplifiedOrderBy] == 0 {
		t.Error("expected an order-by simplification")
	}
	if kinds[SimplifiedGroupBy] == 0 {
		t.Error("expected a group-by simplification")
	}
	if kinds[SortElimination] == 0 {
		t.Error("expected a sort-elimination suggestion from the d_date_sk index")
	}
	if kinds[JoinElimination] == 0 {
		t.Error("expected a join-elimination suggestion for the d_year range predicate")
	}

	if _, err := adv.Advise(Query{OrderBy: []string{"bogus"}}); err == nil {
		t.Error("unknown column should error")
	}
	if _, err := adv.Advise(Query{GroupBy: []string{"bogus"}}); err == nil {
		t.Error("unknown column should error")
	}
	if _, err := adv.Advise(Query{RangePredicates: []string{"bogus"}}); err == nil {
		t.Error("unknown column should error")
	}
	if _, err := adv.Advise(Query{OrderBy: []string{"d_year"}, Indexes: [][]string{{"bogus"}}}); err == nil {
		t.Error("unknown index column should error")
	}
}

func TestSuggestionKindString(t *testing.T) {
	for kind, want := range map[SuggestionKind]string{
		DropConstant:      "drop-constant",
		SimplifiedOrderBy: "simplify-order-by",
		SimplifiedGroupBy: "simplify-group-by",
		SortElimination:   "sort-elimination",
		JoinElimination:   "join-elimination",
		SuggestionKind(9): "SuggestionKind(9)",
	} {
		if kind.String() != want {
			t.Errorf("String() = %q, want %q", kind.String(), want)
		}
	}
}

func TestAdvisorOnEmployees(t *testing.T) {
	rel := datagen.Employees()
	enc, err := relation.Encode(rel)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.DiscoverContext(t.Context(), enc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	adv := New(res.ODs, enc.ColumnNames)
	// The index on (yr, sal) satisfies ORDER BY yr, bin — the rewrite from
	// Example 1 of the paper.
	ok, err := adv.IndexSatisfiesOrderBy([]string{"yr", "sal"}, []string{"yr", "bin"})
	if err != nil || !ok {
		t.Errorf("index (yr,sal) should satisfy ORDER BY yr, bin: %v %v", ok, err)
	}
}
