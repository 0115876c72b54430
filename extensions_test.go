package fastod_test

import (
	"strings"
	"testing"

	fastod "repro"
)

func TestDiscoverApproximatePublic(t *testing.T) {
	ds := fastod.DateDimExample(730)
	dirty, _, err := ds.WithSwapViolations("d_year", 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := dirty.Run(t.Context(), fastod.Request{
		Algorithm: fastod.AlgorithmApprox,
		Approx:    fastod.ApproxRunOptions{Threshold: 0.05},
	})
	if err != nil {
		t.Fatalf("approx Run: %v", err)
	}
	res := rep.Approx
	if len(res.ODs) == 0 {
		t.Fatal("expected approximate ODs")
	}
	for _, d := range res.ODs {
		if d.Error.Rate > 0.05+1e-12 {
			t.Errorf("OD %v exceeds threshold: %v", d.OD, d.Error.Rate)
		}
	}
	if res.Counts().Total != len(res.ODs) {
		t.Error("Counts inconsistent")
	}
}

func TestODErrorAndProfilePublic(t *testing.T) {
	ds := fastod.EmployeesExample()
	sal, tax, posit := ds.ColumnIndex("sal"), ds.ColumnIndex("tax"), ds.ColumnIndex("posit")
	holding := fastod.NewConstancyOD([]int{sal}, tax)
	violated := fastod.NewConstancyOD([]int{posit}, sal)

	e, err := ds.ODErrorOf(holding)
	if err != nil || e.Removals != 0 {
		t.Errorf("ODErrorOf(holding) = %+v, %v", e, err)
	}
	prof, err := ds.ProfileODs([]fastod.OD{holding, violated})
	if err != nil {
		t.Fatal(err)
	}
	if prof[0].Error.Removals != 0 || prof[1].Error.Removals == 0 {
		t.Errorf("ProfileODs = %+v", prof)
	}
}

func TestDiscoverBidirectionalPublic(t *testing.T) {
	rows := make([][]string, 0, 30)
	for i := 0; i < 30; i++ {
		rows = append(rows, []string{itoa(i), itoa(100 - i), itoa(i % 4)})
	}
	ds, err := fastod.FromRows("opposing", []string{"up", "down", "noise"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ds.Run(t.Context(), fastod.Request{Algorithm: fastod.AlgorithmBidirectional})
	if err != nil {
		t.Fatalf("bidir Run: %v", err)
	}
	found := false
	for _, od := range rep.Bidir.ODs {
		if od.Kind == fastod.OrderCompatible && od.A == 0 && od.B == 1 &&
			od.Context.IsEmpty() && od.Polarity == fastod.OppositeDirection {
			found = true
		}
	}
	if !found {
		t.Error("expected {}: up ~ down (opposite) in the bidirectional output")
	}

	ok, err := ds.CheckBidirListOD(
		[]fastod.DirectedColumn{{Column: "up", Dir: fastod.OrderAsc}},
		[]fastod.DirectedColumn{{Column: "down", Dir: fastod.OrderDesc}},
	)
	if err != nil || !ok {
		t.Errorf("up asc -> down desc = %v, %v", ok, err)
	}
	ok, err = ds.CheckBidirListOD(
		[]fastod.DirectedColumn{{Column: "up", Dir: fastod.OrderAsc}},
		[]fastod.DirectedColumn{{Column: "down", Dir: fastod.OrderAsc}},
	)
	if err != nil || ok {
		t.Errorf("up asc -> down asc = %v, %v (should fail)", ok, err)
	}
	if _, err := ds.CheckBidirListOD([]fastod.DirectedColumn{{Column: "bogus"}}, nil); err == nil {
		t.Error("unknown column should error")
	}
	if _, err := ds.CheckBidirListOD(nil, []fastod.DirectedColumn{{Column: "bogus"}}); err == nil {
		t.Error("unknown column should error")
	}
}

func TestAdvisorPublic(t *testing.T) {
	ds := fastod.DateDimExample(2 * 365)
	rep, err := ds.Run(t.Context(), fastod.Request{})
	if err != nil {
		t.Fatal(err)
	}
	adv := fastod.NewAdvisor(rep.FASTOD.ODs, rep.FASTOD.ColumnNames)
	suggestions, err := adv.Advise(fastod.AdvisorQuery{
		OrderBy:         []string{"d_year", "d_quarter", "d_month"},
		GroupBy:         []string{"d_year", "d_quarter", "d_month"},
		RangePredicates: []string{"d_year"},
		Indexes:         [][]string{{"d_date_sk"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var kinds []fastod.SuggestionKind
	for _, s := range suggestions {
		kinds = append(kinds, s.Kind)
	}
	want := map[fastod.SuggestionKind]bool{
		fastod.SimplifiedGroupBy: false,
		fastod.SortElimination:   false,
		fastod.JoinElimination:   false,
	}
	for _, k := range kinds {
		if _, ok := want[k]; ok {
			want[k] = true
		}
	}
	for k, got := range want {
		if !got {
			t.Errorf("missing suggestion kind %v in %v", k, kinds)
		}
	}
}

func TestParseAndCheckStatements(t *testing.T) {
	ds := fastod.EmployeesExample()

	input := `
# employee business rules
[sal] -> [tax,perc]
[yr,bin] ~ [yr,sal]
{sal}: [] -> grp
{yr}: bin ~ sal
{posit}: [] -> sal
`
	statements, err := fastod.ParseODs(input)
	if err != nil {
		t.Fatalf("ParseODs: %v", err)
	}
	if len(statements) != 5 {
		t.Fatalf("parsed %d statements, want 5", len(statements))
	}
	wantHolds := []bool{true, true, true, true, false}
	for i, st := range statements {
		check, err := ds.CheckStatement(st)
		if err != nil {
			t.Fatalf("CheckStatement(%q): %v", st.Source, err)
		}
		if check.Holds != wantHolds[i] {
			t.Errorf("statement %q holds = %v, want %v", st.Source, check.Holds, wantHolds[i])
		}
		if !check.Holds && check.Violation == nil {
			t.Errorf("statement %q should carry a violation witness", st.Source)
		}
		if check.Error != nil && check.Holds && check.Error.Removals != 0 {
			t.Errorf("statement %q holds but has non-zero error", st.Source)
		}
	}

	if _, err := fastod.ParseOD("not an od"); err == nil {
		t.Error("expected parse error")
	}
	st, err := fastod.ParseOD("{sal}: [] -> bogus")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.CheckStatement(st); err == nil {
		t.Error("expected resolution error for unknown column")
	}

	// FormatOD round-trips through the parser.
	rep, err := ds.Run(t.Context(), fastod.Request{})
	if err != nil {
		t.Fatal(err)
	}
	text := fastod.FormatOD(rep.FASTOD.ODs[0], rep.FASTOD.ColumnNames)
	if _, err := fastod.ParseOD(text); err != nil {
		t.Errorf("FormatOD produced unparseable text %q: %v", text, err)
	}
	if !strings.Contains(text, ":") {
		t.Errorf("unexpected canonical syntax %q", text)
	}
}

func TestDiscoverConditionalPublic(t *testing.T) {
	// Two segments with opposite income/rate trends: the OD holds per segment
	// (one of them) but not globally.
	rows := make([][]string, 0, 40)
	for i := 0; i < 20; i++ {
		rows = append(rows, []string{"A", itoa(1000 + 10*i), itoa(10 + i)})
		rows = append(rows, []string{"B", itoa(1000 + 10*i), itoa(500 - i)})
	}
	ds, err := fastod.FromRows("brackets", []string{"country", "income", "rate"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ds.Run(t.Context(), fastod.Request{Algorithm: fastod.AlgorithmConditional})
	if err != nil {
		t.Fatalf("conditional Run: %v", err)
	}
	res := rep.Conditional
	if res.Global == nil || res.SlicesExamined == 0 {
		t.Fatalf("conditional result incomplete: %+v", res)
	}
	income, rate := ds.ColumnIndex("income"), ds.ColumnIndex("rate")
	found := false
	for _, cod := range res.ODs {
		if cod.OD.Kind == fastod.OrderCompatible && cod.OD.A == income && cod.OD.B == rate && cod.OD.Context.IsEmpty() {
			found = true
		}
	}
	if !found {
		t.Error("expected a conditional {}: income ~ rate")
	}
}

func itoa(v int) string {
	digits := "0123456789"
	if v == 0 {
		return "0"
	}
	var out []byte
	for v > 0 {
		out = append([]byte{digits[v%10]}, out...)
		v /= 10
	}
	return string(out)
}
