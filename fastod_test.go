package fastod_test

import (
	"os"
	"strings"
	"testing"

	fastod "repro"
)

func TestLoadCSVAndDiscover(t *testing.T) {
	csv := `sal,tax,perc
5000,1000,20
8000,2000,25
10000,3000,30
4500,900,20
6000,1500,25
8000,2000,25
`
	ds, err := fastod.LoadCSV("salaries", strings.NewReader(csv))
	if err != nil {
		t.Fatalf("LoadCSV: %v", err)
	}
	if ds.NumRows() != 6 || ds.NumCols() != 3 {
		t.Fatalf("dims %dx%d", ds.NumRows(), ds.NumCols())
	}
	rep, err := ds.Run(t.Context(), fastod.Request{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	cover := fastod.NewCover(rep.FASTOD.ODs)
	sal, tax := ds.ColumnIndex("sal"), ds.ColumnIndex("tax")
	if !cover.Implies(fastod.NewConstancyOD([]int{sal}, tax)) {
		t.Error("{sal}: [] -> tax should be implied")
	}
	if !cover.Implies(fastod.NewOrderCompatibleOD(nil, sal, tax)) {
		t.Error("{}: sal ~ tax should be implied")
	}
}

func TestLoadCSVFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/tiny.csv"
	content := "a,b\n1,2\n2,4\n3,6\n"
	if err := writeFile(path, content); err != nil {
		t.Fatal(err)
	}
	ds, err := fastod.LoadCSVFile(path)
	if err != nil {
		t.Fatalf("LoadCSVFile: %v", err)
	}
	if ds.Name() != path || ds.NumRows() != 3 {
		t.Errorf("Name=%q rows=%d", ds.Name(), ds.NumRows())
	}
	if _, err := fastod.LoadCSVFile(path + ".missing"); err == nil {
		t.Error("expected error for missing file")
	}
	if _, err := fastod.LoadCSV("bad", strings.NewReader("")); err == nil {
		t.Error("expected error for empty CSV")
	}
}

func TestEmployeesExampleMatchesPaper(t *testing.T) {
	ds := fastod.EmployeesExample()
	if ds.NumRows() != 6 || ds.NumCols() != 9 {
		t.Fatalf("dims %dx%d, want 6x9", ds.NumRows(), ds.NumCols())
	}

	// Example 1: list-based ODs that hold on Table 1.
	holds, err := ds.CheckListOD([]string{"sal"}, []string{"tax"})
	if err != nil || !holds {
		t.Errorf("[sal] -> [tax] = %v, %v", holds, err)
	}
	holds, err = ds.CheckListOD([]string{"sal"}, []string{"grp", "subg"})
	if err != nil || !holds {
		t.Errorf("[sal] -> [grp,subg] = %v, %v", holds, err)
	}
	holds, err = ds.CheckListOD([]string{"yr", "sal"}, []string{"yr", "bin"})
	if err != nil || !holds {
		t.Errorf("[yr,sal] -> [yr,bin] = %v, %v", holds, err)
	}
	// Example 2-style order compatibility.
	ok, err := ds.CheckOrderCompatible([]string{"yr", "bin"}, []string{"yr", "sal"})
	if err != nil || !ok {
		t.Errorf("[yr,bin] ~ [yr,sal] = %v, %v", ok, err)
	}
	// A violated OD.
	holds, err = ds.CheckListOD([]string{"posit"}, []string{"sal"})
	if err != nil || holds {
		t.Errorf("[posit] -> [sal] = %v, %v (should fail)", holds, err)
	}
	// Unknown columns are rejected.
	if _, err := ds.CheckListOD([]string{"nope"}, []string{"sal"}); err == nil {
		t.Error("expected error for unknown column")
	}
	if _, err := ds.CheckOrderCompatible([]string{"sal"}, []string{"nope"}); err == nil {
		t.Error("expected error for unknown column")
	}
	if _, err := ds.CheckOrderCompatible([]string{"nope"}, []string{"sal"}); err == nil {
		t.Error("expected error for unknown column")
	}
}

func TestMapListODPublic(t *testing.T) {
	ds := fastod.EmployeesExample()
	ods, err := ds.MapListOD([]string{"sal"}, []string{"grp", "subg"})
	if err != nil {
		t.Fatalf("MapListOD: %v", err)
	}
	if len(ods) == 0 {
		t.Fatal("expected canonical ODs from the mapping")
	}
	for _, od := range ods {
		holds, err := ds.CheckCanonicalOD(od)
		if err != nil {
			t.Fatal(err)
		}
		if !holds {
			t.Errorf("mapped canonical OD %v should hold", od.NamesString(ds.ColumnNames()))
		}
	}
	if _, err := ds.MapListOD([]string{"missing"}, []string{"sal"}); err == nil {
		t.Error("expected error for unknown column")
	}
	if _, err := ds.MapListOD([]string{"sal"}, []string{"missing"}); err == nil {
		t.Error("expected error for unknown column")
	}
}

func TestFromRowsAndViolations(t *testing.T) {
	ds, err := fastod.FromRows("t", []string{"a", "b"}, [][]string{
		{"1", "10"}, {"2", "20"}, {"3", "5"},
	})
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	od := fastod.NewOrderCompatibleOD(nil, 0, 1)
	holds, err := ds.CheckCanonicalOD(od)
	if err != nil || holds {
		t.Fatalf("a ~ b should fail: %v %v", holds, err)
	}
	v, found, err := ds.FindViolation(od)
	if err != nil || !found {
		t.Fatalf("FindViolation: %v %v", found, err)
	}
	if !v.IsSwap {
		t.Error("violation should be a swap")
	}
	if _, err := fastod.FromRows("bad", []string{"a"}, [][]string{{"1", "2"}}); err == nil {
		t.Error("expected error for ragged rows")
	}
}

func TestProjectAndHeadRows(t *testing.T) {
	ds := fastod.SyntheticFlight(200, 12, 3)
	p := ds.Project(5)
	if p.NumCols() != 5 || p.NumRows() != 200 {
		t.Errorf("Project dims %dx%d", p.NumRows(), p.NumCols())
	}
	h := ds.HeadRows(50)
	if h.NumRows() != 50 || h.NumCols() != 12 {
		t.Errorf("HeadRows dims %dx%d", h.NumRows(), h.NumCols())
	}
	if _, err := p.Run(t.Context(), fastod.Request{}); err != nil {
		t.Errorf("Run on projection: %v", err)
	}
}

func TestSyntheticDatasetsDiscoverable(t *testing.T) {
	sets := map[string]*fastod.Dataset{
		"flight":    fastod.SyntheticFlight(120, 8, 1),
		"ncvoter":   fastod.SyntheticNCVoter(120, 8, 1),
		"hepatitis": fastod.SyntheticHepatitis(0, 8, 1),
		"dbtesma":   fastod.SyntheticDBTesma(120, 8, 1),
		"datedim":   fastod.DateDimExample(90),
	}
	for name, ds := range sets {
		rep, err := ds.Run(t.Context(), fastod.Request{})
		if err != nil {
			t.Errorf("%s: Run: %v", name, err)
			continue
		}
		if rep.FASTOD.Counts.Total == 0 {
			t.Errorf("%s: expected some ODs", name)
		}
		if len(ds.ColumnNames()) != ds.NumCols() {
			t.Errorf("%s: ColumnNames length mismatch", name)
		}
	}
}

func TestBaselinesPublicAPI(t *testing.T) {
	ds := fastod.EmployeesExample()

	fds, err := ds.Run(t.Context(), fastod.Request{Algorithm: fastod.AlgorithmTANE})
	if err != nil {
		t.Fatalf("TANE: %v", err)
	}
	rep, err := ds.Run(t.Context(), fastod.Request{})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.FASTOD
	if len(fds.TANE.FDs) != res.Counts.Constancy {
		t.Errorf("TANE found %d FDs, FASTOD found %d constancy ODs", len(fds.TANE.FDs), res.Counts.Constancy)
	}

	ord, err := ds.Run(t.Context(), fastod.Request{
		Algorithm:  fastod.AlgorithmORDER,
		RunOptions: fastod.RunOptions{Budget: fastod.DefaultBudget()},
	})
	if err != nil {
		t.Fatalf("ORDER: %v", err)
	}
	cover := fastod.NewCover(res.ODs)
	for _, od := range ord.ORDER.Canonical {
		if !cover.Implies(od) {
			t.Errorf("ORDER OD %v not implied by FASTOD output", od)
		}
	}
}

func TestReferenceDiscoverPublicAPI(t *testing.T) {
	ds := fastod.EmployeesExample()
	ref, err := ds.ReferenceDiscover()
	if err != nil {
		t.Fatalf("ReferenceDiscover: %v", err)
	}
	rep, err := ds.Run(t.Context(), fastod.Request{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != len(rep.FASTOD.ODs) {
		t.Errorf("reference found %d ODs, FASTOD %d", len(ref), len(rep.FASTOD.ODs))
	}
}

func TestWithSwapViolations(t *testing.T) {
	ds := fastod.DateDimExample(60)
	dirty, affected, err := ds.WithSwapViolations("d_year", 2, 9)
	if err != nil {
		t.Fatalf("WithSwapViolations: %v", err)
	}
	if len(affected) == 0 {
		t.Error("expected affected rows")
	}
	if dirty.NumRows() != ds.NumRows() {
		t.Error("row count changed")
	}
	if _, _, err := ds.WithSwapViolations("missing", 1, 9); err == nil {
		t.Error("expected error for unknown column")
	}

	// A view's dirty copy has the view's rows and columns, not the parent's.
	view := fastod.DateDimExample(200).HeadRows(20).Project(3)
	dirty, affected, err = view.WithSwapViolations("d_year", 2, 9)
	if err != nil {
		t.Fatalf("WithSwapViolations on a view: %v", err)
	}
	if dirty.NumRows() != 20 || dirty.NumCols() != 3 {
		t.Errorf("dirty copy of a 20x3 view is %dx%d", dirty.NumRows(), dirty.NumCols())
	}
	for _, row := range affected {
		if row >= 20 {
			t.Errorf("affected row %d lies outside the 20-row view", row)
		}
	}
}

func TestMinimizeODsPublic(t *testing.T) {
	base := fastod.NewConstancyOD([]int{0}, 1)
	redundant := fastod.NewConstancyOD([]int{0, 2}, 1)
	out := fastod.MinimizeODs([]fastod.OD{base, redundant})
	if len(out) != 1 || !out[0].Equal(base) {
		t.Errorf("MinimizeODs = %v", out)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
