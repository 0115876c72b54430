package datagen

import (
	"reflect"
	"strconv"
	"testing"

	"repro/internal/relation"
)

func TestGenerateConstantSequentialRandom(t *testing.T) {
	spec := Spec{
		Name: "t", Rows: 10, Seed: 1, Drivers: 1,
		Columns: []ColumnSpec{
			{Name: "const", Kind: KindConstant, Value: 7},
			{Name: "seq", Kind: KindSequential},
			{Name: "rnd", Kind: KindRandom, Domain: 3},
		},
	}
	r, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if r.NumRows() != 10 || r.NumCols() != 3 {
		t.Fatalf("dims %dx%d", r.NumRows(), r.NumCols())
	}
	for i := 0; i < 10; i++ {
		if r.Columns[0].Value(i) != "7" {
			t.Errorf("constant row %d = %q", i, r.Columns[0].Value(i))
		}
		if r.Columns[1].Value(i) != strconv.Itoa(i+1) {
			t.Errorf("sequential row %d = %q", i, r.Columns[1].Value(i))
		}
		v, _ := strconv.Atoi(r.Columns[2].Value(i))
		if v < 0 || v >= 3 {
			t.Errorf("random value %d out of domain", v)
		}
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	a := FlightLike(50, 10, 42)
	b := FlightLike(50, 10, 42)
	c := FlightLike(50, 10, 43)
	if !reflect.DeepEqual(a.Rows(), b.Rows()) {
		t.Error("same seed must produce identical data")
	}
	if reflect.DeepEqual(a.Rows(), c.Rows()) {
		t.Error("different seeds should produce different data")
	}
}

func TestGenerateDerivedFDHolds(t *testing.T) {
	spec := Spec{
		Name: "t", Rows: 200, Seed: 5, Drivers: 1,
		Columns: []ColumnSpec{
			{Name: "src", Kind: KindRandom, Domain: 9},
			{Name: "dst", Kind: KindDerivedFD, Source: 0, Domain: 4},
		},
	}
	r, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// src -> dst must hold exactly.
	seen := map[string]string{}
	for i := 0; i < r.NumRows(); i++ {
		s, d := r.Columns[0].Value(i), r.Columns[1].Value(i)
		if prev, ok := seen[s]; ok && prev != d {
			t.Fatalf("FD src->dst violated: src=%s has dst %s and %s", s, prev, d)
		}
		seen[s] = d
	}
}

func TestGenerateMonotoneIsOrderCompatibleWithDriverSiblings(t *testing.T) {
	spec := Spec{
		Name: "t", Rows: 300, Seed: 9, Drivers: 1,
		Columns: []ColumnSpec{
			{Name: "coarse", Kind: KindMonotone, Source: 0, Domain: 5},
			{Name: "fine", Kind: KindMonotone, Source: 0, Domain: 2},
		},
	}
	r, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	a := intCol(t, r, 0)
	b := intCol(t, r, 1)
	for i := range a {
		for j := range a {
			if a[i] < a[j] && b[j] < b[i] {
				t.Fatalf("swap between sibling monotone columns at rows %d,%d", i, j)
			}
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Spec{Rows: -1}); err == nil {
		t.Error("negative rows should error")
	}
	if _, err := Generate(Spec{Rows: 1, Columns: []ColumnSpec{{Name: "x", Kind: KindDerivedFD, Source: 0}}}); err == nil {
		t.Error("derived column referencing itself should error")
	}
	if _, err := Generate(Spec{Rows: 1, Columns: []ColumnSpec{{Name: "x", Kind: KindMonotone, Source: 3}}}); err == nil {
		t.Error("monotone column with out-of-range driver should error")
	}
	if _, err := Generate(Spec{Rows: 1, Columns: []ColumnSpec{{Name: "x", Kind: ColumnKind(99)}}}); err == nil {
		t.Error("unknown kind should error")
	}
}

func TestMustGeneratePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGenerate should panic on invalid spec")
		}
	}()
	MustGenerate(Spec{Rows: -1})
}

func TestPresetShapes(t *testing.T) {
	cases := []struct {
		name string
		rel  *relation.Relation
		rows int
		cols int
	}{
		{"flight", FlightLike(40, 12, 1), 40, 12},
		{"ncvoter", NCVoterLike(40, 8, 1), 40, 8},
		{"hepatitis", HepatitisLike(0, 10, 1), 155, 10},
		{"dbtesma", DBTesmaLike(40, 9, 1), 40, 9},
	}
	for _, tc := range cases {
		if err := tc.rel.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", tc.name, err)
		}
		if tc.rel.NumRows() != tc.rows || tc.rel.NumCols() != tc.cols {
			t.Errorf("%s: dims %dx%d, want %dx%d", tc.name, tc.rel.NumRows(), tc.rel.NumCols(), tc.rows, tc.cols)
		}
		if _, err := relation.Encode(tc.rel); err != nil {
			t.Errorf("%s: Encode: %v", tc.name, err)
		}
	}
	// Column-count clamping.
	if got := FlightLike(10, 100, 1).NumCols(); got != 64 {
		t.Errorf("FlightLike clamped cols = %d, want 64", got)
	}
	if got := FlightLike(10, 0, 1).NumCols(); got != 1 {
		t.Errorf("FlightLike clamped cols = %d, want 1", got)
	}
}

func TestFlightLikeHasConstantYearAndKey(t *testing.T) {
	r := FlightLike(100, 10, 3)
	for i := 0; i < r.NumRows(); i++ {
		if r.Columns[0].Value(i) != "2012" {
			t.Fatal("flight year column must be constant 2012")
		}
	}
	seen := map[string]bool{}
	for i := 0; i < r.NumRows(); i++ {
		v := r.Columns[1].Value(i)
		if seen[v] {
			t.Fatal("flight_sk must be unique")
		}
		seen[v] = true
	}
}

func TestEmployeesMatchesTable1(t *testing.T) {
	r := Employees()
	if r.NumRows() != 6 || r.NumCols() != 9 {
		t.Fatalf("dims %dx%d, want 6x9", r.NumRows(), r.NumCols())
	}
	if r.ColumnIndex("sal") != 4 || r.ColumnIndex("subg") != 8 {
		t.Error("column order does not match Table 1")
	}
	// Spot-check a couple of cells.
	if r.Columns[4].Value(2) != "10000" || r.Columns[8].Value(4) != "I" {
		t.Error("cell values do not match Table 1")
	}
}

func TestDateDim(t *testing.T) {
	r := DateDim(400)
	if r.NumRows() != 400 {
		t.Fatalf("rows = %d", r.NumRows())
	}
	if DateDim(0).NumRows() != 365 {
		t.Error("default row count should be 365")
	}
	// d_date_sk strictly increasing; d_version constant.
	sk := intCol(t, r, 0)
	for i := 1; i < len(sk); i++ {
		if sk[i] <= sk[i-1] {
			t.Fatal("d_date_sk must be strictly increasing")
		}
	}
	version := r.Columns[r.ColumnIndex("d_version")]
	for i := 0; i < version.Len(); i++ {
		if version.Value(i) != "1" {
			t.Fatal("d_version must be constant")
		}
	}
	// d_month determines d_quarter within a year slice by construction.
	month := intCol(t, r, r.ColumnIndex("d_month"))
	quarter := intCol(t, r, r.ColumnIndex("d_quarter"))
	seen := map[int]int{}
	for i := range month {
		if q, ok := seen[month[i]]; ok && q != quarter[i] {
			t.Fatal("d_month must determine d_quarter")
		}
		seen[month[i]] = quarter[i]
	}
}

func TestInjectSwapViolations(t *testing.T) {
	r := DateDim(50)
	dirty, affected, err := InjectSwapViolations(r, "d_year", 3, 1)
	if err != nil {
		t.Fatalf("InjectSwapViolations: %v", err)
	}
	if len(affected) != 6 {
		t.Errorf("affected = %d rows, want 6", len(affected))
	}
	if dirty.Name != "date_dim-dirty" {
		t.Errorf("name = %q", dirty.Name)
	}
	// The original must be untouched.
	if !reflect.DeepEqual(r.Rows(), DateDim(50).Rows()) {
		t.Error("InjectSwapViolations mutated the source relation")
	}
	if _, _, err := InjectSwapViolations(r, "missing", 1, 1); err == nil {
		t.Error("expected error for unknown column")
	}

	tiny := Employees().Head(1)
	out, aff, err := InjectSwapViolations(tiny, "sal", 2, 1)
	if err != nil || len(aff) != 0 || out.NumRows() != 1 {
		t.Error("single-row relation should be returned unchanged")
	}
}

func TestRandomRelations(t *testing.T) {
	r := RandomRelation(20, 4, 3, 7)
	if r.NumRows() != 20 || r.NumCols() != 4 {
		t.Fatalf("dims %dx%d", r.NumRows(), r.NumCols())
	}
	if RandomRelation(5, 2, 0, 1).NumCols() != 2 {
		t.Error("domain clamp failed")
	}
	s := RandomStructuredRelation(30, 6, 4, 7)
	if s.NumRows() != 30 || s.NumCols() != 6 {
		t.Fatalf("structured dims %dx%d", s.NumRows(), s.NumCols())
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func intCol(t *testing.T, r *relation.Relation, idx int) []int {
	t.Helper()
	out := make([]int, r.NumRows())
	for i := range out {
		v, err := strconv.Atoi(r.Columns[idx].Value(i))
		if err != nil {
			t.Fatalf("column %d row %d: %v", idx, i, err)
		}
		out[i] = v
	}
	return out
}

func TestMessyRelationShapes(t *testing.T) {
	wide := MessyWideShallow(1)
	if wide.NumCols() != 8 || wide.NumRows() != 25 {
		t.Fatalf("wide shape = %dx%d, want 8x25", wide.NumCols(), wide.NumRows())
	}
	deep := MessyDeepNarrow(1)
	if deep.NumCols() != 4 || deep.NumRows() != 300 {
		t.Fatalf("deep shape = %dx%d, want 4x300", deep.NumCols(), deep.NumRows())
	}
	// Determinism per seed, variation across seeds.
	again := MessyWideShallow(1)
	other := MessyWideShallow(2)
	sameAsAgain, differsFromOther := true, false
	for c := range wide.Columns {
		for r := 0; r < wide.NumRows(); r++ {
			v := wide.Columns[c].Value(r)
			if again.Columns[c].Value(r) != v {
				sameAsAgain = false
			}
			if other.Columns[c].Value(r) != v {
				differsFromOther = true
			}
		}
	}
	if !sameAsAgain {
		t.Error("same seed produced different relations")
	}
	if !differsFromOther {
		t.Error("different seeds produced identical relations")
	}
}

func TestMessyRelationStressesOrderingSemantics(t *testing.T) {
	rel := MessyWideShallow(3)
	nulls := 0
	for _, col := range rel.Columns {
		for i := 0; i < col.Len(); i++ {
			if col.Value(i) == "" {
				nulls++
			}
		}
	}
	if nulls == 0 {
		t.Error("messy relation has no NULLs")
	}
	// The flavor cycle pins the sniffed types: the mixed-date column must
	// degrade to a string (no single layout parses every value), the all-NULL
	// column must still encode, and the plain date column stays a date.
	byName := make(map[string]relation.Type, rel.NumCols())
	for _, col := range rel.Columns {
		byName[col.Name] = col.Type
	}
	if got := byName["m0_int"]; got != relation.TypeInt {
		t.Errorf("m0_int sniffed as %v, want int", got)
	}
	if got := byName["m3_date"]; got != relation.TypeDate {
		t.Errorf("m3_date sniffed as %v, want date", got)
	}
	if got := byName["m4_mixdate"]; got != relation.TypeString {
		t.Errorf("m4_mixdate sniffed as %v, want string (mixed layouts)", got)
	}
	if _, err := relation.Encode(rel); err != nil {
		t.Fatalf("messy relation does not encode: %v", err)
	}
}
