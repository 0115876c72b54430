package relation

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func mustRelation(t *testing.T, header []string, rows [][]string) *Relation {
	t.Helper()
	r, err := FromRows("test", header, rows)
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	return r
}

func TestFromRowsAndAccessors(t *testing.T) {
	r := mustRelation(t, []string{"id", "name", "sal"}, [][]string{
		{"1", "ann", "5.5"},
		{"2", "bob", "8.25"},
	})
	if r.NumRows() != 2 || r.NumCols() != 3 {
		t.Fatalf("dims = %dx%d, want 2x3", r.NumRows(), r.NumCols())
	}
	if got := r.ColumnNames(); !reflect.DeepEqual(got, []string{"id", "name", "sal"}) {
		t.Errorf("ColumnNames = %v", got)
	}
	if r.ColumnIndex("name") != 1 || r.ColumnIndex("missing") != -1 {
		t.Error("ColumnIndex incorrect")
	}
	if r.Columns[0].Type != TypeInt || r.Columns[1].Type != TypeString || r.Columns[2].Type != TypeFloat {
		t.Errorf("sniffed types = %v %v %v", r.Columns[0].Type, r.Columns[1].Type, r.Columns[2].Type)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		rel  *Relation
	}{
		{"no columns", New("x")},
		{"duplicate names", New("x",
			NewColumn("a", TypeString, []string{"1"}),
			NewColumn("a", TypeString, []string{"2"}))},
		{"ragged columns", New("x",
			NewColumn("a", TypeString, []string{"1", "2"}),
			NewColumn("b", TypeString, []string{"1"}))},
		{"empty name", New("x", NewColumn("", TypeString, []string{"1"}))},
	}
	for _, tc := range cases {
		if err := tc.rel.Validate(); err == nil {
			t.Errorf("%s: Validate returned nil, want error", tc.name)
		}
	}
}

func TestValidateTooManyColumns(t *testing.T) {
	cols := make([]Column, 65)
	for i := range cols {
		cols[i] = NewColumn("c"+strconv.Itoa(i), TypeString, []string{"1"})
	}
	if err := New("wide", cols...).Validate(); err == nil {
		t.Error("expected error for 65 columns")
	}
}

func TestFromRowsRaggedRow(t *testing.T) {
	if _, err := FromRows("x", []string{"a", "b"}, [][]string{{"1"}}); err == nil {
		t.Error("expected error for ragged row")
	}
}

func TestSniffType(t *testing.T) {
	cases := []struct {
		vals []string
		want Type
	}{
		{[]string{"1", "2", "-5"}, TypeInt},
		{[]string{"1.5", "2"}, TypeFloat},
		{[]string{"2012-01-01", "2013-05-06"}, TypeDate},
		{[]string{"abc", "1"}, TypeString},
		{[]string{"", ""}, TypeString},
		{[]string{"", "7"}, TypeInt},
		// Inputs at the edges of the int-before-float shortcut.
		{[]string{"9223372036854775808"}, TypeFloat}, // int64 overflow
		{[]string{"1", "9223372036854775808"}, TypeFloat},
		{[]string{"+5"}, TypeInt},
		{[]string{"-0"}, TypeInt},
		{[]string{" 7 "}, TypeInt},
		{[]string{"+5", "-0", " 7 "}, TypeInt},
		{[]string{"1e3"}, TypeFloat},
		{[]string{"3", "1e3", "4"}, TypeFloat},
		{[]string{"NaN"}, TypeFloat},
		{[]string{"Inf"}, TypeFloat},
		{[]string{"1", "NaN", "Inf"}, TypeFloat},
		{[]string{"0x10"}, TypeString},
		{[]string{"16", "0x10"}, TypeString},
		{[]string{"1.5", "0x10"}, TypeString},
	}
	for _, tc := range cases {
		if got := SniffType(tc.vals); got != tc.want {
			t.Errorf("SniffType(%v) = %v, want %v", tc.vals, got, tc.want)
		}
	}
}

func TestTypeString(t *testing.T) {
	for typ, want := range map[Type]string{
		TypeString: "string", TypeInt: "int", TypeFloat: "float", TypeDate: "date", Type(9): "Type(9)",
	} {
		if typ.String() != want {
			t.Errorf("Type.String() = %q, want %q", typ.String(), want)
		}
	}
}

func TestEncodePreservesOrderAndEquality(t *testing.T) {
	r := mustRelation(t, []string{"num", "txt", "date"}, [][]string{
		{"10", "b", "2013-01-01"},
		{"2", "a", "2012-06-01"},
		{"10", "c", "2012-06-01"},
		{"-3", "a", "2014-12-31"},
	})
	enc, err := Encode(r)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// num: -3 < 2 < 10, so ranks are (2, 1, 2, 0)
	wantNum := []int32{2, 1, 2, 0}
	if !reflect.DeepEqual(enc.Column(0), wantNum) {
		t.Errorf("num ranks = %v, want %v", enc.Column(0), wantNum)
	}
	// txt: a < b < c
	wantTxt := []int32{1, 0, 2, 0}
	if !reflect.DeepEqual(enc.Column(1), wantTxt) {
		t.Errorf("txt ranks = %v, want %v", enc.Column(1), wantTxt)
	}
	// date: 2012-06-01 < 2013-01-01 < 2014-12-31
	wantDate := []int32{1, 0, 0, 2}
	if !reflect.DeepEqual(enc.Column(2), wantDate) {
		t.Errorf("date ranks = %v, want %v", enc.Column(2), wantDate)
	}
	if enc.Cardinality[0] != 3 || enc.Cardinality[1] != 3 || enc.Cardinality[2] != 3 {
		t.Errorf("cardinalities = %v", enc.Cardinality)
	}
}

func TestEncodeIntegerOrderIsNumericNotLexicographic(t *testing.T) {
	r := mustRelation(t, []string{"n"}, [][]string{{"9"}, {"10"}, {"100"}})
	enc, err := Encode(r)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	want := []int32{0, 1, 2}
	if !reflect.DeepEqual(enc.Column(0), want) {
		t.Errorf("ranks = %v, want %v (numeric order)", enc.Column(0), want)
	}
}

func TestEncodeNullsFirst(t *testing.T) {
	r := mustRelation(t, []string{"n"}, [][]string{{"5"}, {""}, {"1"}})
	enc, err := Encode(r)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	want := []int32{2, 0, 1}
	if !reflect.DeepEqual(enc.Column(0), want) {
		t.Errorf("ranks = %v, want %v (empty value first)", enc.Column(0), want)
	}
}

func TestEncodeErrorsOnBadValue(t *testing.T) {
	r := New("bad", NewColumn("n", TypeInt, []string{"1", "abc"}))
	if _, err := Encode(r); err == nil {
		t.Error("expected error encoding non-integer value in an int column")
	}
	r2 := New("bad", NewColumn("d", TypeDate, []string{"not-a-date"}))
	if _, err := Encode(r2); err == nil {
		t.Error("expected error encoding non-date value in a date column")
	}
	r3 := New("bad", NewColumn("f", TypeFloat, []string{"x"}))
	if _, err := Encode(r3); err == nil {
		t.Error("expected error encoding non-float value in a float column")
	}
}

func TestProjectAndHead(t *testing.T) {
	r := mustRelation(t, []string{"a", "b", "c"}, [][]string{
		{"1", "x", "9"}, {"2", "y", "8"}, {"3", "z", "7"},
	})
	p, err := r.Project([]int{2, 0})
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if got := p.ColumnNames(); !reflect.DeepEqual(got, []string{"c", "a"}) {
		t.Errorf("projected names = %v", got)
	}
	if p.Columns[0].Value(1) != "8" {
		t.Errorf("projected value = %q, want 8", p.Columns[0].Value(1))
	}
	if _, err := r.Project([]int{5}); err == nil {
		t.Error("expected error projecting out-of-range column")
	}

	h := r.Head(2)
	if h.NumRows() != 2 || h.Columns[1].Value(1) != "y" {
		t.Errorf("Head(2) wrong: %d rows", h.NumRows())
	}
	if r.Head(10).NumRows() != 3 {
		t.Error("Head beyond row count should clamp")
	}
}

func TestEncodedSelectRows(t *testing.T) {
	r := mustRelation(t, []string{"a", "b"}, [][]string{
		{"3", "x"}, {"1", "y"}, {"2", "x"}, {"1", "z"},
	})
	enc, err := Encode(r)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	sel, err := enc.SelectRows([]int{3, 1, 1})
	if err != nil {
		t.Fatalf("SelectRows: %v", err)
	}
	if sel.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", sel.NumRows())
	}
	if sel.Column(0)[0] != enc.Column(0)[3] || sel.Column(1)[1] != enc.Column(1)[1] {
		t.Error("selected values do not match source rows")
	}
	if sel.Cardinality[0] != 1 || sel.Cardinality[1] != 2 {
		t.Errorf("cardinalities = %v, want [1 2]", sel.Cardinality)
	}
	if _, err := enc.SelectRows([]int{4}); err == nil {
		t.Error("out-of-range row should error")
	}
	if _, err := enc.SelectRows([]int{-1}); err == nil {
		t.Error("negative row should error")
	}
}

func TestEncodedProjectColumnsAndHeadRows(t *testing.T) {
	r := mustRelation(t, []string{"a", "b"}, [][]string{
		{"3", "x"}, {"1", "y"}, {"2", "x"}, {"1", "z"},
	})
	enc, err := Encode(r)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	p := enc.ProjectColumns(1)
	if p.NumCols() != 1 || p.ColumnNames[0] != "a" {
		t.Errorf("ProjectColumns(1) = %v", p.ColumnNames)
	}
	if enc.ProjectColumns(99).NumCols() != 2 {
		t.Error("ProjectColumns should clamp to the column count")
	}
	h := enc.HeadRows(2)
	if h.NumRows() != 2 {
		t.Fatalf("HeadRows(2) rows = %d", h.NumRows())
	}
	if h.Cardinality[0] != 2 || h.Cardinality[1] != 2 {
		t.Errorf("HeadRows cardinalities = %v, want [2 2]", h.Cardinality)
	}
	if enc.HeadRows(100).NumRows() != 4 {
		t.Error("HeadRows beyond row count should clamp")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := mustRelation(t, []string{"id", "name\r\n"}, [][]string{
		{"1", "ann"}, {"2", "bo,b"}, {"3", `qu"ote`}, {"4", "cr\r\nlf"}, {"5", "\r\r\n"},
	})
	var buf bytes.Buffer
	if err := WriteCSV(r, &buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV("roundtrip", &buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if !reflect.DeepEqual(back.ColumnNames(), r.ColumnNames()) || !reflect.DeepEqual(back.Rows(), r.Rows()) {
		t.Errorf("round trip mismatch:\n got %q %q\nwant %q %q", back.ColumnNames(), back.Rows(), r.ColumnNames(), r.Rows())
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("empty", strings.NewReader("")); err == nil {
		t.Error("expected error for empty csv")
	}
	if _, err := ReadCSV("ragged", strings.NewReader("a,b\n1\n")); err == nil {
		t.Error("expected error for ragged csv")
	}
	if _, err := ReadCSVFile("/nonexistent/file.csv"); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	r := mustRelation(t, []string{"a"}, [][]string{{"1"}, {"2"}})
	path := t.TempDir() + "/out.csv"
	if err := WriteCSVFile(r, path); err != nil {
		t.Fatalf("WriteCSVFile: %v", err)
	}
	back, err := ReadCSVFile(path)
	if err != nil {
		t.Fatalf("ReadCSVFile: %v", err)
	}
	if back.NumRows() != 2 {
		t.Errorf("rows = %d, want 2", back.NumRows())
	}
}

// Property: rank encoding preserves pairwise order and equality of integer
// columns.
func TestEncodeOrderPreservationQuick(t *testing.T) {
	f := func(vals []int16) bool {
		if len(vals) == 0 {
			return true
		}
		raw := make([]string, len(vals))
		for i, v := range vals {
			raw[i] = strconv.Itoa(int(v))
		}
		r := New("q", NewColumn("n", TypeInt, raw))
		enc, err := Encode(r)
		if err != nil {
			return false
		}
		col := enc.Column(0)
		for i := range vals {
			for j := range vals {
				if (vals[i] < vals[j]) != (col[i] < col[j]) {
					return false
				}
				if (vals[i] == vals[j]) != (col[i] == col[j]) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: ranks are dense, i.e. exactly the integers 0..cardinality-1 occur.
func TestEncodeDenseRanksQuick(t *testing.T) {
	f := func(vals []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		raw := make([]string, len(vals))
		for i, v := range vals {
			raw[i] = strconv.Itoa(int(v))
		}
		r := New("q", NewColumn("n", TypeInt, raw))
		enc, err := Encode(r)
		if err != nil {
			return false
		}
		seen := map[int32]bool{}
		for _, v := range enc.Column(0) {
			seen[v] = true
		}
		if len(seen) != enc.Cardinality[0] {
			return false
		}
		ranks := make([]int, 0, len(seen))
		for v := range seen {
			ranks = append(ranks, int(v))
		}
		sort.Ints(ranks)
		for i, v := range ranks {
			if v != i {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
