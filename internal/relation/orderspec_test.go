package relation

import (
	"reflect"
	"strings"
	"testing"
)

func encodeOne(t *testing.T, typ Type, raw []string, co ColumnOrder) ([]int32, int) {
	t.Helper()
	r := New("t", NewColumn("a", typ, raw))
	enc, err := EncodeSpec(r, OrderSpec{co})
	if err != nil {
		t.Fatalf("EncodeSpec: %v", err)
	}
	return enc.Values[0], enc.Cardinality[0]
}

func TestEncodeSpecNilMatchesEncode(t *testing.T) {
	r := New("t",
		NewColumn("i", TypeInt, []string{"10", "2", "", "7", "2"}),
		NewColumn("s", TypeString, []string{"b", "a", "c", "", "a"}),
		NewColumn("d", TypeDate, []string{"2012-01-02", "2011-05-06", "", "2012-01-01", "2011-05-06"}),
	)
	plain, err := Encode(r)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	spec, err := EncodeSpec(r, nil)
	if err != nil {
		t.Fatalf("EncodeSpec(nil): %v", err)
	}
	if !reflect.DeepEqual(plain, spec) {
		t.Fatalf("Encode and EncodeSpec(nil) disagree:\n%+v\n%+v", plain, spec)
	}
	defaults := make(OrderSpec, r.NumCols())
	spec2, err := EncodeSpec(r, defaults)
	if err != nil {
		t.Fatalf("EncodeSpec(defaults): %v", err)
	}
	if !reflect.DeepEqual(plain, spec2) {
		t.Fatalf("Encode and EncodeSpec(all-default) disagree")
	}
}

func TestEncodeSpecDescReversesStrictOrder(t *testing.T) {
	raw := []string{"10", "2", "7", "2", "100"}
	asc, cardAsc := encodeOne(t, TypeInt, raw, ColumnOrder{})
	desc, cardDesc := encodeOne(t, TypeInt, raw, ColumnOrder{Direction: Desc})
	if cardAsc != cardDesc {
		t.Fatalf("cardinality changed under desc: %d vs %d", cardAsc, cardDesc)
	}
	for i := range raw {
		for j := range raw {
			if (asc[i] < asc[j]) != (desc[i] > desc[j]) {
				t.Fatalf("rows %d,%d: asc ranks %d,%d desc ranks %d,%d", i, j, asc[i], asc[j], desc[i], desc[j])
			}
		}
	}
}

func TestEncodeSpecNullPlacement(t *testing.T) {
	raw := []string{"5", "", "1", ""}
	first, _ := encodeOne(t, TypeInt, raw, ColumnOrder{})
	if first[1] != 0 || first[3] != 0 {
		t.Fatalf("NULLS FIRST: want rank 0 for nulls, got %v", first)
	}
	last, card := encodeOne(t, TypeInt, raw, ColumnOrder{Nulls: NullsLast})
	if int(last[1]) != card-1 || int(last[3]) != card-1 {
		t.Fatalf("NULLS LAST: want rank %d for nulls, got %v", card-1, last)
	}
	// Desc must NOT move the nulls: placement is independent of direction.
	descFirst, _ := encodeOne(t, TypeInt, raw, ColumnOrder{Direction: Desc})
	if descFirst[1] != 0 {
		t.Fatalf("desc + NULLS FIRST: want rank 0 for nulls, got %v", descFirst)
	}
	descLast, card2 := encodeOne(t, TypeInt, raw, ColumnOrder{Direction: Desc, Nulls: NullsLast})
	if int(descLast[1]) != card2-1 {
		t.Fatalf("desc + NULLS LAST: want rank %d for nulls, got %v", card2-1, descLast)
	}
}

// An all-NULL column must encode deterministically (single rank 0, cardinality
// 1) under both NULL placements — there is nothing to place the NULLs against.
func TestEncodeSpecAllNullColumn(t *testing.T) {
	raw := []string{"", "", ""}
	for _, co := range []ColumnOrder{
		{},
		{Nulls: NullsLast},
		{Direction: Desc, Nulls: NullsLast},
		{Collation: CollateNumeric, Nulls: NullsLast},
	} {
		ranks, card := encodeOne(t, TypeString, raw, co)
		if card != 1 {
			t.Fatalf("%v: all-NULL column cardinality = %d, want 1", co, card)
		}
		for i, r := range ranks {
			if r != 0 {
				t.Fatalf("%v: row %d rank = %d, want 0", co, i, r)
			}
		}
	}
	// Same under the typed default path (an all-NULL int column).
	ranks, card := encodeOne(t, TypeInt, raw, ColumnOrder{Nulls: NullsLast})
	if card != 1 || ranks[0] != 0 {
		t.Fatalf("all-NULL int column: ranks %v card %d", ranks, card)
	}
}

// Mixed date layouts within one column must sniff as string (no single
// chronological interpretation covers them), not silently mis-rank.
func TestSniffTypeMixedDateLayouts(t *testing.T) {
	if got := SniffType([]string{"2006-01-02", "2007-03-04"}); got != TypeDate {
		t.Fatalf("consistent layout: got %v, want date", got)
	}
	if got := SniffType([]string{"2006-01-02", "2006/01/02"}); got != TypeString {
		t.Fatalf("mixed layouts: got %v, want string", got)
	}
	if got := SniffType([]string{"01/02/2006", "", "03/04/2007"}); got != TypeDate {
		t.Fatalf("consistent slash layout with NULLs: got %v, want date", got)
	}
	if got := SniffType([]string{"01/02/2006", "2006-01-02T15:04:05Z"}); got != TypeString {
		t.Fatalf("slash + RFC3339 mix: got %v, want string", got)
	}
}

func TestEncodeSpecCaseInsensitiveMerges(t *testing.T) {
	raw := []string{"Red", "red", "BLUE", "blue", "Green"}
	ranks, card := encodeOne(t, TypeString, raw, ColumnOrder{Collation: CollateCaseInsensitive})
	if card != 3 {
		t.Fatalf("cardinality = %d, want 3 (case variants merge)", card)
	}
	if ranks[0] != ranks[1] || ranks[2] != ranks[3] {
		t.Fatalf("case variants got distinct ranks: %v", ranks)
	}
	// blue < green < red case-insensitively.
	if !(ranks[2] < ranks[4] && ranks[4] < ranks[0]) {
		t.Fatalf("unexpected order: %v", ranks)
	}
}

func TestEncodeSpecNumericCollationIsTotal(t *testing.T) {
	// A string-typed column with junk: numeric collation must encode without
	// error, numbers by value first, junk after (bytewise).
	raw := []string{"10", "2", "n/a", "1.5", "NaN", "?", "2.0"}
	ranks, _ := encodeOne(t, TypeString, raw, ColumnOrder{Collation: CollateNumeric})
	// 1.5 < 2 == 2.0 < 10 < junk
	if !(ranks[3] < ranks[1] && ranks[1] < ranks[0]) {
		t.Fatalf("numeric order wrong: %v", ranks)
	}
	if ranks[1] != ranks[6] {
		t.Fatalf("\"2\" and \"2.0\" must merge under numeric collation: %v", ranks)
	}
	for _, junk := range []int{2, 4, 5} {
		if ranks[junk] <= ranks[0] {
			t.Fatalf("junk value (row %d) must sort after all numbers: %v", junk, ranks)
		}
	}
}

// TestEncodeIntegersPast2To53 pins exact integer order where float64 runs
// out of precision: 2^53+1 rounds to 2^53 as a float, and -2^53-1 to -2^53.
// The default collation ranks every int64 exactly, and Compare agrees. The
// numeric collation stays a float collation and merges each rounded pair.
func TestEncodeIntegersPast2To53(t *testing.T) {
	raw := []string{
		"9007199254740993", "-9007199254740992", "9007199254740991",
		"-9007199254740993", "9007199254740992", "-9007199254740991",
	}
	if got := SniffType(raw); got != TypeInt {
		t.Fatalf("SniffType = %v, want int", got)
	}
	for _, tc := range []struct {
		co   ColumnOrder
		want []int32
	}{
		{ColumnOrder{}, []int32{5, 1, 3, 0, 4, 2}},
		{ColumnOrder{Collation: CollateNumeric}, []int32{3, 0, 2, 0, 3, 1}},
	} {
		ranks, _ := encodeOne(t, TypeInt, raw, tc.co)
		if !reflect.DeepEqual(ranks, tc.want) {
			t.Errorf("%v: ranks = %v, want %v", tc.co, ranks, tc.want)
		}
		for i := range raw {
			for j := range raw {
				want := Compare(tc.co, TypeInt, raw[i], raw[j])
				if got := int(ranks[i]) - int(ranks[j]); (want < 0) != (got < 0) || (want == 0) != (got == 0) {
					t.Errorf("%v: Compare(%s, %s) = %d, rank delta %d", tc.co, raw[i], raw[j], want, got)
				}
			}
		}
	}
}

func TestEncodeSpecDateCollation(t *testing.T) {
	raw := []string{"2012-01-02", "2011/05/06", "not a date", "2011-05-06"}
	ranks, _ := encodeOne(t, TypeString, raw, ColumnOrder{Collation: CollateDate})
	// 2011-05-06 (both layouts, same instant → merge) < 2012-01-02 < junk.
	if ranks[1] != ranks[3] {
		t.Fatalf("same instant in two layouts must merge: %v", ranks)
	}
	if !(ranks[1] < ranks[0] && ranks[0] < ranks[2]) {
		t.Fatalf("date order wrong: %v", ranks)
	}
}

func TestEncodeSpecRankCollation(t *testing.T) {
	raw := []string{"high", "low", "medium", "unknown", "low"}
	co := ColumnOrder{Collation: CollateRank, Ranks: []string{"low", "medium", "high"}}
	ranks, card := encodeOne(t, TypeString, raw, co)
	if card != 4 {
		t.Fatalf("cardinality = %d, want 4", card)
	}
	if !(ranks[1] < ranks[2] && ranks[2] < ranks[0] && ranks[0] < ranks[3]) {
		t.Fatalf("rank-list order wrong: %v", ranks)
	}
	if ranks[1] != ranks[4] {
		t.Fatalf("equal values must share a rank: %v", ranks)
	}
}

func TestEncodeSpecLexOverridesType(t *testing.T) {
	// "10" < "2" bytewise even though the column is int-typed.
	raw := []string{"10", "2"}
	ranks, _ := encodeOne(t, TypeInt, raw, ColumnOrder{Collation: CollateLexicographic})
	if !(ranks[0] < ranks[1]) {
		t.Fatalf("lexicographic collation must ignore the int type: %v", ranks)
	}
}

func TestColumnOrderValidate(t *testing.T) {
	cases := []struct {
		co   ColumnOrder
		want string // substring of the error, "" = valid
	}{
		{ColumnOrder{}, ""},
		{ColumnOrder{Direction: Desc, Nulls: NullsLast, Collation: CollateCaseInsensitive}, ""},
		{ColumnOrder{Collation: CollateRank, Ranks: []string{"a", "b"}}, ""},
		{ColumnOrder{Direction: 9}, "invalid direction"},
		{ColumnOrder{Nulls: 9}, "invalid null placement"},
		{ColumnOrder{Collation: 99}, "invalid collation"},
		{ColumnOrder{Collation: CollateRank}, "non-empty rank list"},
		{ColumnOrder{Collation: CollateRank, Ranks: []string{"a", "a"}}, "repeats value"},
		{ColumnOrder{Collation: CollateRank, Ranks: []string{"a", ""}}, "empty value"},
		{ColumnOrder{Ranks: []string{"a"}}, "Ranks set with collation"},
	}
	for _, tc := range cases {
		err := tc.co.Validate()
		if tc.want == "" {
			if err != nil {
				t.Fatalf("%+v: unexpected error %v", tc.co, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%+v: error %v, want substring %q", tc.co, err, tc.want)
		}
	}
}

func TestEncodeSpecLengthMismatch(t *testing.T) {
	r := New("t", NewColumn("a", TypeString, []string{"x"}), NewColumn("b", TypeString, []string{"y"}))
	if _, err := EncodeSpec(r, OrderSpec{{}}); err == nil {
		t.Fatal("want error for 1-entry spec on 2-column relation")
	}
}

func TestParseOrderEnums(t *testing.T) {
	if d, err := ParseDirection("DESC"); err != nil || d != Desc {
		t.Fatalf("ParseDirection(DESC) = %v, %v", d, err)
	}
	if _, err := ParseDirection("sideways"); err == nil {
		t.Fatal("want error for unknown direction")
	}
	if n, err := ParseNullOrder("Last"); err != nil || n != NullsLast {
		t.Fatalf("ParseNullOrder(Last) = %v, %v", n, err)
	}
	if _, err := ParseNullOrder("middle"); err == nil {
		t.Fatal("want error for unknown null placement")
	}
	for in, want := range map[string]Collation{
		"":                 CollateDefault,
		"lex":              CollateLexicographic,
		"CI":               CollateCaseInsensitive,
		"numeric":          CollateNumeric,
		"date":             CollateDate,
		"case-insensitive": CollateCaseInsensitive,
		"rank":             CollateRank,
	} {
		if c, err := ParseCollation(in); err != nil || c != want {
			t.Fatalf("ParseCollation(%q) = %v, %v", in, c, err)
		}
	}
	if _, err := ParseCollation("emoji"); err == nil {
		t.Fatal("want error for unknown collation")
	}
}

func TestColumnOrderString(t *testing.T) {
	co := ColumnOrder{Direction: Desc, Nulls: NullsLast, Collation: CollateRank, Ranks: []string{"lo", "hi"}}
	got := co.String()
	want := `desc nulls last collate rank ("lo" < "hi")`
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if got := (ColumnOrder{}).String(); got != "asc nulls first" {
		t.Fatalf("default String() = %q", got)
	}
}

// Compare must agree with the encoding on every pair of encoded values.
func TestCompareAgreesWithEncode(t *testing.T) {
	cols := []struct {
		typ Type
		raw []string
	}{
		{TypeInt, []string{"10", "2", "", "-3", "7", "2"}},
		{TypeFloat, []string{"1.5", "", "2", "-0.25", "1.50"}},
		{TypeDate, []string{"2012-01-02", "2011-05-06", "", "2020-12-31"}},
		{TypeString, []string{"b", "A", "", "a", "10", "2", "n/a"}},
	}
	orders := []ColumnOrder{
		{},
		{Direction: Desc},
		{Nulls: NullsLast},
		{Direction: Desc, Nulls: NullsLast},
		{Collation: CollateLexicographic},
		{Collation: CollateCaseInsensitive, Direction: Desc},
		{Collation: CollateNumeric, Nulls: NullsLast},
		{Collation: CollateDate},
		{Collation: CollateRank, Ranks: []string{"b", "a", "10"}},
	}
	sign := func(x int) int {
		switch {
		case x < 0:
			return -1
		case x > 0:
			return 1
		default:
			return 0
		}
	}
	for _, col := range cols {
		for _, co := range orders {
			// The typed default collation rejects junk at encode time; these
			// fixtures are crafted so every declared type parses.
			ranks, _ := encodeOne(t, col.typ, col.raw, co)
			for i, a := range col.raw {
				for j, b := range col.raw {
					want := sign(int(ranks[i]) - int(ranks[j]))
					got := sign(Compare(co, col.typ, a, b))
					if got != want {
						t.Fatalf("type %v order %+v: Compare(%q,%q) sign %d, ranks %d vs %d",
							col.typ, co, a, b, got, ranks[i], ranks[j])
					}
				}
			}
		}
	}
}
