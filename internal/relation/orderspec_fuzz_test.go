package relation

import (
	"strings"
	"testing"
	"time"
)

// FuzzEncodeSpec differences the two independent implementations of the
// ordering contract against each other: EncodeSpec's key-based rank encoding
// versus the naive pairwise reference comparator Compare. For a random
// column under a random ColumnOrder it checks that
//
//  1. ranks are dense (every rank in [0, cardinality) occurs),
//  2. rank order equals a naive spec-aware sort: for every pair of rows,
//     sign(rank_i - rank_j) == sign(Compare(co, type, raw_i, raw_j)),
//  3. re-encoding under the reversed spec (direction and NULL placement both
//     flipped) reverses every strict inequality and keeps every equality.
func FuzzEncodeSpec(f *testing.F) {
	f.Add("1\n2\n\n10", 0, 0, 0, "")
	f.Add("10\n2\n7\n2\n100", 1, 1, 0, "")
	f.Add("Red\nred\nBLUE\nblue", 0, 0, 4, "")
	f.Add("1.5\nn/a\nNaN\n2\n2.0\n?", 0, 1, 2, "")
	f.Add("2012-01-02\n2011/05/06\nnot a date\n2011-05-06", 1, 0, 3, "")
	f.Add("high\nlow\nmedium\nunknown\nlow\n", 0, 1, 5, "low\nmedium\nhigh")
	f.Add("2006-01-02\n2006/01/02\n01/02/2006", 0, 0, 0, "")
	f.Add("\n\n\n", 1, 1, 1, "")
	f.Add("9007199254740993\n-9007199254740992\n9007199254740991\n-9007199254740993\n9007199254740992\n-9007199254740991", 0, 0, 0, "")
	f.Add("9007199254740993\n-9007199254740992\n9007199254740991\n-9007199254740993\n9007199254740992\n-9007199254740991", 1, 0, 2, "")
	f.Fuzz(func(t *testing.T, colData string, dir, nulls, coll int, ranksData string) {
		raw := strings.Split(colData, "\n")
		if len(raw) > 64 {
			raw = raw[:64]
		}
		mod := func(v, n int) int {
			m := v % n
			if m < 0 {
				m += n
			}
			return m
		}
		collations := []Collation{
			CollateDefault, CollateLexicographic, CollateNumeric,
			CollateDate, CollateCaseInsensitive, CollateRank,
		}
		co := ColumnOrder{
			Direction: Direction(mod(dir, 2)),
			Nulls:     NullOrder(mod(nulls, 2)),
			Collation: collations[mod(coll, len(collations))],
		}
		if co.Collation == CollateRank {
			seen := make(map[string]bool)
			for _, v := range strings.Split(ranksData, "\n") {
				if v == "" || seen[v] || len(co.Ranks) >= 16 {
					continue
				}
				seen[v] = true
				co.Ranks = append(co.Ranks, v)
			}
			if len(co.Ranks) == 0 {
				co.Collation = CollateLexicographic
			}
		}
		typ := SniffType(raw)
		encode := func(order ColumnOrder) ([]int32, int, bool) {
			r := New("fuzz", NewColumn("a", typ, raw))
			enc, err := EncodeSpec(r, OrderSpec{order})
			if err != nil {
				// Only the typed default collation may reject values (e.g.
				// whitespace-only strings the sniffer treats as missing);
				// every explicit collation is total.
				if order.Collation != CollateDefault {
					t.Fatalf("EncodeSpec with explicit collation %v errored: %v", order.Collation, err)
				}
				return nil, 0, false
			}
			return enc.Values[0], enc.Cardinality[0], true
		}
		ranks, card, ok := encode(co)
		if !ok {
			return
		}
		// Density: every rank in [0, card) occurs, none outside.
		used := make([]bool, card)
		for i, r := range ranks {
			if int(r) < 0 || int(r) >= card {
				t.Fatalf("row %d: rank %d outside [0,%d)", i, r, card)
			}
			used[r] = true
		}
		for r, u := range used {
			if !u {
				t.Fatalf("rank %d unused (cardinality %d not dense)", r, card)
			}
		}
		// Rank order == naive spec-aware comparison of raw values.
		for i := range raw {
			for j := range raw {
				want := Compare(co, typ, raw[i], raw[j])
				got := int(ranks[i]) - int(ranks[j])
				if (want < 0) != (got < 0) || (want == 0) != (got == 0) {
					t.Fatalf("order %+v type %v: rows %d,%d (%q,%q): Compare %d, rank delta %d",
						co, typ, i, j, raw[i], raw[j], want, got)
				}
			}
		}
		// The reversed spec reverses strict inequalities and keeps equalities.
		rev := co
		rev.Direction = Asc + Desc - co.Direction
		rev.Nulls = NullsFirst + NullsLast - co.Nulls
		rranks, rcard, ok := encode(rev)
		if !ok {
			t.Fatalf("reverse encode failed after forward encode succeeded")
		}
		if rcard != card {
			t.Fatalf("reversing the spec changed cardinality: %d vs %d", card, rcard)
		}
		for i := range raw {
			for j := range raw {
				if (ranks[i] < ranks[j]) != (rranks[i] > rranks[j]) {
					t.Fatalf("reverse of %+v: rows %d,%d (%q,%q): forward %d,%d reverse %d,%d",
						co, i, j, raw[i], raw[j], ranks[i], ranks[j], rranks[i], rranks[j])
				}
			}
		}
	})
}

// FuzzParseDate holds parseDate to the plain loop over dateLayouts it
// shortcuts: for any raw value both must agree on whether it parses and on
// its unix time. FuzzEncodeSpec cannot catch a wrong shortcut, because
// EncodeSpec and Compare both call parseDate.
func FuzzParseDate(f *testing.F) {
	for _, seed := range []string{
		"2017-01-02", " 2017/01/02 ", "01/02/2017", "2017-01-02T15:04:05+02:00",
		"2017-1-2", "1/2/2017", "+017-01-02", "x017-01-02", "1234567890", "20170102", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		var want int64
		wantOK := false
		v := strings.TrimSpace(raw)
		for _, layout := range dateLayouts {
			if ts, err := time.Parse(layout, v); err == nil {
				want, wantOK = ts.Unix(), true
				break
			}
		}
		if got, ok := parseDate(raw); got != want || ok != wantOK {
			t.Fatalf("parseDate(%q) = %d, %v; the layout loop gives %d, %v", raw, got, ok, want, wantOK)
		}
	})
}
