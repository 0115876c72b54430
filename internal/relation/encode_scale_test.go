package relation_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relation"
)

// TestEncodeSpecAtScale checks the spec-to-rank contract on generated
// relations far larger than FuzzEncodeSpec reaches: high-cardinality columns
// with many duplicates (ncvoter-like names), keys, constants, and NULL-dense
// mixed-type columns, each under the default spec and under seeded random
// OrderSpecs. Per column it asserts that ranks are dense in
// [0, Cardinality), and that sorting the rows with relation.Compare yields
// non-decreasing ranks whose adjacent ranks are equal exactly where Compare
// returns 0. Together these say rank order is the spec's order, value for
// value.
func TestEncodeSpecAtScale(t *testing.T) {
	// rotations is the number of random specs per shape (see randomSpec).
	// Flight- and ncvoter-like columns are all integers, whose distinct
	// spellings never merge, so two suffice there; the messy shape, whose
	// floats, dates and strings do merge, gets all six.
	shapes := []struct {
		rel       *relation.Relation
		rotations int
	}{
		{datagen.FlightLike(20000, 10, 2017), 2},
		{datagen.NCVoterLike(6000, 8, 7), 2},
		{datagen.MessyRelation(4000, 12, 0.2, 11), len(allCollations)},
	}
	for _, sh := range shapes {
		rel := sh.rel
		rng := rand.New(rand.NewSource(int64(rel.NumRows())))
		specs := []relation.OrderSpec{nil}
		for k := 0; k < sh.rotations; k++ {
			specs = append(specs, randomSpec(rng, rel, k))
		}
		for si, spec := range specs {
			enc, err := relation.EncodeSpec(rel, spec)
			if err != nil {
				t.Fatalf("%s spec %d: %v", rel.Name, si, err)
			}
			for ci, col := range rel.Columns {
				var co relation.ColumnOrder
				if spec != nil {
					co = spec[ci]
				}
				checkColumnRanks(t, col, co, enc.Values[ci], enc.Cardinality[ci])
			}
		}
	}
}

var allCollations = []relation.Collation{
	relation.CollateDefault, relation.CollateLexicographic, relation.CollateNumeric,
	relation.CollateDate, relation.CollateCaseInsensitive, relation.CollateRank,
}

// randomSpec draws a random direction and NULL placement per column and
// gives column ci the collation allCollations[(ci+k) % 6], so the specs for
// k = 0..5 put every collation on every column once — the merging ones
// (numeric, date, case-insensitive, rank) included. A rank collation lists
// a few of the column's own values in random order plus one the column
// never holds.
func randomSpec(rng *rand.Rand, rel *relation.Relation, k int) relation.OrderSpec {
	spec := make(relation.OrderSpec, rel.NumCols())
	for ci, col := range rel.Columns {
		co := relation.ColumnOrder{
			Direction: relation.Direction(rng.Intn(2)),
			Nulls:     relation.NullOrder(rng.Intn(2)),
			Collation: allCollations[(ci+k)%len(allCollations)],
		}
		if co.Collation == relation.CollateRank {
			listed := map[string]bool{"\x00absent": true}
			co.Ranks = []string{"\x00absent"}
			for k := 0; k < 6; k++ {
				if v := col.Value(rng.Intn(col.Len())); v != "" && !listed[v] {
					listed[v] = true
					co.Ranks = append(co.Ranks, v)
				}
			}
			rng.Shuffle(len(co.Ranks), func(i, j int) { co.Ranks[i], co.Ranks[j] = co.Ranks[j], co.Ranks[i] })
		}
		spec[ci] = co
	}
	return spec
}

func checkColumnRanks(t *testing.T, col relation.Column, co relation.ColumnOrder, ranks []int32, card int) {
	t.Helper()
	used := make([]bool, card)
	for row, r := range ranks {
		if r < 0 || int(r) >= card {
			t.Fatalf("column %s (%v): row %d has rank %d outside [0,%d)", col.Name, co, row, r, card)
		}
		used[r] = true
	}
	if i := slices.Index(used, false); i >= 0 {
		t.Fatalf("column %s (%v): rank %d of [0,%d) unused", col.Name, co, i, card)
	}
	rows := make([]int, col.Len())
	for i := range rows {
		rows[i] = i
	}
	slices.SortFunc(rows, func(a, b int) int {
		return relation.Compare(co, col.Type, col.Value(a), col.Value(b))
	})
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		c := relation.Compare(co, col.Type, col.Value(a), col.Value(b))
		switch {
		case ranks[a] > ranks[b]:
			t.Fatalf("column %s (%v): Compare sorts %q before %q, but ranks are %d > %d",
				col.Name, co, col.Value(a), col.Value(b), ranks[a], ranks[b])
		case (ranks[a] == ranks[b]) != (c == 0):
			t.Fatalf("column %s (%v): %q vs %q: Compare %d, ranks %d and %d",
				col.Name, co, col.Value(a), col.Value(b), c, ranks[a], ranks[b])
		}
	}
}
