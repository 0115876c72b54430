package fastod_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	fastod "repro"
	"repro/internal/canonical"
	"repro/internal/datagen"
	"repro/internal/relation"
)

// The ordering-semantics property suite: FASTOD over a spec re-encoding must
// discover exactly the dependencies a brute-force oracle finds by comparing
// RAW values under the spec. The two paths share no code below the OrderSpec
// type — the oracle never rank-encodes — so agreement here ties the whole
// encode-then-discover pipeline to the declarative semantics of the spec.

// specCase is one per-column override set, given by column index so it can be
// applied to any messy shape.
type specCase struct {
	name   string
	orders map[int]relation.ColumnOrder
}

// specCases covers direction flips, both NULL placements (including the
// FIRST/LAST flip of the same direction override), and collation overrides.
func specCases(cols int) []specCase {
	cases := []specCase{
		{name: "default", orders: nil},
		{name: "desc-mixed", orders: map[int]relation.ColumnOrder{
			0 % cols: {Direction: relation.Desc},
			1 % cols: {Nulls: relation.NullsLast},
		}},
		{name: "desc-nulls-first", orders: map[int]relation.ColumnOrder{
			0 % cols: {Direction: relation.Desc, Nulls: relation.NullsFirst},
			2 % cols: {Nulls: relation.NullsFirst},
		}},
		{name: "desc-nulls-last", orders: map[int]relation.ColumnOrder{
			0 % cols: {Direction: relation.Desc, Nulls: relation.NullsLast},
			2 % cols: {Nulls: relation.NullsLast},
		}},
		{name: "collations", orders: map[int]relation.ColumnOrder{
			2 % cols: {Collation: relation.CollateCaseInsensitive},
			3 % cols: {Collation: relation.CollateNumeric, Direction: relation.Desc},
		}},
	}
	return cases
}

func TestSpecDiscoveryMatchesRawOracle(t *testing.T) {
	shapes := []struct {
		name        string
		rows, cols  int
		nullDensity float64
		seed        int64
	}{
		{"wide-shallow", 25, 8, 0.33, 11},
		{"deep-narrow", 300, 4, 0.12, 12},
		{"mid-null-heavy", 40, 6, 0.5, 13},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			// The generator is deterministic, so the oracle's relation and the
			// dataset's are value-identical.
			rel := datagen.MessyRelation(shape.rows, shape.cols, shape.nullDensity, shape.seed)
			ds := fastod.SyntheticMessy(shape.rows, shape.cols, shape.nullDensity, shape.seed)
			for _, sc := range specCases(rel.NumCols()) {
				t.Run(sc.name, func(t *testing.T) {
					relSpec := make(relation.OrderSpec, rel.NumCols())
					var orders []fastod.AttrOrder
					for i := range relSpec {
						co, ok := sc.orders[i]
						if !ok {
							continue
						}
						relSpec[i] = co
						orders = append(orders, fastod.AttrOrder{
							Column:    rel.Columns[i].Name,
							Direction: co.Direction,
							Nulls:     co.Nulls,
							Collation: co.Collation,
							Ranks:     co.Ranks,
						})
					}
					want, err := canonical.ReferenceDiscoverRaw(rel, relSpec)
					if err != nil {
						t.Fatalf("ReferenceDiscoverRaw: %v", err)
					}
					rep, err := ds.Run(context.Background(), fastod.Request{
						Algorithm:  fastod.AlgorithmFASTOD,
						RunOptions: fastod.RunOptions{OrderSpecs: orders},
					})
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
					got := rep.FASTOD.ODs
					if len(got) != len(want) {
						t.Fatalf("FASTOD found %d ODs, raw oracle %d\n got: %v\nwant: %v",
							len(got), len(want), got, want)
					}
					for i := range want {
						if !got[i].Equal(want[i]) {
							t.Fatalf("OD %d differs: got %v, want %v", i, got[i], want[i])
						}
					}
				})
			}
		})
	}
}

// TestSpecNullPlacementChangesDiscovery pins that the FIRST/LAST flip is not
// a no-op end to end: on a NULL-dense shape, at least one spec pair from the
// suite above must disagree about which dependencies hold.
func TestSpecNullPlacementChangesDiscovery(t *testing.T) {
	ds := fastod.SyntheticMessy(40, 6, 0.5, 13)
	run := func(nulls fastod.NullOrder) []fastod.OD {
		t.Helper()
		var orders []fastod.AttrOrder
		for _, name := range ds.ColumnNames() {
			orders = append(orders, fastod.AttrOrder{Column: name, Nulls: nulls, Direction: fastod.OrderDesc})
		}
		rep, err := ds.Run(context.Background(), fastod.Request{
			RunOptions: fastod.RunOptions{OrderSpecs: orders},
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return rep.FASTOD.ODs
	}
	first, last := run(fastod.NullsFirst), run(fastod.NullsLast)
	same := len(first) == len(last)
	if same {
		for i := range first {
			if !first[i].Equal(last[i]) {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("NULLS FIRST and NULLS LAST discovered identical OD sets on a NULL-dense relation; the placement is not reaching the encoder")
	}
}

// TestCheckBidirListODMatchesRawOracle checks CheckBidirListOD against the
// definition of a list OD over raw values: X ↦ Y holds when, for every pair
// of rows, s ⪯X t implies s ⪯Y t, comparing a descending column with
// relation.Compare under DESC NULLS LAST and an ascending one under its
// default order. Inputs are NULL-dense messy and flight-like datasets, a
// NULL-dense integer column beside its negation and its copy (NULLs in the
// same rows, so outcomes turn on where DESC puts NULLs), and HeadRows and
// Project views of each; the sides are drawn with one direction per column
// per draw.
func TestCheckBidirListODMatchesRawOracle(t *testing.T) {
	type input struct {
		name string
		rel  *relation.Relation
		ds   *fastod.Dataset
	}
	rng := rand.New(rand.NewSource(43))
	var inputs []input
	for _, seed := range []int64{41, 42} {
		mirrored := make([][]string, 36)
		for i := range mirrored {
			v, neg := "", ""
			if rng.Intn(5) >= 2 {
				n := rng.Intn(10) - 3
				v, neg = strconv.Itoa(n), strconv.Itoa(-n)
			}
			mirrored[i] = []string{v, neg, v}
		}
		header := []string{"v", "neg", "copy"}
		mirroredRel, err := relation.FromRows("mirrored", header, mirrored)
		if err != nil {
			t.Fatal(err)
		}
		mirroredDS, err := fastod.FromRows("mirrored", header, mirrored)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range []input{
			{"messy", datagen.MessyRelation(36, 6, 0.4, seed), fastod.SyntheticMessy(36, 6, 0.4, seed)},
			{"flight", datagen.FlightLike(36, 7, seed), fastod.SyntheticFlight(36, 7, seed)},
			{"mirrored", mirroredRel, mirroredDS},
		} {
			k := in.rel.NumCols() - 1
			proj := &relation.Relation{Name: in.rel.Name, Columns: in.rel.Columns[:k]}
			inputs = append(inputs, in,
				input{in.name + "/head", in.rel.Head(20), in.ds.HeadRows(20)},
				input{in.name + "/project", proj, in.ds.Project(k)})
		}
	}
	desc := relation.ColumnOrder{Direction: relation.Desc, Nulls: relation.NullsLast}
	precedes := func(rel *relation.Relation, side []fastod.DirectedColumn, s, t int) bool {
		for _, c := range side {
			col := rel.Columns[rel.ColumnIndex(c.Column)]
			var co relation.ColumnOrder
			if c.Dir == fastod.OrderDesc {
				co = desc
			}
			if v := relation.Compare(co, col.Type, col.Value(s), col.Value(t)); v != 0 {
				return v < 0
			}
		}
		return true
	}
	checked, held := 0, 0
	for _, in := range inputs {
		n, names := in.rel.NumCols(), in.rel.ColumnNames()
		for draw := 0; draw < 30; draw++ {
			dirs := make([]fastod.OrderDirection, n)
			for i := range dirs {
				dirs[i] = fastod.OrderDirection(rng.Intn(2))
			}
			side := func(maxLen int) []fastod.DirectedColumn {
				out := make([]fastod.DirectedColumn, 1+rng.Intn(maxLen))
				for i := range out {
					a := rng.Intn(n)
					out[i] = fastod.DirectedColumn{Column: names[a], Dir: dirs[a]}
				}
				return out
			}
			x, y := side(3), side(2)
			want := true
			for s := 0; s < in.rel.NumRows() && want; s++ {
				for u := 0; u < in.rel.NumRows(); u++ {
					if precedes(in.rel, x, s, u) && !precedes(in.rel, y, s, u) {
						want = false
						break
					}
				}
			}
			got, err := in.ds.CheckBidirListOD(x, y)
			if err != nil {
				t.Fatalf("%s: %v -> %v: %v", in.name, x, y, err)
			}
			if got != want {
				t.Fatalf("%s: %v -> %v = %v, raw oracle %v", in.name, x, y, got, want)
			}
			checked++
			if got {
				held++
			}
		}
	}
	if held == 0 || held == checked {
		t.Fatalf("%d of %d drawn ODs hold; the draw does not exercise both outcomes", held, checked)
	}
	t.Logf("%d of %d drawn ODs hold", held, checked)

	ds := inputs[0].ds
	a, b := ds.ColumnNames()[0], ds.ColumnNames()[1]
	for name, sides := range map[string][2][]fastod.DirectedColumn{
		"both directions across sides": {{{Column: a}}, {{Column: a, Dir: fastod.OrderDesc}}},
		"both directions on one side":  {{{Column: a, Dir: fastod.OrderDesc}, {Column: b}, {Column: a}}, nil},
		"unknown left column":          {{{Column: "bogus"}}, {{Column: a}}},
		"unknown right column":         {{{Column: a}}, {{Column: "bogus", Dir: fastod.OrderDesc}}},
	} {
		if _, err := ds.CheckBidirListOD(sides[0], sides[1]); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	// A column outside a Project view is unknown there.
	hidden := ds.ColumnNames()[5]
	if _, err := ds.Project(5).CheckBidirListOD(nil, []fastod.DirectedColumn{{Column: hidden}}); err == nil {
		t.Errorf("column %q outside the Project view: no error", hidden)
	}
}

// checkSpecEncoded holds ds.SpecEncoded(orders), which re-ranks only the
// columns orders name, to relation.EncodeSpec on rel, ds's raw relation,
// which ranks every column: ranks and cardinalities agree column for column,
// and the equality signature lists, in index order, each column whose
// cardinality the spec changes, with its collation. A column the spec
// leaves at the default shares the default encoding's ranks; a named one
// owns its own. It returns the number of named columns.
func checkSpecEncoded(t *testing.T, ds *fastod.Dataset, rel *relation.Relation, orders []fastod.AttrOrder) int {
	t.Helper()
	base, err := ds.SpecEncoded(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ds.SpecEncoded(orders)
	if err != nil {
		t.Fatalf("SpecEncoded(%+v): %v", orders, err)
	}
	spec := make(relation.OrderSpec, rel.NumCols())
	named := 0
	for _, o := range orders {
		co := relation.ColumnOrder{Direction: o.Direction, Nulls: o.Nulls, Collation: o.Collation, Ranks: o.Ranks}
		if !co.IsDefault() {
			spec[rel.ColumnIndex(o.Column)] = co
			named++
		}
	}
	want, err := relation.EncodeSpec(rel, spec)
	if err != nil {
		t.Fatalf("EncodeSpec(%v): %v", spec, err)
	}
	if got.Name != want.Name || !slices.Equal(got.ColumnNames, want.ColumnNames) || got.NumRows() != want.NumRows() {
		t.Fatalf("%+v: SpecEncoded is %s %v × %d rows, EncodeSpec %s %v × %d", orders,
			got.Name, got.ColumnNames, got.NumRows(), want.Name, want.ColumnNames, want.NumRows())
	}
	var eq strings.Builder
	for c := range want.Values {
		if got.Cardinality[c] != want.Cardinality[c] || !slices.Equal(got.Values[c], want.Values[c]) {
			t.Errorf("%+v: column %d has cardinality %d and ranks %v, EncodeSpec %d and %v", orders, c,
				got.Cardinality[c], got.Values[c], want.Cardinality[c], want.Values[c])
		}
		if want.Cardinality[c] != base.Cardinality[c] {
			fmt.Fprintf(&eq, "%d:%d;", c, spec[c].Collation)
		}
		shared := len(got.Values[c]) > 0 && &got.Values[c][0] == &base.Values[c][0]
		if shared != spec[c].IsDefault() {
			t.Errorf("%+v: column %d (order %v) shares the default ranks: %v", orders, c, spec[c], shared)
		}
	}
	if got.Equality != eq.String() {
		t.Errorf("%+v: equality signature %q, want %q", orders, got.Equality, eq.String())
	}
	if named > 0 && got.Base != base {
		t.Errorf("%+v: Base is not the default encoding", orders)
	}
	return named
}

// TestSpecEncodedMatchesEncodeSpec runs checkSpecEncoded on a messy dataset,
// on HeadRows and Project views of it, and on a table whose column names sort
// against their index order, for one- and multi-column specs under the
// collations that merge values (numeric, date, case-insensitive, rank) and
// those that do not. It also checks that the spec cache charges each
// re-encoding rows × 4 bytes for every column its spec names.
func TestSpecEncodedMatchesEncodeSpec(t *testing.T) {
	rel := datagen.MessyRelation(300, 8, 0.2, 21)
	ds := fastod.SyntheticMessy(300, 8, 0.2, 21)
	header := []string{"z_float", "y_str", "x_date"}
	rows := [][]string{
		{"1", "ab", "2017-01-02"}, {"1.0", "AB", "2017/01/02"}, {"2", "cd", ""},
		{"", "Cd", "2017-01-03"}, {"2.50", "", "2017/01/03"}, {"2.5", "ab", "2017-01-02"},
	}
	reversedRel, err := relation.FromRows("reversed", header, rows)
	if err != nil {
		t.Fatal(err)
	}
	reversed, err := fastod.FromRows("reversed", header, rows)
	if err != nil {
		t.Fatal(err)
	}
	views := []struct {
		name string
		ds   *fastod.Dataset
		rel  *relation.Relation
	}{
		{"dataset", ds, rel},
		{"HeadRows(40)", ds.HeadRows(40), rel.Head(40)},
		{"Project(5)", ds.Project(5), &relation.Relation{Name: rel.Name, Columns: rel.Columns[:5]}},
		{"reversed names", reversed, reversedRel},
	}
	specs := [][]fastod.AttrOrder{
		{
			{Column: "z_float", Collation: fastod.CollateNumeric},
			{Column: "y_str", Collation: fastod.CollateCaseInsen, Direction: fastod.OrderDesc},
			{Column: "x_date", Collation: fastod.CollateDate, Nulls: fastod.NullsLast},
		},
		{{Column: "y_str", Collation: fastod.CollateCaseInsen}, {Column: "x_date", Direction: fastod.OrderDesc}},
		{{Column: "m0_int", Direction: fastod.OrderDesc}},
		{{Column: "m1_float", Collation: fastod.CollateNumeric}},
		{{Column: "m4_mixdate", Collation: fastod.CollateDate, Direction: fastod.OrderDesc, Nulls: fastod.NullsLast}},
		{{Column: "m2_string", Collation: fastod.CollateCaseInsen}},
		{{Column: "m2_string", Collation: fastod.CollateRank, Ranks: []string{"cd", "ab", "x"}}},
		{
			{Column: "m7_float", Collation: fastod.CollateLex},
			{Column: "m2_string", Collation: fastod.CollateCaseInsen, Direction: fastod.OrderDesc},
			{Column: "m0_int", Nulls: fastod.NullsLast},
			{Column: "m3_date"}, // a no-op entry, erased
		},
		{
			{Column: "m4_mixdate", Collation: fastod.CollateDate},
			{Column: "m1_float", Collation: fastod.CollateNumeric, Nulls: fastod.NullsLast},
			{Column: "m6_int", Collation: fastod.CollateRank, Ranks: []string{"3", "-1", "0"}},
		},
	}
	merged := 0
	for _, v := range views {
		wantBytes := int64(0)
		for _, orders := range specs {
			var kept []fastod.AttrOrder
			for _, o := range orders {
				if v.rel.ColumnIndex(o.Column) >= 0 {
					kept = append(kept, o)
				}
			}
			if len(kept) == 0 {
				continue
			}
			wantBytes += int64(checkSpecEncoded(t, v.ds, v.rel, kept) * v.rel.NumRows() * 4)
			if _, b := v.ds.SpecEncodingCacheStats(); b != wantBytes {
				t.Errorf("%s after %+v: the spec cache charges %d bytes, want %d", v.name, kept, b, wantBytes)
			}
			if enc, _ := v.ds.SpecEncoded(kept); enc.Equality != "" {
				merged++
			}
		}
	}
	if merged == 0 {
		t.Error("no spec merged any values, so no equality signature was checked")
	}
}
