package fastod_test

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"slices"
	"testing"

	fastod "repro"
	"repro/internal/approx"
	"repro/internal/bidir"
	"repro/internal/canonical"
	"repro/internal/conditional"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/tane"
)

// --- Differential: a row view must discover what a fresh load of the same ---
// --- rows discovers.                                                       ---
//
// Encoded.HeadRows and Encoded.SelectRows (behind Dataset.HeadRows and the
// conditional algorithm's slices) re-rank every column densely in the same
// order, so a view holds the ranks a fresh encoding of its rows gets. This
// suite holds every algorithm to that promise, conditional included: it
// reports condition values as ranks, and those must match too.

// viewAlgorithms runs each algorithm sequentially and renders its output as
// sorted lines.
var viewAlgorithms = map[string]func(context.Context, *relation.Encoded) ([]string, error){
	"fastod": func(ctx context.Context, enc *relation.Encoded) ([]string, error) {
		res, err := core.DiscoverContext(ctx, enc, core.Options{Workers: 1})
		if err != nil {
			return nil, err
		}
		return renderLines(res.ODs, canonical.OD.String), nil
	},
	"tane": func(ctx context.Context, enc *relation.Encoded) ([]string, error) {
		res, err := tane.DiscoverContext(ctx, enc, lattice.Config{Workers: 1})
		if err != nil {
			return nil, err
		}
		return renderLines(res.FDs, tane.FD.String), nil
	},
	"approx": func(ctx context.Context, enc *relation.Encoded) ([]string, error) {
		res, err := approx.DiscoverContext(ctx, enc, 0.1, lattice.Config{Workers: 1})
		if err != nil {
			return nil, err
		}
		return renderLines(res.ODs, func(d approx.Discovered) string {
			return fmt.Sprintf("%v removals=%d", d.OD, d.Error.Removals)
		}), nil
	},
	"bidir": func(ctx context.Context, enc *relation.Encoded) ([]string, error) {
		res, err := bidir.DiscoverContext(ctx, enc, lattice.Config{Workers: 1})
		if err != nil {
			return nil, err
		}
		return renderLines(res.ODs, bidir.OD.String), nil
	},
	"conditional": func(ctx context.Context, enc *relation.Encoded) ([]string, error) {
		res, err := conditional.DiscoverContext(ctx, enc, conditional.Options{}, core.Options{Workers: 1})
		if err != nil {
			return nil, err
		}
		return renderLines(res.ODs, func(od conditional.OD) string {
			return fmt.Sprintf("%s (%d rows): %v", od.Condition.NamesString(enc.ColumnNames), od.Condition.Rows, od.OD)
		}), nil
	},
}

func renderLines[T any](items []T, render func(T) string) []string {
	lines := make([]string, len(items))
	for i, it := range items {
		lines[i] = render(it)
	}
	slices.Sort(lines)
	return lines
}

// rowsOf returns the relation restricted to the given rows, in order, with
// every column keeping its type — the raw counterpart of SelectRows.
func rowsOf(rel *relation.Relation, rows []int) *relation.Relation {
	cols := make([]relation.Column, len(rel.Columns))
	for ci, c := range rel.Columns {
		raw := make([]string, len(rows))
		for i, r := range rows {
			raw[i] = c.Value(r)
		}
		cols[ci] = relation.NewColumn(c.Name, c.Type, raw)
	}
	return relation.New(rel.Name, cols...)
}

func TestRowViewsMatchFreshLoad(t *testing.T) {
	shapes := []struct {
		name string
		rel  *relation.Relation
	}{
		{"flight", datagen.FlightLike(2000, 6, 1)},
		{"ncvoter", datagen.NCVoterLike(2000, 6, 7)},
		{"messy", datagen.MessyRelation(600, 7, 0.2, 5)},
	}
	for _, sh := range shapes {
		full, err := relation.Encode(sh.rel)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		for _, n := range []int{7, 30, 200} {
			head := make([]int, n)
			for i := range head {
				head[i] = i
			}
			// Every third row from the back: a reordered, sparse selection.
			var strided []int
			for r := sh.rel.NumRows() - 1; r >= 0 && len(strided) < n; r -= 3 {
				strided = append(strided, r)
			}
			selected, err := full.SelectRows(strided)
			if err != nil {
				t.Fatal(err)
			}
			views := []struct {
				kind string
				view *relation.Encoded
				rows []int
			}{
				{"HeadRows", full.HeadRows(n), head},
				{"SelectRows", selected, strided},
			}
			for _, v := range views {
				fresh, err := relation.Encode(rowsOf(sh.rel, v.rows))
				if err != nil {
					t.Fatalf("%s: %v", sh.name, err)
				}
				for alg, run := range viewAlgorithms {
					got, err := run(t.Context(), v.view)
					if err != nil {
						t.Fatalf("%s %s(%d) %s on view: %v", sh.name, v.kind, n, alg, err)
					}
					want, err := run(t.Context(), fresh)
					if err != nil {
						t.Fatalf("%s %s(%d) %s on fresh load: %v", sh.name, v.kind, n, alg, err)
					}
					if !slices.Equal(got, want) {
						t.Errorf("%s %s(%d) %s: view and fresh load differ\n view only: %v\nfresh only: %v",
							sh.name, v.kind, n, alg, minus(got, want), minus(want, got))
					}
				}
			}
		}
	}
}

// minus returns the lines of a absent from b (both sorted).
func minus(a, b []string) []string {
	var out []string
	for _, s := range a {
		if _, found := slices.BinarySearch(b, s); !found {
			out = append(out, s)
		}
	}
	return out
}

// --- Differential: a spec run on a view must equal the same spec run on a ---
// --- fresh load of the view's rows and columns.                           ---
//
// A view under OrderSpecs is re-encoded from the raw relation it shares with
// its parent: HeadRows takes a prefix of every column's row ids and Project
// the first columns, while the dictionaries stay whole. The re-encoding must
// rank only the values the view's rows use, or its ranks stop being dense
// and its Cardinality over-counts — which FromColumn's bucket count and the
// conditional algorithm's cardinality bound both read. Specs flip a
// direction with NULLS LAST and use the merging collations (numeric and
// case-insensitive), so collation classes span several dictionary entries.
// Each view caches partitions and runs the default request first, so its
// spec runs read and fill a warm store. That store is the view's own, and
// the equality signatures are taken against the view's own cardinalities,
// since a row prefix can keep apart values the full relation merges.
func TestSpecRunsOnViewsMatchFreshLoad(t *testing.T) {
	shapes := []struct {
		name   string
		rel    *relation.Relation
		orders []fastod.AttrOrder
	}{
		{"flight", datagen.FlightLike(1200, 6, 3), []fastod.AttrOrder{
			{Column: "flight_sk", Direction: fastod.OrderDesc, Nulls: fastod.NullsLast},
			{Column: "carrier_2", Collation: fastod.CollateNumeric},
			{Column: "arr_time_5", Direction: fastod.OrderDesc},
		}},
		{"messy", datagen.MessyRelation(900, 7, 0.2, 5), []fastod.AttrOrder{
			{Column: "m0_int", Collation: fastod.CollateNumeric, Direction: fastod.OrderDesc},
			{Column: "m1_float", Direction: fastod.OrderDesc, Nulls: fastod.NullsLast, Collation: fastod.CollateNumeric},
			{Column: "m2_str", Collation: fastod.CollateCaseInsen, Nulls: fastod.NullsLast},
			{Column: "m6_int", Direction: fastod.OrderDesc, Nulls: fastod.NullsLast},
		}},
	}
	requests := map[string]fastod.Request{
		"fastod":      {},
		"tane":        {Algorithm: fastod.AlgorithmTANE},
		"bidir":       {Algorithm: fastod.AlgorithmBidirectional},
		"approx":      {Algorithm: fastod.AlgorithmApprox, Approx: fastod.ApproxRunOptions{Threshold: 0.1}},
		"conditional": {Algorithm: fastod.AlgorithmConditional},
	}
	for _, sh := range shapes {
		header, rows := sh.rel.ColumnNames(), sh.rel.Rows()
		ds := loadRows(t, sh.name, header, rows)
		type view struct {
			kind       string
			ds, fresh  *fastod.Dataset
			cols, nrow int
		}
		var views []view
		for _, n := range []int{40, 300} {
			views = append(views, view{fmt.Sprintf("HeadRows(%d)", n), ds.HeadRows(n), loadRows(t, sh.name, header, rows[:n]), len(header), n})
		}
		for _, k := range []int{3, 5} {
			cut := make([][]string, len(rows))
			for i, row := range rows {
				cut[i] = row[:k]
			}
			views = append(views, view{fmt.Sprintf("Project(%d)", k), ds.Project(k), loadRows(t, sh.name, header[:k], cut), k, len(rows)})
		}
		for _, v := range views {
			if got, want := v.ds.ColumnTypes(), v.fresh.ColumnTypes(); !slices.Equal(got, want) {
				t.Fatalf("%s %s: the fresh load sniffs %v, the view keeps %v; pick a prefix whose types agree", sh.name, v.kind, want, got)
			}
			var orders []fastod.AttrOrder
			for _, o := range sh.orders {
				if v.ds.ColumnIndex(o.Column) >= 0 {
					orders = append(orders, o)
				}
			}
			if len(orders) < 2 {
				t.Fatalf("%s %s keeps %d overridden columns; the test needs two", sh.name, v.kind, len(orders))
			}
			got, err := v.ds.SpecEncoded(orders)
			if err != nil {
				t.Fatal(err)
			}
			want, err := v.fresh.SpecEncoded(orders)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Cardinality, want.Cardinality) {
				t.Errorf("%s %s: cardinalities %v, fresh load %v", sh.name, v.kind, got.Cardinality, want.Cardinality)
			}
			for c := range want.Values {
				if !slices.Equal(got.Values[c], want.Values[c]) {
					t.Errorf("%s %s: column %d ranks differ from the fresh load's", sh.name, v.kind, c)
				}
			}
			v.ds.EnablePartitionCache(0)
			if _, err := v.ds.Run(t.Context(), fastod.Request{RunOptions: fastod.RunOptions{Workers: 1}}); err != nil {
				t.Fatalf("%s %s default run on view: %v", sh.name, v.kind, err)
			}
			for alg, req := range requests {
				req.Workers = 1
				req.OrderSpecs = orders
				gotRep, err := v.ds.Run(t.Context(), req)
				if err != nil {
					t.Fatalf("%s %s %s on view: %v", sh.name, v.kind, alg, err)
				}
				wantRep, err := v.fresh.Run(t.Context(), req)
				if err != nil {
					t.Fatalf("%s %s %s on fresh load: %v", sh.name, v.kind, alg, err)
				}
				zeroStoreCounters(gotRep)
				if g, w := renderReport(gotRep), renderReport(wantRep); g != w {
					t.Errorf("%s %s %s: view and fresh load differ\n view: %s\nfresh: %s", sh.name, v.kind, alg, g, w)
				}
			}
		}
	}
}

// loadRows loads header and rows through LoadCSV, as a CSV upload would.
func loadRows(t *testing.T, name string, header []string, rows [][]string) *fastod.Dataset {
	t.Helper()
	var b bytes.Buffer
	w := csv.NewWriter(&b)
	w.Write(header)
	w.WriteAll(rows)
	ds, err := fastod.LoadCSV(name, &b)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}
