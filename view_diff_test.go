package fastod_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/approx"
	"repro/internal/bidir"
	"repro/internal/canonical"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/tane"
)

// --- Differential: a row view must discover what a fresh load of the same ---
// --- rows discovers.                                                       ---
//
// Encoded.HeadRows and Encoded.SelectRows (behind Dataset.HeadRows and the
// conditional algorithm's slices) keep the parent's ranks without
// re-densifying them, so a view's ranks are sparse and its Cardinality is a
// distinct count, not a rank bound. The views promise that equality and
// relative order are all the algorithms need; this suite holds every
// algorithm whose output is rank-free to that promise. Conditional is left
// out: it reports condition values as ranks, which legitimately differ
// between a view and a fresh encoding.

// viewAlgorithms runs each rank-free algorithm sequentially and renders its
// output as sorted lines.
var viewAlgorithms = map[string]func(context.Context, *relation.Encoded) ([]string, error){
	"fastod": func(ctx context.Context, enc *relation.Encoded) ([]string, error) {
		res, err := core.DiscoverContext(ctx, enc, core.Options{Workers: 1})
		if err != nil {
			return nil, err
		}
		return renderLines(res.ODs, canonical.OD.String), nil
	},
	"tane": func(ctx context.Context, enc *relation.Encoded) ([]string, error) {
		res, err := tane.DiscoverContext(ctx, enc, tane.Options{Workers: 1})
		if err != nil {
			return nil, err
		}
		return renderLines(res.FDs, tane.FD.String), nil
	},
	"approx": func(ctx context.Context, enc *relation.Encoded) ([]string, error) {
		res, err := approx.DiscoverContext(ctx, enc, approx.Options{Threshold: 0.1, Workers: 1})
		if err != nil {
			return nil, err
		}
		return renderLines(res.ODs, func(d approx.Discovered) string {
			return fmt.Sprintf("%v removals=%d", d.OD, d.Error.Removals)
		}), nil
	},
	"bidir": func(ctx context.Context, enc *relation.Encoded) ([]string, error) {
		res, err := bidir.DiscoverContext(ctx, enc, bidir.Options{Workers: 1})
		if err != nil {
			return nil, err
		}
		return renderLines(res.ODs, bidir.OD.String), nil
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
			raw[i] = c.Raw[r]
		}
		cols[ci] = relation.Column{Name: c.Name, Type: c.Type, Raw: raw}
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
