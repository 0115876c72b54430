package approx

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bidir"
	"repro/internal/canonical"
	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/relation"
)

// fuzzPools are the value pools of FuzzMinimalSearch's columns: an integer,
// a float, a string and a mixed column, each two-fifths NULL (the empty
// cell), so NULL runs and ties between NULLs are common.
var fuzzPools = [][]string{
	{"", "", "1", "2", "10"},
	{"", "", "-1.5", "0.25", "3"},
	{"", "", "a", "B", "b"},
	{"", "", "7", "x", "2017-01-02"},
}

// FuzzMinimalSearch holds the two clients of lattice.RunMinimal to
// independent answers. The input decodes to a relation of at most 6 columns
// × 40 rows over fuzzPools, an approximation threshold in [0, 0.5) and a node
// budget (0 for none). Approximate discovery at threshold 0 must equal
// FASTOD's ODs with zero errors, and at the fuzzed threshold the brute-force
// oracle's ODs and errors; bidir's constancy and same-direction ODs, polarity
// dropped, must equal FASTOD's ODs. Every approx and bidir result, budgeted
// or not, must be identical at 1 and 2 workers, and a budgeted run may only
// report ODs the full run reports.
func FuzzMinimalSearch(f *testing.F) {
	f.Fuzz(func(t *testing.T, cells []byte, shape, thr, nodes uint8) {
		cols := 1 + int(shape%6)
		rows := min(40, len(cells)/cols)
		if rows == 0 {
			t.Skip("no complete row")
		}
		header := make([]string, cols)
		for c := range header {
			header[c] = fmt.Sprintf("c%d", c)
		}
		data := make([][]string, rows)
		for r := range data {
			data[r] = make([]string, cols)
			for c := range cols {
				pool := fuzzPools[(c+int(shape/6))%len(fuzzPools)]
				data[r][c] = pool[int(cells[r*cols+c])%len(pool)]
			}
		}
		rel, err := relation.FromRows("fuzz", header, data)
		if err != nil {
			t.Fatal(err)
		}
		enc := encode(t, rel)
		threshold := float64(thr) / 512
		maxNodes := int(nodes % 64) // the lattice of 6 columns has 63 nodes

		exact, err := core.DiscoverContext(t.Context(), enc, core.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		approxAt := func(threshold float64, cfg lattice.Config) *Result {
			res, err := DiscoverContext(t.Context(), enc, threshold, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		bidirAt := func(cfg lattice.Config) *bidir.Result {
			res, err := bidir.DiscoverContext(t.Context(), enc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}

		var atZero []canonical.OD
		for _, d := range approxAt(0, lattice.Config{Workers: 1}).ODs {
			if d.Error.Removals != 0 {
				t.Fatalf("threshold 0 reported %v with error %+v", d.OD, d.Error)
			}
			atZero = append(atZero, d.OD)
		}
		if !reflect.DeepEqual(atZero, exact.ODs) {
			t.Fatalf("approx at threshold 0 = %v\nFASTOD = %v", atZero, exact.ODs)
		}
		full := approxAt(threshold, lattice.Config{Workers: 1})
		if want := bruteForceApprox(t, enc, threshold); !reflect.DeepEqual(full.ODs, want) {
			t.Fatalf("approx at threshold %v = %v\nbrute force = %v", threshold, full.ODs, want)
		}
		fullBi := bidirAt(lattice.Config{Workers: 1})
		var same []canonical.OD
		for _, od := range fullBi.ODs {
			if od.Kind == canonical.Constancy || od.Polarity == bidir.SameDirection {
				same = append(same, canonical.OD{Context: od.Context, Kind: od.Kind, A: od.A, B: od.B})
			}
		}
		if !reflect.DeepEqual(same, exact.ODs) {
			t.Fatalf("bidir's constancy and same-direction ODs = %v\nFASTOD = %v", same, exact.ODs)
		}

		budgets := []lattice.Budget{{}}
		if maxNodes > 0 {
			budgets = append(budgets, lattice.Budget{MaxNodes: maxNodes})
		}
		for _, b := range budgets {
			seq := approxAt(threshold, lattice.Config{Workers: 1, Budget: b})
			if par := approxAt(threshold, lattice.Config{Workers: 2, Budget: b}); !reflect.DeepEqual(par, seq) {
				t.Fatalf("approx, %+v: 2 workers = %+v\n1 worker = %+v", b, par, seq)
			}
			seqBi := bidirAt(lattice.Config{Workers: 1, Budget: b})
			if par := bidirAt(lattice.Config{Workers: 2, Budget: b}); !reflect.DeepEqual(par, seqBi) {
				t.Fatalf("bidir, %+v: 2 workers = %+v\n1 worker = %+v", b, par, seqBi)
			}
			for _, d := range seq.ODs {
				if !slices.Contains(full.ODs, d) {
					t.Fatalf("approx under %+v reported %v, which the full run does not", b, d)
				}
			}
			for _, od := range seqBi.ODs {
				if !slices.Contains(fullBi.ODs, od) {
					t.Fatalf("bidir under %+v reported %v, which the full run does not", b, od)
				}
			}
		}
	})
}
