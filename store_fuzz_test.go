package fastod_test

import (
	"fmt"
	"reflect"
	"testing"

	fastod "repro"
	"repro/internal/relation"
)

// fuzzPools are the value pools of FuzzSharedStoreSpecs' columns. Each holds
// values that a merging collation folds together ("1"/"1.0"/"01" under
// numeric, "ab"/"AB" under case-insensitive, "2017-01-02"/"2017/01/02"
// under date) and a NULL, and they sniff as different types: an integer, a
// float, a string and a mixed column.
var fuzzPools = [][]string{
	{"", "1", "01", "2", "-3", "10"},
	{"", "1", "1.0", "2.5", "2.50", "-3"},
	{"", "ab", "AB", "Ab", "cd", "CD"},
	{"", "1", "1.0", "ab", "AB", "2017-01-02", "2017/01/02", "2017-01-03"},
}

// fuzzCollations are the collations a fuzzed spec draws from: the default,
// one that never merges and the three that can.
var fuzzCollations = []fastod.Collation{
	fastod.CollateDefault, fastod.CollateLex, fastod.CollateNumeric, fastod.CollateDate, fastod.CollateCaseInsen,
}

// fuzzSpec decodes one order spec over cols columns, five bits per column:
// direction, NULL placement and a collation index.
func fuzzSpec(bits uint32, cols int) []fastod.AttrOrder {
	var out []fastod.AttrOrder
	for c := range cols {
		b := bits >> (5 * c)
		out = append(out, fastod.AttrOrder{
			Column:    fmt.Sprintf("c%d", c),
			Direction: fastod.OrderDirection(b & 1),
			Nulls:     fastod.NullOrder(b >> 1 & 1),
			Collation: fuzzCollations[int(b>>2&7)%len(fuzzCollations)],
		})
	}
	return out
}

// FuzzSharedStoreSpecs checks the shared partition store's invariant: runs
// under any order specs, in any order, on one store-enabled dataset report
// exactly what the same requests report on a dataset without a store. Each
// spec's re-encoding must also be relation.EncodeSpec's (checkSpecEncoded). The
// input decodes to a relation of at most 6 columns × 40 rows over
// fuzzPools, two specs, one of the five lattice algorithms, a worker count
// of 1 or 2 and a store bound of the default or 1 KiB. Spec A, the default
// spec and spec B run in that order.
func FuzzSharedStoreSpecs(f *testing.F) {
	f.Fuzz(func(t *testing.T, cells []byte, shape uint8, specA, specB uint32, alg, flags uint8) {
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
		load := func() *fastod.Dataset {
			ds, err := fastod.FromRows("fuzz", header, data)
			if err != nil {
				t.Fatal(err)
			}
			return ds
		}
		bound := 0
		if flags&2 != 0 {
			bound = 1 << 10
		}
		rel, err := relation.FromRows("fuzz", header, data)
		if err != nil {
			t.Fatal(err)
		}
		shared, fresh := load(), load()
		shared.EnablePartitionCache(bound)
		req := []fastod.Request{
			{Algorithm: fastod.AlgorithmFASTOD},
			{Algorithm: fastod.AlgorithmTANE},
			{Algorithm: fastod.AlgorithmApprox, Approx: fastod.ApproxRunOptions{Threshold: 0.1}},
			{Algorithm: fastod.AlgorithmBidirectional},
			{Algorithm: fastod.AlgorithmConditional},
		}[int(alg)%5]
		req.Workers = 1 + int(flags&1)
		for _, orders := range [][]fastod.AttrOrder{fuzzSpec(specA, cols), nil, fuzzSpec(specB, cols)} {
			req.OrderSpecs = orders
			got, err := shared.Run(t.Context(), req)
			if err != nil {
				t.Fatalf("shared store, %+v: %v", orders, err)
			}
			want, err := fresh.Run(t.Context(), req)
			if err != nil {
				t.Fatalf("no store, %+v: %v", orders, err)
			}
			zeroReportTimings(got)
			zeroStoreCounters(got)
			zeroReportTimings(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s under %+v, bound %d: the shared store's report differs from a run without one\n got: %s\nwant: %s",
					req.Algorithm, orders, bound, renderReport(got), renderReport(want))
			}
			checkSpecEncoded(t, shared, rel, orders)
		}
	})
}
