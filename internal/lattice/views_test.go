package lattice_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/canonical"
	"repro/internal/conditional"
	"repro/internal/core"
	"repro/internal/lattice"
)

// TestConditionalOnViewEncodings runs conditional discovery over each of
// lattice.ViewEncodings at one and two workers. Every slice is a SelectRows
// view of the encoding, so its lattice derives partitions from re-ranked
// columns. Both runs must agree, and every conditional OD must hold on the
// rows its condition selects.
func TestConditionalOnViewEncodings(t *testing.T) {
	for name, enc := range lattice.ViewEncodings(t) {
		var first *conditional.Result
		for _, workers := range []int{1, 2} {
			res, err := conditional.DiscoverContext(t.Context(), enc, conditional.Options{}, core.Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s, %d workers: %v", name, workers, err)
			}
			if first == nil {
				first = res
				continue
			}
			if !reflect.DeepEqual(res.ODs, first.ODs) {
				t.Errorf("%s: %d conditional ODs at 2 workers, %d at 1, or they differ", name, len(res.ODs), len(first.ODs))
			}
		}
		if first.SlicesExamined == 0 {
			t.Errorf("%s: no slice examined", name)
		}
		for _, od := range first.ODs {
			var rows []int
			for row, v := range enc.Column(od.Condition.Attr) {
				if v == od.Condition.Value {
					rows = append(rows, row)
				}
			}
			slice, err := enc.SelectRows(rows)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s: %s %v", name, od.Condition.NamesString(enc.ColumnNames), od.OD)
			if len(rows) != od.Condition.Rows {
				t.Errorf("%s: condition selects %d rows, reported %d", label, len(rows), od.Condition.Rows)
			}
			if ok, err := canonical.Holds(slice, od.OD); err != nil || !ok {
				t.Errorf("%s does not hold on its slice (err %v)", label, err)
			}
		}
	}
}
