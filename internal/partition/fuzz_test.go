package partition

import (
	"fmt"
	"testing"
)

// FuzzSwapKernels checks the swap kernels on small relations against the
// naive oracles, with checkSwapKernels: HasSwapWith must equal HasSwapNaive,
// every FindSwapWith witness must be a real swap within one class, and both
// removal counters must keep the limit contract against swapRemovalsNaive
// and constancyRemovalsNaive, at limit and at math.MaxInt.
//
// shape's low two bits give the number of context columns (0–3; none means
// the constant context), the next three the A/B rank range (2–9) and the
// next two the context rank range (1–4). cells holds the relation row by
// row, A then B then the context columns, one byte per cell reduced modulo
// its range; it is cut to at most 64 whole rows. The small ranges make ties
// and co-moving neighbours common, so the sorted path behind the neighbour
// scan is reached as well.
func FuzzSwapKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape uint8, limit int8, cells []byte) {
		ctxCols := int(shape & 3)
		abRange := 2 + int(shape>>2&7)
		ctxRange := 1 + int(shape>>5&3)
		width := 2 + ctxCols
		rows := min(len(cells)/width, 64)

		cols := make([][]int32, width)
		for c := range cols {
			cols[c] = make([]int32, rows)
			span := abRange
			if c >= 2 {
				span = ctxRange
			}
			for r := range rows {
				cols[c][r] = int32(int(cells[r*width+c]) % span)
			}
		}
		s := NewScratch()
		ctx := FromConstant(rows)
		for _, col := range cols[2:] {
			ctx = ctx.ProductWith(FromColumn(col, ctxRange), s)
		}
		label := fmt.Sprintf("%d rows, %d context columns", rows, ctxCols)
		checkSwapKernels(t, label, ctx, cols[0], cols[1], int(limit), s)
	})
}
