package partition

import "sort"

// HasSwapNaive checks for swaps between colA and colB within every
// equivalence class by comparing all tuple pairs. It is quadratic per class
// and exists only as the ablation baseline for the swap check
// (BenchmarkHasSwapNaive) and as an independent oracle in tests.
func (p *Partition) HasSwapNaive(colA, colB []int32) bool {
	for ci, n := 0, p.NumClasses(); ci < n; ci++ {
		cls := p.Class(ci)
		for i := 0; i < len(cls); i++ {
			for j := 0; j < len(cls); j++ {
				s, t := cls[i], cls[j]
				if colA[s] < colA[t] && colB[t] < colB[s] {
					return true
				}
			}
		}
	}
	return false
}

// ProductNaive computes the stripped partition product by direct map-based
// grouping on (class-in-a, class-in-b) pairs, with classes ordered by their
// first row. It is an independent oracle for the flat ProductWith kernel in
// property tests; production code uses ProductWith.
func ProductNaive(a, b *Partition) *Partition {
	if a.NumRows != b.NumRows {
		panic("partition: product over different relations")
	}
	classOf := func(p *Partition) []int32 {
		out := make([]int32, p.NumRows)
		for i := range out {
			out[i] = -1
		}
		for ci, n := 0, p.NumClasses(); ci < n; ci++ {
			for _, row := range p.Class(ci) {
				out[row] = int32(ci)
			}
		}
		return out
	}
	inA, inB := classOf(a), classOf(b)
	groups := make(map[[2]int32][]int32)
	for row := 0; row < a.NumRows; row++ {
		ca, cb := inA[row], inB[row]
		if ca < 0 || cb < 0 {
			continue
		}
		k := [2]int32{ca, cb}
		groups[k] = append(groups[k], int32(row))
	}
	classes := make([][]int32, 0, len(groups))
	for _, g := range groups {
		if len(g) >= 2 {
			classes = append(classes, g)
		}
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i][0] < classes[j][0] })
	return fromClasses(a.NumRows, classes)
}
