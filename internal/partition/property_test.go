package partition

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// This file property-tests the flat kernels — ProductWith, the swap checks
// and the removal counters — against the independent naive oracles in
// naive.go, on randomized relations of varying size, cardinality and class
// skew, while reusing one Scratch across every trial (including relations of
// different sizes, which forces every scratch buffer to grow mid-run).
//
// On random columns the neighbour scan in front of the swap kernels settles
// nearly every check, so the tests also draw co-moving columns (see
// coMovingColumns), on which it settles none and every check reaches the
// sorted path.

// skewedColumn draws a rank-encoded column whose value distribution ranges
// from uniform to heavily skewed (a few huge classes plus a singleton tail),
// re-densifying ranks afterwards.
func skewedColumn(rng *rand.Rand, rows, card int, skew float64) ([]int32, int) {
	raw := make([]int, rows)
	for i := range raw {
		if rng.Float64() < skew {
			raw[i] = 0 // pile onto one heavy value
		} else {
			raw[i] = rng.Intn(card)
		}
	}
	dense := map[int]int32{}
	vals := append([]int(nil), raw...)
	sort.Ints(vals)
	for _, v := range vals {
		if _, ok := dense[v]; !ok {
			dense[v] = int32(len(dense))
		}
	}
	col := make([]int32, rows)
	for i, v := range raw {
		col[i] = dense[v]
	}
	return col, len(dense)
}

// canonClasses returns the classes sorted by first row, the order the naive
// product oracle uses; the flat product's right-operand-major order is
// deterministic but different, so comparisons go through this normal form.
func canonClasses(p *Partition) [][]int32 {
	out := classesOf(p)
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

func TestFlatKernelsMatchNaiveOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(1789))
	s := NewScratch() // one scratch across all trials and relation sizes
	sortedSwaps, sortedSwapFree := 0, 0
	for trial := 0; trial < 300; trial++ {
		rows := 2 + rng.Intn(250)
		cardA := 1 + rng.Intn(rows)
		cardB := 1 + rng.Intn(rows)
		skewA := rng.Float64() * rng.Float64() // bias toward mild skew
		skewB := rng.Float64()
		colA, ca := skewedColumn(rng, rows, cardA, skewA)
		colB, cb := skewedColumn(rng, rows, cardB, skewB)
		pa := FromColumn(colA, ca)
		pb := FromColumn(colB, cb)

		// Product: flat scratch-backed kernel vs map-grouping oracle.
		got := pa.ProductWith(pb, s)
		want := ProductNaive(pa, pb)
		if got.NumRows != want.NumRows || got.Size() != want.Size() || got.NumClasses() != want.NumClasses() {
			t.Fatalf("trial %d (%d rows): product shape = %v, want %v", trial, rows, got, want)
		}
		if !reflect.DeepEqual(canonClasses(got), canonClasses(want)) {
			t.Fatalf("trial %d (%d rows): product classes = %v, want %v",
				trial, rows, canonClasses(got), canonClasses(want))
		}
		// The probe invariant must be restored for the next trial.
		for i, v := range s.probe {
			if v != -1 {
				t.Fatalf("trial %d: probe[%d] = %d after ProductWith, want -1", trial, i, v)
			}
		}

		// Swap checks on a third column pair within the product context, on
		// random columns and on co-moving ones.
		colX, _ := skewedColumn(rng, rows, 1+rng.Intn(rows), rng.Float64())
		colY, _ := skewedColumn(rng, rows, 1+rng.Intn(rows), rng.Float64())
		label := fmt.Sprintf("trial %d (%d rows)", trial, rows)
		for _, ctx := range []*Partition{pa, got, FromConstant(rows)} {
			limit := rng.Intn(rows)
			checkSwapKernels(t, label, ctx, colX, colY, limit, s)
			comA, comB := coMovingColumns(rng, ctx, 2*rows, trial%2 == 0)
			if ctx.neighbourInversions(comA, comB, 0) != 0 {
				t.Fatalf("%s: co-moving columns have an inverted neighbour pair", label)
			}
			if checkSwapKernels(t, label+", co-moving", ctx, comA, comB, limit, s) {
				sortedSwaps++
			} else {
				sortedSwapFree++
			}
		}
	}
	// Both outcomes of the sorted path must have been exercised.
	if sortedSwaps == 0 || sortedSwapFree == 0 {
		t.Fatalf("co-moving checks: %d found a swap, %d found none; want both", sortedSwaps, sortedSwapFree)
	}
}

// checkSwapKernels checks every swap kernel on one context and column pair
// against the naive oracles and returns whether a swap exists: HasSwapWith
// and FindSwapWith against HasSwapNaive (a witness must be a genuine swap
// within one class), and both removal counters against swapRemovalsNaive
// and constancyRemovalsNaive, exactly (limit math.MaxInt) and bounded by
// limit (see checkBounded).
func checkSwapKernels(t testing.TB, label string, ctx *Partition, colX, colY []int32, limit int, s *Scratch) bool {
	t.Helper()
	naive := ctx.HasSwapNaive(colX, colY)
	if fast := ctx.HasSwapWith(colX, colY, s); fast != naive {
		t.Fatalf("%s: HasSwapWith = %v, naive oracle = %v (ctx %v)", label, fast, naive, ctx)
	}
	w, found := ctx.FindSwapWith(colX, colY, s)
	if found != naive {
		t.Fatalf("%s: FindSwapWith found = %v, naive oracle = %v (ctx %v)", label, found, naive, ctx)
	}
	if found {
		// The witness must be a genuine swap within one context class.
		okDir := (colX[w.RowS] < colX[w.RowT] && colY[w.RowT] < colY[w.RowS]) ||
			(colX[w.RowT] < colX[w.RowS] && colY[w.RowS] < colY[w.RowT])
		if !okDir {
			t.Fatalf("%s: witness (%d,%d) is not a swap", label, w.RowS, w.RowT)
		}
		sameClass := false
		ctx.ForEachClass(func(cls []int32) {
			in := 0
			for _, row := range cls {
				if int(row) == w.RowS || int(row) == w.RowT {
					in++
				}
			}
			if in == 2 {
				sameClass = true
			}
		})
		if !sameClass {
			t.Fatalf("%s: witness rows (%d,%d) not in one context class", label, w.RowS, w.RowT)
		}
	}

	// Removal counters vs direct per-class recomputation.
	swapExact, constExact := swapRemovalsNaive(ctx, colX, colY), constancyRemovalsNaive(ctx, colX)
	if naive != (swapExact > 0) {
		t.Fatalf("%s: naive oracles disagree: swap %v, %d swap removals", label, naive, swapExact)
	}
	for _, l := range []int{math.MaxInt, limit} {
		checkBounded(t, label+": SwapRemovals", ctx.SwapRemovals(colX, colY, l, s), swapExact, l)
		checkBounded(t, label+": ConstancyRemovals", ctx.ConstancyRemovals(colX, l, s), constExact, l)
	}
	return naive
}

// checkBounded checks the limit contract of the removal counters: the exact
// count when it is at most limit, and otherwise a count above limit that is
// still a lower bound on the exact one.
func checkBounded(t testing.TB, what string, got, exact, limit int) {
	t.Helper()
	if exact <= limit && got != exact || exact > limit && (got <= limit || got > exact) {
		t.Fatalf("%s with limit %d = %d, exact count %d", what, limit, got, exact)
	}
}

// coMovingColumns draws an (A, B) column pair on which consecutive rows of
// every class of ctx, in stored order, move A and B in the same direction
// (ties allowed), so the neighbour scan finds nothing and every swap check
// reaches the sorted path. With chain set, every row lies on one monotone
// chain: no two rows are inverted, whatever their order, so the columns are
// swap-free. Otherwise each class is a random walk whose turns leave swaps
// only between non-neighbours, as the rows (1,5), (3,7), (2,4) do. Values
// are non-negative and stay below about spread.
func coMovingColumns(rng *rand.Rand, ctx *Partition, spread int, chain bool) (colA, colB []int32) {
	colA = make([]int32, ctx.NumRows)
	colB = make([]int32, ctx.NumRows)
	if chain {
		qa, qb := 1+rng.Intn(3), 1+rng.Intn(3)
		for row := range colA {
			t := rng.Intn(spread)
			colA[row], colB[row] = int32(t/qa), int32(t/qb)
		}
		return colA, colB
	}
	step := 1 + spread/8
	ctx.ForEachClass(func(cls []int32) {
		a, b := int32(spread/2), int32(spread/2)
		for _, row := range cls {
			dir := int32(1 - 2*rng.Intn(2))
			a += dir * int32(rng.Intn(step))
			b += dir * int32(rng.Intn(step))
			colA[row], colB[row] = a, b
		}
	})
	// Shift both columns to non-negative values; a shift moves no pair.
	minA, minB := slices.Min(colA), slices.Min(colB)
	for row := range colA {
		colA[row] -= minA
		colB[row] -= minB
	}
	return colA, colB
}

// swapRemovalsNaive recomputes the per-class longest non-decreasing
// subsequence with a comparison sort and quadratic DP — an implementation
// independent of the radix sort and patience-sorting used by SwapRemovals.
func swapRemovalsNaive(p *Partition, colA, colB []int32) int {
	removals := 0
	p.ForEachClass(func(cls []int32) {
		rows := append([]int32(nil), cls...)
		sort.SliceStable(rows, func(i, j int) bool {
			if colA[rows[i]] != colA[rows[j]] {
				return colA[rows[i]] < colA[rows[j]]
			}
			return colB[rows[i]] < colB[rows[j]]
		})
		best := 0
		lnds := make([]int, len(rows))
		for i := range rows {
			lnds[i] = 1
			for j := 0; j < i; j++ {
				if colB[rows[j]] <= colB[rows[i]] && lnds[j]+1 > lnds[i] {
					lnds[i] = lnds[j] + 1
				}
			}
			if lnds[i] > best {
				best = lnds[i]
			}
		}
		removals += len(cls) - best
	})
	return removals
}

// constancyRemovalsNaive recomputes per-class removals with a plain map.
func constancyRemovalsNaive(p *Partition, col []int32) int {
	removals := 0
	p.ForEachClass(func(cls []int32) {
		freq := map[int32]int{}
		best := 0
		for _, row := range cls {
			freq[col[row]]++
			if freq[col[row]] > best {
				best = freq[col[row]]
			}
		}
		removals += len(cls) - best
	})
	return removals
}

// TestRadixSortCrossesCutoff forces classes on both sides of the insertion
// cutoff — including far beyond it, exercising multi-digit radix passes with
// large dense ranks — and checks the swap kernels against the oracles. The
// random columns reach the sort only through exact SwapRemovals counts; the
// co-moving ones take every kernel through it, since the neighbour scan
// settles nothing on them.
func TestRadixSortCrossesCutoff(t *testing.T) {
	rng := rand.New(rand.NewSource(977))
	s := NewScratch()
	swaps, swapFree := 0, 0
	for _, rows := range []int{insertionCutoff - 1, insertionCutoff, insertionCutoff + 1, 4 * insertionCutoff, 1024} {
		// One giant class (constant context) with ranks spanning the full
		// row range so the radix sort needs multiple 8-bit digits.
		ctx := FromConstant(rows)
		for trial := 0; trial < 20; trial++ {
			colA := make([]int32, rows)
			colB := make([]int32, rows)
			for i := range colA {
				colA[i] = int32(rng.Intn(rows))
				colB[i] = int32(rng.Intn(rows))
			}
			if got, want := ctx.HasSwapWith(colA, colB, s), ctx.HasSwapNaive(colA, colB); got != want {
				t.Fatalf("rows=%d trial %d: HasSwapWith = %v, naive = %v", rows, trial, got, want)
			}
			if got, want := ctx.SwapRemovals(colA, colB, math.MaxInt, s), swapRemovalsNaive(ctx, colA, colB); got != want {
				t.Fatalf("rows=%d trial %d: SwapRemovals = %d, naive = %d", rows, trial, got, want)
			}

			label := fmt.Sprintf("rows=%d trial %d, co-moving", rows, trial)
			comA, comB := coMovingColumns(rng, ctx, 4*rows, trial%2 == 0)
			if ctx.neighbourInversions(comA, comB, 0) != 0 {
				t.Fatalf("%s: inverted neighbour pair", label)
			}
			if checkSwapKernels(t, label, ctx, comA, comB, rng.Intn(rows), s) {
				swaps++
			} else {
				swapFree++
			}
		}
	}
	if swaps == 0 || swapFree == 0 {
		t.Fatalf("co-moving checks: %d found a swap, %d found none; want both", swaps, swapFree)
	}
}

// TestBoundedRemovalsMatchExact checks the limit contract of both removal
// counters (see checkBounded) at the limits around the exact count, where an
// off-by-one in an early return shows, on random and co-moving columns. The
// neighbour-pair count behind SwapRemovals' early return keeps the same
// contract and must be a lower bound on the exact removals.
func TestBoundedRemovalsMatchExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	s := NewScratch()
	for trial := 0; trial < 200; trial++ {
		rows := 2 + rng.Intn(200)
		ctxCol, card := skewedColumn(rng, rows, 1+rng.Intn(rows/2+1), rng.Float64())
		ctx := FromColumn(ctxCol, card)
		colA, _ := skewedColumn(rng, rows, 1+rng.Intn(rows), rng.Float64())
		colB, _ := skewedColumn(rng, rows, 1+rng.Intn(rows), rng.Float64())
		if trial%2 == 1 {
			colA, colB = coMovingColumns(rng, ctx, 2*rows, trial%4 == 1)
		}
		swapExact, constExact := swapRemovalsNaive(ctx, colA, colB), constancyRemovalsNaive(ctx, colA)
		lower := ctx.neighbourInversions(colA, colB, math.MaxInt)
		label := fmt.Sprintf("trial %d (%d rows)", trial, rows)
		if lower > swapExact {
			t.Fatalf("%s: %d disjoint inverted neighbour pairs, but %d swap removals", label, lower, swapExact)
		}
		for _, exact := range []int{swapExact, constExact, lower} {
			for _, limit := range []int{0, exact - 1, exact, exact + 1, math.MaxInt} {
				checkBounded(t, label+": SwapRemovals", ctx.SwapRemovals(colA, colB, limit, s), swapExact, limit)
				checkBounded(t, label+": ConstancyRemovals", ctx.ConstancyRemovals(colA, limit, s), constExact, limit)
				checkBounded(t, label+": neighbourInversions", ctx.neighbourInversions(colA, colB, limit), lower, limit)
			}
		}
	}
}
