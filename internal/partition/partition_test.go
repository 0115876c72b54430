package partition

import (
	"math/rand"
	"reflect"
	"testing"
)

// classesOf materializes the stripped classes of a partition for test
// comparisons; production code iterates the flat arena via Class/ForEachClass.
func classesOf(p *Partition) [][]int32 {
	out := make([][]int32, 0, p.NumClasses())
	p.ForEachClass(func(cls []int32) {
		out = append(out, append([]int32(nil), cls...))
	})
	return out
}

// buildColumn turns raw int values into a dense rank-encoded column, the form
// the partition code expects (equal values share a rank, order preserved).
func buildColumn(vals []int) ([]int32, int) {
	distinct := map[int]int32{}
	sorted := append([]int(nil), vals...)
	// simple insertion sort for clarity in tests
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	for _, v := range sorted {
		if _, ok := distinct[v]; !ok {
			distinct[v] = int32(len(distinct))
		}
	}
	out := make([]int32, len(vals))
	for i, v := range vals {
		out[i] = distinct[v]
	}
	return out, len(distinct)
}

func TestFromColumn(t *testing.T) {
	col, card := buildColumn([]int{5, 3, 5, 7, 3, 5})
	p := FromColumn(col, card)
	if p.NumRows != 6 {
		t.Fatalf("NumRows = %d", p.NumRows)
	}
	// value 3 -> rows {1,4}, value 5 -> rows {0,2,5}, value 7 singleton dropped.
	want := [][]int32{{1, 4}, {0, 2, 5}}
	if got := classesOf(p); !reflect.DeepEqual(got, want) {
		t.Errorf("classes = %v, want %v", got, want)
	}
	if p.Size() != 5 || p.NumClasses() != 2 || p.Error() != 3 {
		t.Errorf("Size=%d NumClasses=%d Error=%d", p.Size(), p.NumClasses(), p.Error())
	}
	if p.IsSuperkey() {
		t.Error("IsSuperkey = true, want false")
	}
}

func TestFromColumnKey(t *testing.T) {
	col, card := buildColumn([]int{4, 1, 3, 2})
	p := FromColumn(col, card)
	if !p.IsSuperkey() || p.NumClasses() != 0 {
		t.Error("all-distinct column should produce an empty stripped partition")
	}
}

func TestFromColumnDefensiveCardinality(t *testing.T) {
	// Passing a too-small cardinality must still work.
	p := FromColumn([]int32{0, 2, 2}, 1)
	if p.NumClasses() != 1 || p.Class(0)[0] != 1 {
		t.Errorf("classes = %v", classesOf(p))
	}
}

func TestFromColumnGrowthIsGeometric(t *testing.T) {
	// Regression for the defensive bucket growth: a caller passing cardinality
	// 0 for a column of n distinct ranks must trigger O(log n) regrows, not
	// one per rank. With geometric growth the whole construction stays within
	// a few dozen allocations; the old grow-to-exactly-v+1 behavior performed
	// n reallocations (quadratic copied bytes).
	const n = 10_000
	col := make([]int32, n)
	for i := range col {
		col[i] = int32(i)
	}
	var p *Partition
	allocs := testing.AllocsPerRun(5, func() {
		p = FromColumn(col, 0)
	})
	if p.NumRows != n || p.NumClasses() != 0 || !p.IsSuperkey() {
		t.Fatalf("partition = %v, want empty stripped partition over %d rows", p, n)
	}
	if allocs > 50 {
		t.Errorf("FromColumn with cardinality 0 over %d distinct ranks did %.0f allocations, want O(log n)", n, allocs)
	}
	// The result must agree with the correctly-sized construction.
	dup := make([]int32, n)
	for i := range dup {
		dup[i] = int32(i / 2)
	}
	if got, want := classesOf(FromColumn(dup, 0)), classesOf(FromColumn(dup, n/2)); !reflect.DeepEqual(got, want) {
		t.Errorf("undersized cardinality changed the result: %v vs %v", got, want)
	}
}

func TestFromConstant(t *testing.T) {
	p := FromConstant(4)
	if p.NumClasses() != 1 || p.Size() != 4 {
		t.Errorf("FromConstant(4) = %v", p)
	}
	if !reflect.DeepEqual(p.Class(0), []int32{0, 1, 2, 3}) {
		t.Errorf("class = %v", p.Class(0))
	}
	if got := FromConstant(1); got.NumClasses() != 0 {
		t.Error("single-row constant partition should be stripped empty")
	}
	if got := FromConstant(0); got.NumClasses() != 0 || got.NumRows != 0 {
		t.Error("empty relation constant partition should be empty")
	}
}

func TestProduct(t *testing.T) {
	// Table 1 analogue: year = {16,16,16,15,15,15}, position = {s,m,d,s,m,d}
	year, yc := buildColumn([]int{16, 16, 16, 15, 15, 15})
	posit, pc := buildColumn([]int{1, 2, 3, 1, 2, 3})
	pYear := FromColumn(year, yc)
	pPosit := FromColumn(posit, pc)
	prod := pYear.ProductWith(pPosit, nil)
	// year+position is a key for this table: all classes become singletons.
	if !prod.IsSuperkey() {
		t.Errorf("product = %v, want superkey", classesOf(prod))
	}

	// position x bin where bin == position: product equals the position partition.
	prod2 := pPosit.ProductWith(pPosit, nil)
	if !reflect.DeepEqual(classesOf(prod2), classesOf(pPosit)) {
		t.Errorf("product with self = %v, want %v", classesOf(prod2), classesOf(pPosit))
	}
}

func TestProductMatchesDirectGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(60)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(4)
			b[i] = rng.Intn(4)
		}
		colA, ca := buildColumn(a)
		colB, cb := buildColumn(b)
		prod := FromColumn(colA, ca).ProductWith(FromColumn(colB, cb), nil)

		// Direct grouping on the pair (a,b).
		groups := map[[2]int][]int32{}
		for i := 0; i < n; i++ {
			k := [2]int{a[i], b[i]}
			groups[k] = append(groups[k], int32(i))
		}
		wantError := 0
		wantClasses := 0
		for _, g := range groups {
			if len(g) >= 2 {
				wantClasses++
				wantError += len(g) - 1
			}
		}
		if prod.NumClasses() != wantClasses || prod.Error() != wantError {
			t.Fatalf("trial %d: product classes=%d error=%d, want %d/%d",
				trial, prod.NumClasses(), prod.Error(), wantClasses, wantError)
		}
		if !prod.Refines(FromColumn(colA, ca)) || !prod.Refines(FromColumn(colB, cb)) {
			t.Fatalf("trial %d: product does not refine its factors", trial)
		}
	}
}

func TestProductPanicsOnMismatchedRows(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for partitions over different relations")
		}
	}()
	FromConstant(3).ProductWith(FromConstant(4), nil)
}

func TestFindSplit(t *testing.T) {
	posit, pc := buildColumn([]int{1, 2, 3, 1, 2, 3})
	sal, _ := buildColumn([]int{5, 8, 10, 4, 6, 8})
	p := FromColumn(posit, pc)
	w, ok := p.FindSplit(sal)
	if !ok {
		t.Fatal("expected a split witness")
	}
	if posit[w.RowS] != posit[w.RowT] || sal[w.RowS] == sal[w.RowT] {
		t.Errorf("witness rows %d,%d are not a valid split", w.RowS, w.RowT)
	}
	bin, _ := buildColumn([]int{1, 2, 3, 1, 2, 3})
	if _, ok := p.FindSplit(bin); ok {
		t.Error("unexpected split witness for constant attribute")
	}
}

func TestHasSwapTable1(t *testing.T) {
	// Table 1: within context {year}, bin ~ salary holds; but with the empty
	// context, salary ~ subgroup has a swap (t1 vs t2: sal 5K<8K, subg III>II).
	year, yc := buildColumn([]int{16, 16, 16, 15, 15, 15})
	bin, _ := buildColumn([]int{1, 2, 3, 1, 2, 3})
	sal, _ := buildColumn([]int{5000, 8000, 10000, 4500, 6000, 8000})
	// subgroup: III, II, I, III, I, II  -> ranks I<II<III
	subg, _ := buildColumn([]int{3, 2, 1, 3, 1, 2})

	ctxYear := FromColumn(year, yc)
	if ctxYear.HasSwapWith(bin, sal, nil) {
		t.Error("{year}: bin ~ salary should hold (Example 4)")
	}
	empty := FromConstant(6)
	if !empty.HasSwapWith(sal, subg, nil) {
		t.Error("{}: salary ~ subgroup should be violated (Example 3 swap)")
	}
	w, ok := empty.FindSwapWith(sal, subg, nil)
	if !ok {
		t.Fatal("expected a swap witness")
	}
	s, tt := w.RowS, w.RowT
	if !(sal[s] < sal[tt] && subg[tt] < subg[s]) && !(sal[tt] < sal[s] && subg[s] < subg[tt]) {
		t.Errorf("witness (%d,%d) is not a swap: sal=%v subg=%v", s, tt, sal, subg)
	}
}

func TestHasSwapTiesDoNotCount(t *testing.T) {
	// Equal A values never produce a swap regardless of B order.
	a := []int32{0, 0, 0, 0}
	b := []int32{3, 1, 2, 0}
	p := FromConstant(4)
	if p.HasSwapWith(a, b, nil) {
		t.Error("ties in A must not be swaps")
	}
	// Equal B values with increasing A are fine too.
	if p.HasSwapWith(b, a, nil) {
		t.Error("ties in B must not be swaps")
	}
}

func TestHasSwapAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(30)
		ctxVals := make([]int, n)
		aVals := make([]int, n)
		bVals := make([]int, n)
		for i := 0; i < n; i++ {
			ctxVals[i] = rng.Intn(3)
			aVals[i] = rng.Intn(5)
			bVals[i] = rng.Intn(5)
		}
		ctxCol, cc := buildColumn(ctxVals)
		colA, _ := buildColumn(aVals)
		colB, _ := buildColumn(bVals)
		ctx := FromColumn(ctxCol, cc)

		brute := false
		for s := 0; s < n && !brute; s++ {
			for tt := 0; tt < n; tt++ {
				if ctxVals[s] == ctxVals[tt] && aVals[s] < aVals[tt] && bVals[tt] < bVals[s] {
					brute = true
					break
				}
			}
		}
		if got := ctx.HasSwapWith(colA, colB, nil); got != brute {
			t.Fatalf("trial %d: HasSwapWith = %v, brute force = %v\nctx=%v a=%v b=%v",
				trial, got, brute, ctxVals, aVals, bVals)
		}
		if w, ok := ctx.FindSwapWith(colA, colB, nil); ok {
			s, tt := w.RowS, w.RowT
			if ctxVals[s] != ctxVals[tt] {
				t.Fatalf("trial %d: witness rows in different context classes", trial)
			}
			okDir := (aVals[s] < aVals[tt] && bVals[tt] < bVals[s]) ||
				(aVals[tt] < aVals[s] && bVals[s] < bVals[tt])
			if !okDir {
				t.Fatalf("trial %d: witness (%d,%d) is not a swap", trial, s, tt)
			}
		}
	}
}

func TestRefines(t *testing.T) {
	a, ca := buildColumn([]int{1, 1, 2, 2, 3})
	ab, cab := buildColumn([]int{1, 1, 2, 3, 4})
	pa := FromColumn(a, ca)
	pab := FromColumn(ab, cab)
	if !pab.Refines(pa) {
		t.Error("finer partition should refine coarser one")
	}
	if pa.Refines(pab) {
		t.Error("coarser partition should not refine finer one")
	}
	if pa.Refines(FromConstant(3)) {
		t.Error("partitions over different row counts must not refine each other")
	}
}

func TestCloneIndependent(t *testing.T) {
	p := FromColumn([]int32{0, 0, 1, 1}, 2)
	c := p.Clone()
	//lint:allow classalias the scribble on a private clone is the point: it proves Clone's arena is independent
	c.Class(0)[0] = 99
	if p.Class(0)[0] == 99 {
		t.Error("Clone shares arena storage with the original")
	}
	if p.String() == "" {
		t.Error("String should not be empty")
	}
	if p.FootprintBytes() != 4*(p.Size()+p.NumClasses()+1) {
		t.Errorf("FootprintBytes = %d, want rows+offsets bytes", p.FootprintBytes())
	}
}

func TestErrorCriterionMatchesFDSemantics(t *testing.T) {
	// FD X -> A holds iff Error(ΠX) == Error(ΠXA); validate on random data
	// against a direct check.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(40)
		x := make([]int, n)
		a := make([]int, n)
		for i := 0; i < n; i++ {
			x[i] = rng.Intn(4)
			a[i] = rng.Intn(3)
		}
		colX, cx := buildColumn(x)
		colA, ca := buildColumn(a)
		pX := FromColumn(colX, cx)
		pXA := pX.ProductWith(FromColumn(colA, ca), nil)

		direct := true
		for s := 0; s < n && direct; s++ {
			for tt := 0; tt < n; tt++ {
				if x[s] == x[tt] && a[s] != a[tt] {
					direct = false
					break
				}
			}
		}
		viaError := pX.Error() == pXA.Error()
		_, split := pX.FindSplit(colA)
		if viaError != direct || split == direct {
			t.Fatalf("trial %d: error criterion=%v split=%v direct=%v", trial, viaError, split, direct)
		}
	}
}
