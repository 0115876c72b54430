package canonical

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/datagen"
	"repro/internal/listod"
	"repro/internal/partition"
	"repro/internal/relation"
)

func encodeEmployees(t *testing.T) (*relation.Encoded, map[string]int) {
	t.Helper()
	enc, err := relation.Encode(datagen.Employees())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	idx := map[string]int{}
	for i, n := range enc.ColumnNames {
		idx[n] = i
	}
	return enc, idx
}

// TestHoldsExample4 checks the worked Example 4 of the paper against Table 1:
// {position}: [] ↦ bin holds, {year}: bin ~ salary holds, while
// {year}: bin ~ subgroup and {position}: [] ↦ salary do not.
func TestHoldsExample4(t *testing.T) {
	enc, idx := encodeEmployees(t)
	posit, bin, sal, subg, yr := idx["posit"], idx["bin"], idx["sal"], idx["subg"], idx["yr"]

	cases := []struct {
		od   OD
		want bool
	}{
		{NewConstancy(bitset.NewAttrSet(posit), bin), true},
		{NewOrderCompatible(bitset.NewAttrSet(yr), bin, sal), true},
		{NewOrderCompatible(bitset.NewAttrSet(yr), bin, subg), false},
		{NewConstancy(bitset.NewAttrSet(posit), sal), false},
	}
	for _, tc := range cases {
		got, err := Holds(enc, tc.od)
		if err != nil {
			t.Fatalf("Holds(%v): %v", tc.od, err)
		}
		if got != tc.want {
			t.Errorf("Holds(%v) = %v, want %v", tc.od.NamesString(enc.ColumnNames), got, tc.want)
		}
	}
}

func TestHoldsTrivialAndErrors(t *testing.T) {
	enc, _ := encodeEmployees(t)
	trivial := NewConstancy(bitset.NewAttrSet(0), 0)
	if ok, err := Holds(enc, trivial); err != nil || !ok {
		t.Error("trivial OD must hold")
	}
	if _, err := Holds(enc, NewConstancy(bitset.NewAttrSet(0), 60)); err == nil {
		t.Error("expected error for out-of-range attribute")
	}
	if _, err := Holds(enc, NewConstancy(bitset.NewAttrSet(60), 0)); err == nil {
		t.Error("expected error for out-of-range context attribute")
	}
	if _, err := Holds(enc, NewOrderCompatible(bitset.AttrSet(0), 0, 61)); err == nil {
		t.Error("expected error for out-of-range pair attribute")
	}
	if _, _, err := FindViolation(enc, NewConstancy(bitset.NewAttrSet(60), 0)); err == nil {
		t.Error("FindViolation should propagate attribute errors")
	}
	bad := OD{Context: bitset.AttrSet(0), Kind: Kind(9), A: 0}
	if _, err := Holds(enc, bad); err == nil {
		t.Error("expected error for unknown kind")
	}
	if _, found, err := FindViolation(enc, bad); err == nil || found {
		t.Errorf("FindViolation on an unknown kind: found %v, err %v; want an error", found, err)
	}
}

func TestMustHoldPanicsOnError(t *testing.T) {
	enc, _ := encodeEmployees(t)
	defer func() {
		if recover() == nil {
			t.Error("MustHold should panic on structural errors")
		}
	}()
	MustHold(enc, NewConstancy(bitset.NewAttrSet(0), 63))
}

func TestFindViolationWitnesses(t *testing.T) {
	enc, idx := encodeEmployees(t)
	posit, sal, subg := idx["posit"], idx["sal"], idx["subg"]

	v, found, err := FindViolation(enc, NewConstancy(bitset.NewAttrSet(posit), sal))
	if err != nil || !found {
		t.Fatalf("expected split violation, err=%v", err)
	}
	if v.IsSwap {
		t.Error("constancy violation must be a split")
	}
	if enc.Column(posit)[v.RowS] != enc.Column(posit)[v.RowT] || enc.Column(sal)[v.RowS] == enc.Column(sal)[v.RowT] {
		t.Error("split witness is not valid")
	}
	if v.String() == "" {
		t.Error("violation string empty")
	}

	v, found, err = FindViolation(enc, NewOrderCompatible(bitset.AttrSet(0), sal, subg))
	if err != nil || !found {
		t.Fatalf("expected swap violation, err=%v", err)
	}
	if !v.IsSwap {
		t.Error("order-compatibility violation must be a swap")
	}

	// Holding OD: no violation.
	if _, found, _ := FindViolation(enc, NewConstancy(bitset.NewAttrSet(sal), idx["tax"])); found {
		t.Error("unexpected violation for holding OD")
	}
	// Trivial OD: no violation.
	if _, found, _ := FindViolation(enc, NewConstancy(bitset.NewAttrSet(sal), sal)); found {
		t.Error("unexpected violation for trivial OD")
	}
}

func TestContextPartitionEmptyAndSingle(t *testing.T) {
	enc, idx := encodeEmployees(t)
	p := ContextPartition(enc, bitset.AttrSet(0), nil)
	if p.NumClasses() != 1 || p.Size() != enc.NumRows() {
		t.Errorf("empty-context partition = %v", p)
	}
	pYear := ContextPartition(enc, bitset.NewAttrSet(idx["yr"]), nil)
	if pYear.NumClasses() != 2 {
		t.Errorf("year partition classes = %d, want 2", pYear.NumClasses())
	}
	pKey := ContextPartition(enc, bitset.NewAttrSet(idx["ID"], idx["yr"]), partition.NewScratch())
	if !pKey.IsSuperkey() {
		t.Error("ID,yr should be a key of Table 1")
	}
}

// productChain is the context partition as products of single-attribute
// partitions in ascending attribute order, the reference ContextPartition
// matches byte for byte on contexts of one and two attributes.
func productChain(enc *relation.Encoded, ctx bitset.AttrSet) *partition.Partition {
	s := partition.NewScratch()
	p := partition.FromConstant(enc.NumRows())
	ctx.ForEach(func(a int) {
		p = p.ProductWith(partition.FromColumn(enc.Column(a), enc.Cardinality[a]), s)
	})
	return p
}

func classList(p *partition.Partition) [][]int32 {
	out := [][]int32{}
	p.ForEachClass(func(cls []int32) { out = append(out, slices.Clone(cls)) })
	return out
}

// TestContextPartitionWitnessStability: on contexts of one or two
// attributes ContextPartition lists the classes, and the rows within them,
// exactly as the product chain does, so FindViolation's witnesses there are
// those a product chain gives. On larger contexts the class order may
// differ, and the test asks only what a witness promises: its two rows agree
// on every context attribute and form a split (they differ on A) or a swap
// (A and B order them oppositely). It also checks that every larger context
// has the product chain's classes.
func TestContextPartitionWitnessStability(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	witnesses := 0
	for trial := range 60 {
		r := datagen.RandomStructuredRelation(2+rng.Intn(60), 5, 1+rng.Intn(4), rng.Int63())
		enc, err := relation.Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		cols := enc.NumCols()
		for x := bitset.AttrSet(1); x < 1<<cols; x++ {
			got, want := ContextPartition(enc, x, nil), productChain(enc, x)
			if x.Len() <= 2 && !reflect.DeepEqual(classList(got), classList(want)) {
				t.Fatalf("trial %d context %v: classes %v, product chain %v", trial, x, classList(got), classList(want))
			}
			if !got.Refines(want) || !want.Refines(got) {
				t.Fatalf("trial %d context %v: classes %v, product chain %v", trial, x, classList(got), classList(want))
			}
			for a := range cols {
				for b := a; b < cols; b++ {
					od := NewConstancy(x, a)
					if b != a {
						od = NewOrderCompatible(x, a, b)
					}
					v, found, err := FindViolation(enc, od)
					if err != nil {
						t.Fatal(err)
					}
					if !found {
						continue
					}
					witnesses++
					s, u := v.RowS, v.RowT
					x.ForEach(func(c int) {
						if enc.Column(c)[s] != enc.Column(c)[u] {
							t.Fatalf("trial %d %v: witness rows %d, %d differ on context attribute %d", trial, od, s, u, c)
						}
					})
					colA := enc.Column(a)
					genuine := colA[s] != colA[u]
					if v.IsSwap {
						colB := enc.Column(b)
						genuine = (colA[s] < colA[u] && colB[u] < colB[s]) || (colA[u] < colA[s] && colB[s] < colB[u])
					}
					if !genuine {
						t.Fatalf("trial %d %v: rows %d, %d are no split or swap", trial, od, s, u)
					}
				}
			}
		}
	}
	if witnesses == 0 {
		t.Fatal("no violation found; the relations are too regular")
	}
}

// TestHoldsPermutationInvariance verifies the claim behind Definition 6: the
// validity of a canonical OD does not depend on which permutation of the
// context is used, because only the equivalence classes of the context matter.
func TestHoldsPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		r := datagen.RandomStructuredRelation(2+rng.Intn(12), 4, 3, rng.Int63())
		enc, err := relation.Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		ctx := bitset.NewAttrSet(0, 1)
		od := NewOrderCompatible(ctx, 2, 3)
		// Direct canonical check vs list-based checks over both permutations.
		got := MustHold(enc, od)
		perm1 := listodOrderCompatible(enc, []int{0, 1}, 2, 3)
		perm2 := listodOrderCompatible(enc, []int{1, 0}, 2, 3)
		if got != perm1 || got != perm2 {
			t.Fatalf("trial %d: permutation dependence detected (canonical=%v, perm1=%v, perm2=%v)", trial, got, perm1, perm2)
		}
	}
}

// listodOrderCompatible checks X'A ~ X'B through the list-based machinery.
func listodOrderCompatible(enc *relation.Encoded, ctx []int, a, b int) bool {
	x := append(append(listod.Spec{}, ctx...), a)
	y := append(append(listod.Spec{}, ctx...), b)
	return listod.OrderCompatible(enc, x, y)
}

func TestReferenceDiscoverTable1(t *testing.T) {
	enc, idx := encodeEmployees(t)
	ods, err := ReferenceDiscover(enc)
	if err != nil {
		t.Fatalf("ReferenceDiscover: %v", err)
	}
	if len(ods) == 0 {
		t.Fatal("expected some ODs on Table 1")
	}
	cover := NewCover(ods)

	// Every reported OD must hold and be non-trivial.
	for _, od := range ods {
		if od.IsTrivial() {
			t.Errorf("trivial OD in output: %v", od)
		}
		if !MustHold(enc, od) {
			t.Errorf("reported OD does not hold: %v", od.NamesString(enc.ColumnNames))
		}
	}

	// Expected members (or implied): salary determines tax; salary and tax are
	// order compatible with the empty context.
	sal, tax, perc := idx["sal"], idx["tax"], idx["perc"]
	if !cover.ImpliesConstancy(bitset.NewAttrSet(sal), tax) {
		t.Error("{sal}: [] -> tax should be implied by the reference output")
	}
	if !cover.ImpliesOrderCompat(bitset.AttrSet(0), sal, tax) {
		t.Error("{}: sal ~ tax should be implied by the reference output")
	}
	if !cover.ImpliesConstancy(bitset.NewAttrSet(sal), perc) {
		t.Error("{sal}: [] -> perc should be implied by the reference output")
	}
	// The salary/subgroup swap means {}: sal ~ subg must NOT be implied.
	if cover.ImpliesOrderCompat(bitset.AttrSet(0), sal, idx["subg"]) {
		t.Error("{}: sal ~ subg must not be implied (swap in Table 1)")
	}
}

func TestReferenceDiscoverRejectsWideSchemas(t *testing.T) {
	r := datagen.FlightLike(10, 21, 1)
	enc, err := relation.Encode(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReferenceDiscover(enc); err == nil {
		t.Error("expected error for > 20 attributes")
	}
}

// TestReferenceDiscoverExactness: on random small relations, the cover of the
// reference output implies exactly the canonical ODs that hold.
func TestReferenceDiscoverExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		r := datagen.RandomStructuredRelation(2+rng.Intn(12), 4, 3, rng.Int63())
		enc, err := relation.Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		ods, err := ReferenceDiscover(enc)
		if err != nil {
			t.Fatal(err)
		}
		cover := NewCover(ods)
		n := enc.NumCols()
		for mask := 0; mask < 1<<uint(n); mask++ {
			ctx := bitset.AttrSet(mask)
			for a := 0; a < n; a++ {
				if ctx.Contains(a) {
					continue
				}
				od := NewConstancy(ctx, a)
				if MustHold(enc, od) != cover.Implies(od) {
					t.Fatalf("trial %d: constancy implication mismatch for %v", trial, od)
				}
				for b := a + 1; b < n; b++ {
					if ctx.Contains(b) {
						continue
					}
					oc := NewOrderCompatible(ctx, a, b)
					if MustHold(enc, oc) != cover.Implies(oc) {
						t.Fatalf("trial %d: order-compat implication mismatch for %v", trial, oc)
					}
				}
			}
		}
	}
}
