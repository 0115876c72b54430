package listod

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relation"
)

// employees returns the encoded Table 1 plus a name->index lookup.
func employees(t *testing.T) (*relation.Encoded, map[string]int) {
	t.Helper()
	r := datagen.Employees()
	enc, err := relation.Encode(r)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	idx := map[string]int{}
	for i, n := range enc.ColumnNames {
		idx[n] = i
	}
	return enc, idx
}

func TestSpecHelpers(t *testing.T) {
	s := Spec{2, 0, 2}
	if s.String() != "[2,0,2]" {
		t.Errorf("String = %q", s.String())
	}
	if got := s.Names([]string{"A", "B", "C"}); got != "[C,A,C]" {
		t.Errorf("Names = %q", got)
	}
	outOfRange := Spec{5}
	if got := outOfRange.Names([]string{"A"}); got != "[#5]" {
		t.Errorf("Names out of range = %q", got)
	}
	if !s.Contains(0) || s.Contains(7) {
		t.Error("Contains incorrect")
	}
	one := Spec{1}
	if got := one.Concat(Spec{2, 3}); !slices.Equal(got, Spec{1, 2, 3}) {
		t.Errorf("Concat = %v", got)
	}
	od := OD{Left: Spec{0}, Right: Spec{1, 2}}
	if od.String() != "[0] -> [1,2]" {
		t.Errorf("OD.String = %q", od.String())
	}
	if od.Names([]string{"A", "B", "C"}) != "[A] -> [B,C]" {
		t.Errorf("OD.Names = %q", od.Names([]string{"A", "B", "C"}))
	}
}

func TestCompareLexicographic(t *testing.T) {
	enc, idx := employees(t)
	yr, sal := idx["yr"], idx["sal"]
	// t4 (row 3) has yr=15 < t1 (row 0) yr=16.
	if Compare(enc, Spec{yr, sal}, 3, 0) >= 0 {
		t.Error("row 3 should precede row 0 on [yr,sal]")
	}
	// Equal projection on empty spec.
	if Compare(enc, Spec{}, 0, 5) != 0 {
		t.Error("empty spec must make all tuples equivalent")
	}
	if !Precedes(enc, Spec{}, 2, 4) || !Precedes(enc, Spec{}, 4, 2) {
		t.Error("Precedes on empty spec must hold both ways")
	}
	// Tie on yr broken by sal: rows 0 (16,5000) vs 1 (16,8000).
	if Compare(enc, Spec{yr, sal}, 0, 1) >= 0 {
		t.Error("tie on yr must be broken by sal")
	}
}

func TestTable1ODs(t *testing.T) {
	enc, idx := employees(t)
	sal, tax, perc := idx["sal"], idx["tax"], idx["perc"]
	grp, subg := idx["grp"], idx["subg"]
	yr, bin, posit := idx["yr"], idx["bin"], idx["posit"]

	// Example 1 of the paper.
	holding := []OD{
		{Spec{sal}, Spec{tax}},
		{Spec{sal}, Spec{perc}},
		{Spec{sal}, Spec{grp, subg}},
		{Spec{yr, sal}, Spec{yr, bin}},
	}
	for _, od := range holding {
		if !Holds(enc, od.Left, od.Right) {
			t.Errorf("%v should hold on Table 1", od.Names(enc.ColumnNames))
		}
		if !HoldsBruteForce(enc, od.Left, od.Right) {
			t.Errorf("%v should hold on Table 1 (brute force)", od.Names(enc.ColumnNames))
		}
	}
	// Example 3: [position] -> [position, salary] has splits.
	if Holds(enc, Spec{posit}, Spec{posit, sal}) {
		t.Error("[posit] -> [posit,sal] should not hold (splits)")
	}
	if !FindViolations(enc, Spec{posit}, Spec{sal}).HasSplit {
		t.Error("expected a split witness for posit vs sal")
	}
	// Example 3: swap over [salary] ~ [subgroup].
	if OrderCompatible(enc, Spec{sal}, Spec{subg}) {
		t.Error("[sal] ~ [subg] should not hold (swap)")
	}
	if !FindViolations(enc, Spec{sal}, Spec{subg}).HasSwap {
		t.Error("expected a swap witness for sal vs subg")
	}
	// Example 4: {year}: bin ~ salary, i.e. [yr,bin] ~ [yr,sal].
	if !OrderCompatible(enc, Spec{yr, bin}, Spec{yr, sal}) {
		t.Error("[yr,bin] ~ [yr,sal] should hold")
	}
}

func TestOrderEquivalent(t *testing.T) {
	enc, idx := employees(t)
	sal, tax, perc := idx["sal"], idx["tax"], idx["perc"]
	// salary <-> salary,tax (suffix rule consequence).
	if !OrderEquivalent(enc, Spec{sal}, Spec{sal, tax}) {
		t.Error("[sal] <-> [sal,tax] should hold")
	}
	// Both salary -> tax and tax -> salary hold in Table 1 (ties agree).
	if !OrderEquivalent(enc, Spec{tax}, Spec{sal}) {
		t.Error("[tax] <-> [sal] should hold on Table 1")
	}
	if OrderEquivalent(enc, Spec{perc}, Spec{sal}) {
		t.Error("[perc] <-> [sal] should not hold: percentage does not determine salary")
	}
}

func TestFindSplitAndSwapWitnessesAreValid(t *testing.T) {
	enc, idx := employees(t)
	posit, sal, subg := idx["posit"], idx["sal"], idx["subg"]

	if v := FindViolations(enc, Spec{posit}, Spec{sal}); v.HasSplit {
		w := v.Split
		if Compare(enc, Spec{posit}, w.RowS, w.RowT) != 0 {
			t.Error("split witness rows differ on the left side")
		}
		if Compare(enc, Spec{sal}, w.RowS, w.RowT) == 0 {
			t.Error("split witness rows agree on the right side")
		}
	} else {
		t.Error("expected split witness")
	}

	if v := FindViolations(enc, Spec{sal}, Spec{subg}); v.HasSwap {
		w := v.Swap
		cx := Compare(enc, Spec{sal}, w.RowS, w.RowT)
		cy := Compare(enc, Spec{subg}, w.RowS, w.RowT)
		if cx >= 0 || cy <= 0 {
			t.Errorf("swap witness rows (%d,%d) are not a swap: cx=%d cy=%d", w.RowS, w.RowT, cx, cy)
		}
	} else {
		t.Error("expected swap witness")
	}

	// No witnesses where the dependency holds.
	if v := FindViolations(enc, Spec{sal}, Spec{idx["tax"]}); v.HasSplit || v.HasSwap {
		t.Errorf("unexpected witness for sal -> tax: %+v", v)
	}
}

func TestTrivial(t *testing.T) {
	cases := []struct {
		x, y Spec
		want bool
	}{
		{Spec{0, 1}, Spec{0}, true},       // Reflexivity: XY -> X
		{Spec{0, 1}, Spec{0, 1}, true},    // identity
		{Spec{0, 1, 0}, Spec{0, 1}, true}, // Normalization collapses repeats
		{Spec{0}, Spec{1}, false},         //
		{Spec{0, 1}, Spec{1}, false},      // suffix is not a prefix
		{Spec{0}, Spec{0, 1}, false},      // right longer than left
		{Spec{}, Spec{}, true},            // empty -> empty
		{Spec{1, 0}, Spec{0}, false},      // order matters
	}
	for _, tc := range cases {
		if got := Trivial(tc.x, tc.y); got != tc.want {
			t.Errorf("Trivial(%v,%v) = %v, want %v", tc.x, tc.y, got, tc.want)
		}
	}
}

// Trivial ODs must hold on every instance.
func TestTrivialImpliesHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		r := datagen.RandomRelation(20, 4, 3, rng.Int63())
		enc, err := relation.Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		specs := []Spec{{}, {0}, {1, 0}, {0, 1, 2}, {3, 2, 3}, {2, 2}}
		for _, x := range specs {
			for _, y := range specs {
				if Trivial(x, y) && !Holds(enc, x, y) {
					t.Fatalf("trivial OD %v -> %v does not hold on instance", x, y)
				}
			}
		}
	}
}

// Property: the efficient Holds agrees with the quadratic brute-force oracle
// on random relations and random specs.
func TestHoldsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 150; trial++ {
		rows := 2 + rng.Intn(24)
		cols := 2 + rng.Intn(4)
		r := datagen.RandomStructuredRelation(rows, cols, 3, rng.Int63())
		enc, err := relation.Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		x := randomSpec(rng, cols)
		y := randomSpec(rng, cols)
		want := HoldsBruteForce(enc, x, y)
		if got := Holds(enc, x, y); got != want {
			t.Fatalf("trial %d: Holds(%v,%v) = %v, brute force = %v", trial, x, y, got, want)
		}
	}
}

// Property: Theorem 1 — X ↦ Y iff X ↦ XY and X ~ Y.
func TestTheorem1(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 150; trial++ {
		rows := 2 + rng.Intn(20)
		cols := 2 + rng.Intn(4)
		r := datagen.RandomStructuredRelation(rows, cols, 3, rng.Int63())
		enc, err := relation.Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		x := randomSpec(rng, cols)
		y := randomSpec(rng, cols)
		lhs := Holds(enc, x, y)
		rhs := Holds(enc, x, x.Concat(y)) && OrderCompatible(enc, x, y)
		if lhs != rhs {
			t.Fatalf("trial %d: Theorem 1 violated for X=%v Y=%v: direct=%v decomposed=%v", trial, x, y, lhs, rhs)
		}
	}
}

// Property: order compatibility is symmetric and reflexive, and the one-sort
// check agrees with Definition 3, XY ↔ YX, on both outcomes.
func TestOrderCompatibleSymmetricReflexive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	incompatible := 0
	for trial := 0; trial < 60; trial++ {
		r := datagen.RandomStructuredRelation(2+rng.Intn(16), 3, 3, rng.Int63())
		enc, err := relation.Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		x := randomSpec(rng, 3)
		y := randomSpec(rng, 3)
		got := OrderCompatible(enc, x, y)
		if want := OrderEquivalent(enc, x.Concat(y), y.Concat(x)); got != want {
			t.Fatalf("X=%v Y=%v: OrderCompatible says %v, Definition 3 (XY <-> YX) says %v", x, y, got, want)
		}
		if !got {
			incompatible++
		}
		if got != OrderCompatible(enc, y, x) {
			t.Fatalf("order compatibility is not symmetric for %v, %v", x, y)
		}
		if !OrderCompatible(enc, x, x) {
			t.Fatalf("order compatibility is not reflexive for %v", x)
		}
		// The empty spec is order compatible with anything (Definition 3).
		if !OrderCompatible(enc, Spec{}, x) {
			t.Fatalf("empty spec should be order compatible with %v", x)
		}
	}
	if incompatible == 0 {
		t.Fatal("no random pair was incompatible, so Definition 3 was checked on one outcome only")
	}
}

func randomSpec(rng *rand.Rand, cols int) Spec {
	n := rng.Intn(3)
	out := make(Spec, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, rng.Intn(cols))
	}
	return out
}

// FuzzListViolations holds FindViolations and Holds to pairwise brute
// force. The input decodes to a relation of at most 24 rows and 5 columns,
// each column drawing from a domain of 1 to 4 values, and two specs of at
// most 3 attributes each. A split or swap must be found exactly when some
// pair of rows forms one, every witness must be a genuine split (equal on X,
// different on Y) or swap (strictly before on X, strictly after on Y), and
// Holds must equal HoldsBruteForce.
func FuzzListViolations(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 1, 0, 3, 2, 2, 2, 0, 1}, uint8(1), []byte{0}, []byte{1})
	f.Add([]byte{3, 0, 1, 2, 0, 0, 1, 1, 2, 3, 3, 0, 1, 2, 0}, uint8(17), []byte{2, 0}, []byte{1, 2})
	f.Add([]byte{1, 1, 1, 1, 1, 1}, uint8(0), []byte{}, []byte{0})
	f.Fuzz(func(t *testing.T, cells []byte, shape uint8, left, right []byte) {
		cols := 1 + int(shape%5)
		domain := 1 + int(shape/5)%4
		rows := min(24, len(cells)/cols)
		header := make([]string, cols)
		for c := range header {
			header[c] = fmt.Sprintf("c%d", c)
		}
		data := make([][]string, rows)
		for r := range data {
			data[r] = make([]string, cols)
			for c := range data[r] {
				data[r][c] = fmt.Sprint(int(cells[r*cols+c]) % domain)
			}
		}
		rel, err := relation.FromRows("fuzz", header, data)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := relation.Encode(rel)
		if err != nil {
			t.Fatal(err)
		}
		spec := func(b []byte) Spec {
			out := Spec{}
			for _, a := range b[:min(3, len(b))] {
				out = append(out, int(a)%cols)
			}
			return out
		}
		x, y := spec(left), spec(right)

		split, swap := false, false
		for s := range rows {
			for u := range rows {
				cx, cy := Compare(enc, x, s, u), Compare(enc, y, s, u)
				split = split || (cx == 0 && cy != 0)
				swap = swap || (cx < 0 && cy > 0)
			}
		}
		v := FindViolations(enc, x, y)
		if v.HasSplit != split || v.HasSwap != swap {
			t.Fatalf("X=%v Y=%v over %v: found split %v swap %v, brute force split %v swap %v",
				x, y, data, v.HasSplit, v.HasSwap, split, swap)
		}
		if w := v.Split; v.HasSplit && (Compare(enc, x, w.RowS, w.RowT) != 0 || Compare(enc, y, w.RowS, w.RowT) == 0) {
			t.Fatalf("X=%v Y=%v over %v: rows %d, %d are no split", x, y, data, w.RowS, w.RowT)
		}
		if w := v.Swap; v.HasSwap && (Compare(enc, x, w.RowS, w.RowT) >= 0 || Compare(enc, y, w.RowS, w.RowT) <= 0) {
			t.Fatalf("X=%v Y=%v over %v: rows %d, %d are no swap", x, y, data, w.RowS, w.RowT)
		}
		if got, want := Holds(enc, x, y), HoldsBruteForce(enc, x, y); got != want {
			t.Fatalf("X=%v Y=%v over %v: Holds = %v, brute force = %v", x, y, data, got, want)
		}
	})
}
