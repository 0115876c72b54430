package bitset

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestAttrSetBasics(t *testing.T) {
	s := NewAttrSet(1, 3, 5)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	for _, a := range []int{1, 3, 5} {
		if !s.Contains(a) {
			t.Errorf("Contains(%d) = false, want true", a)
		}
	}
	for _, a := range []int{0, 2, 4, 63} {
		if s.Contains(a) {
			t.Errorf("Contains(%d) = true, want false", a)
		}
	}
	if got := s.String(); got != "{1,3,5}" {
		t.Errorf("String = %q, want {1,3,5}", got)
	}
}

func TestAttrSetAddRemoveIdempotent(t *testing.T) {
	s := NewAttrSet(2)
	if s.Add(2) != s {
		t.Error("adding an existing attribute changed the set")
	}
	if s.Remove(7) != s {
		t.Error("removing an absent attribute changed the set")
	}
	if !s.Remove(2).IsEmpty() {
		t.Error("removing the only attribute did not produce the empty set")
	}
}

func TestAttrSetOps(t *testing.T) {
	a := NewAttrSet(0, 1, 2)
	b := NewAttrSet(2, 3)
	if got := a.Union(b); !got.Equal(NewAttrSet(0, 1, 2, 3)) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); !got.Equal(NewAttrSet(2)) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Diff(b); !got.Equal(NewAttrSet(0, 1)) {
		t.Errorf("Diff = %v", got)
	}
	if !NewAttrSet(1).IsSubsetOf(a) || b.IsSubsetOf(a) {
		t.Error("IsSubsetOf incorrect")
	}
	if !AttrSet(0).IsSubsetOf(a) {
		t.Error("empty set must be a subset of everything")
	}
}

func TestAttrSetAttrsSorted(t *testing.T) {
	s := NewAttrSet(9, 4, 63, 0)
	got := s.Attrs()
	want := []int{0, 4, 9, 63}
	if len(got) != len(want) {
		t.Fatalf("Attrs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Attrs = %v, want %v", got, want)
		}
	}
}

func TestAttrSetSubsets(t *testing.T) {
	s := NewAttrSet(1, 4, 6)
	subs := s.Subsets()
	if len(subs) != 3 {
		t.Fatalf("len(Subsets) = %d, want 3", len(subs))
	}
	want := []AttrSet{NewAttrSet(4, 6), NewAttrSet(1, 6), NewAttrSet(1, 4)}
	for i, sub := range subs {
		if !sub.Equal(want[i]) {
			t.Errorf("Subsets[%d] = %v, want %v", i, sub, want[i])
		}
		if !sub.IsSubsetOf(s) || sub.Len() != s.Len()-1 {
			t.Errorf("Subsets[%d] = %v is not an immediate subset", i, sub)
		}
	}
}

func TestAttrSetNames(t *testing.T) {
	names := []string{"A", "B", "C"}
	if got := NewAttrSet(0, 2).Names(names); got != "{A,C}" {
		t.Errorf("Names = %q, want {A,C}", got)
	}
	if got := NewAttrSet(5).Names(names); got != "{#5}" {
		t.Errorf("Names with missing name = %q, want {#5}", got)
	}
}

func TestAttrSetPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range index")
		}
	}()
	NewAttrSet(64)
}

func TestPairNormalization(t *testing.T) {
	p := NewPair(5, 2)
	if p.A != 2 || p.B != 5 {
		t.Errorf("NewPair(5,2) = %v, want (2,5)", p)
	}
	if p != NewPair(2, 5) {
		t.Error("pairs with swapped arguments must be equal")
	}
}

func TestPairPanicsOnEqualAttrs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for identical attributes")
		}
	}()
	NewPair(3, 3)
}

func TestPairSetBasics(t *testing.T) {
	ps := NewPairSet(4)
	if !ps.IsEmpty() {
		t.Fatal("new pair set should be empty")
	}
	ps.Add(NewPair(0, 1))
	ps.Add(NewPair(1, 0)) // same pair, normalized
	ps.Add(NewPair(2, 3))
	if ps.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ps.Len())
	}
	if !ps.Contains(NewPair(1, 0)) {
		t.Error("Contains failed for normalized pair")
	}
	ps.Remove(NewPair(0, 1))
	if ps.Contains(NewPair(0, 1)) || ps.Len() != 1 {
		t.Error("Remove failed")
	}
}

func TestPairSetZeroValueIsEmpty(t *testing.T) {
	var ps PairSet
	if !ps.IsEmpty() || ps.Len() != 0 {
		t.Error("zero pair set should be empty")
	}
	ps.ForEach(func(p Pair) { t.Errorf("zero pair set yielded %v", p) })
}

func TestPairSetPanicsOutOfRange(t *testing.T) {
	for name, f := range map[string]func(){
		"width above MaxAttrs": func() { NewPairSet(MaxAttrs + 1) },
		"pair outside width":   func() { ps := NewPairSet(3); ps.Add(NewPair(1, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// TestPairSetMatchesMapModel runs seeded random operation sequences against a
// map[Pair]struct{} model at every width from 1 to MaxAttrs. After each
// operation every method must agree with the model: membership of every
// pair, Len, IsEmpty, every row, and the ForEach walk, whose order must be
// the model's pairs sorted by (A,B).
func TestPairSetMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for n := 1; n <= MaxAttrs; n++ {
		ps := NewPairSet(n)
		model := make(map[Pair]struct{})
		randomPair := func() Pair {
			a := rng.Intn(n)
			b := rng.Intn(n)
			for n > 1 && b == a {
				b = rng.Intn(n)
			}
			return NewPair(a, b)
		}
		for step := 0; step < 100; step++ {
			var op string
			switch k := rng.Intn(10); {
			case n == 1:
				op = "noop" // a single attribute admits no pair
			case k < 5:
				op = "add"
				p := randomPair()
				ps.Add(p)
				model[p] = struct{}{}
			case k < 8:
				op = "remove"
				p := randomPair()
				ps.Remove(p)
				delete(model, p)
			default:
				op = "setrow"
				a := rng.Intn(n)
				r := AttrSet(rng.Uint64())
				ps.SetRow(a, r)
				for p := range model {
					if p.A == a {
						delete(model, p)
					}
				}
				for b := a + 1; b < n; b++ {
					if r.Contains(b) {
						model[NewPair(a, b)] = struct{}{}
					}
				}
			}
			checkPairSetAgainstModel(t, n, step, op, &ps, model)
			if t.Failed() {
				return
			}
		}
		// Clearing every pair mid-walk empties the set.
		ps.ForEach(func(p Pair) { ps.Remove(p) })
		if !ps.IsEmpty() {
			t.Fatalf("width %d: removing every pair during ForEach left %d pairs", n, ps.Len())
		}
	}
}

func checkPairSetAgainstModel(t *testing.T, n, step int, op string, ps *PairSet, model map[Pair]struct{}) {
	t.Helper()
	where := func() string { return fmt.Sprintf("width %d, step %d (%s)", n, step, op) }
	if ps.Len() != len(model) {
		t.Errorf("%s: Len = %d, model has %d", where(), ps.Len(), len(model))
	}
	if ps.IsEmpty() != (len(model) == 0) {
		t.Errorf("%s: IsEmpty = %v with %d pairs in the model", where(), ps.IsEmpty(), len(model))
	}
	for a := 0; a < n; a++ {
		var want AttrSet
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			_, in := model[NewPair(a, b)]
			if ps.Contains(NewPair(a, b)) != in {
				t.Errorf("%s: Contains(%v) = %v, model %v", where(), NewPair(a, b), !in, in)
			}
			if in && b > a {
				want = want.Add(b)
			}
		}
		if got := ps.Row(a); got != want {
			t.Errorf("%s: Row(%d) = %v, want %v", where(), a, got, want)
		}
	}
	want := make([]Pair, 0, len(model))
	for p := range model {
		want = append(want, p)
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].A != want[j].A {
			return want[i].A < want[j].A
		}
		return want[i].B < want[j].B
	})
	var got []Pair
	ps.ForEach(func(p Pair) { got = append(got, p) })
	if !slices.Equal(got, want) {
		t.Errorf("%s: ForEach order = %v, want %v", where(), got, want)
	}
}

// Property: union and intersection behave like their mathematical definitions
// on membership, for arbitrary bitmasks.
func TestAttrSetAlgebraQuick(t *testing.T) {
	f := func(x, y uint64, attr uint8) bool {
		a, b := AttrSet(x), AttrSet(y)
		i := int(attr % MaxAttrs)
		inUnion := a.Union(b).Contains(i) == (a.Contains(i) || b.Contains(i))
		inInter := a.Intersect(b).Contains(i) == (a.Contains(i) && b.Contains(i))
		inDiff := a.Diff(b).Contains(i) == (a.Contains(i) && !b.Contains(i))
		return inUnion && inInter && inDiff
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Attrs round-trips through NewAttrSet.
func TestAttrSetRoundTripQuick(t *testing.T) {
	f := func(x uint64) bool {
		s := AttrSet(x)
		return NewAttrSet(s.Attrs()...).Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: the immediate subsets of a set each have exactly one fewer
// attribute and their union (for |s| >= 2) is the original set.
func TestAttrSetSubsetsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		s := AttrSet(rng.Uint64())
		if s.Len() < 2 {
			continue
		}
		var union AttrSet
		for _, sub := range s.Subsets() {
			if sub.Len() != s.Len()-1 || !sub.IsSubsetOf(s) {
				t.Fatalf("bad subset %v of %v", sub, s)
			}
			union = union.Union(sub)
		}
		if !union.Equal(s) {
			t.Fatalf("union of subsets %v != %v", union, s)
		}
	}
}
