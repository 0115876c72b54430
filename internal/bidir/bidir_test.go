package bidir

import (
	"cmp"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/bitset"
	"repro/internal/canonical"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/lattice"
	"repro/internal/relation"
)

func encode(t *testing.T, r *relation.Relation) *relation.Encoded {
	t.Helper()
	enc, err := relation.Encode(r)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return enc
}

// opposing builds a relation where b falls as a rises (plus noise column c).
func opposing(t *testing.T, rows int) *relation.Encoded {
	t.Helper()
	data := make([][]string, rows)
	for i := 0; i < rows; i++ {
		data[i] = []string{strconv.Itoa(i), strconv.Itoa(rows - i), strconv.Itoa(i % 3)}
	}
	rel, err := relation.FromRows("opposing", []string{"a", "b", "c"}, data)
	if err != nil {
		t.Fatal(err)
	}
	return encode(t, rel)
}

func TestDirectionAndPolarityStrings(t *testing.T) {
	if SameDirection.String() != "same" || OppositeDirection.String() != "opposite" {
		t.Error("Polarity.String incorrect")
	}
}

// TestCompareWithDirections: a column orders rows descending exactly as its
// reflected ranks (reverseRanks) order them ascending, ties included, and the
// reflection stays non-negative on a HeadRows view, whose ranks are
// re-ranked from its parent's.
func TestCompareWithDirections(t *testing.T) {
	enc := opposing(t, 10)
	a := enc.Column(0)
	// a ascending: row 0 before row 5.
	if a[0] >= a[5] {
		t.Error("ascending comparison wrong")
	}
	// a descending: row 5 before row 0.
	if desc := reverseRanks(a); desc[5] >= desc[0] {
		t.Error("descending comparison wrong")
	}
	// Rows 1 and 4 tie on c in either direction.
	if c, desc := enc.Column(2), reverseRanks(enc.Column(2)); c[1] != c[4] || desc[1] != desc[4] {
		t.Error("tie comparison wrong")
	}
	for _, e := range []*relation.Encoded{enc, opposing(t, 20).HeadRows(4)} {
		for col := 0; col < e.NumCols(); col++ {
			asc, desc := e.Column(col), reverseRanks(e.Column(col))
			for s := range asc {
				if desc[s] < 0 {
					t.Fatalf("%d rows, column %d: reflected rank %d is negative", e.NumRows(), col, desc[s])
				}
				for u := range asc {
					if cmp.Compare(desc[s], desc[u]) != cmp.Compare(asc[u], asc[s]) {
						t.Fatalf("%d rows, column %d: rows %d, %d not reversed", e.NumRows(), col, s, u)
					}
				}
			}
		}
	}
}

// TestHoldsBidirectional: on columns that move in opposition, the list OD
// [a asc] -> [b desc] holds through its canonical ODs {a}: [] -> b and
// {}: a ~ b (opposite), while [a asc] -> [b asc] fails on {}: a ~ b (same).
func TestHoldsBidirectional(t *testing.T) {
	enc := opposing(t, 20)
	holds := func(od OD) bool {
		t.Helper()
		ok, err := od.Holds(enc)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	if !holds(NewConstancy(bitset.NewAttrSet(0), 1)) {
		t.Error("{a}: [] -> b should hold")
	}
	if !holds(NewOrderCompatible(bitset.AttrSet(0), 0, 1, OppositeDirection)) {
		t.Error("[a asc] ~ [b desc] should hold")
	}
	if holds(NewOrderCompatible(bitset.AttrSet(0), 0, 1, SameDirection)) {
		t.Error("[a asc] ~ [b asc] should not hold")
	}
	// c cycles as a rises and b falls: compatible with neither in either
	// polarity.
	for _, p := range []Polarity{SameDirection, OppositeDirection} {
		for _, x := range []int{0, 1} {
			if holds(NewOrderCompatible(bitset.AttrSet(0), x, 2, p)) {
				t.Errorf("{}: %d ~ c (%s) should not hold", x, p)
			}
		}
	}
}

// Property: unidirectional Holds agrees with bidirectional Holds when every
// direction is ascending.
func TestHoldsMatchesUnidirectional(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 60; trial++ {
		rel := datagen.RandomStructuredRelation(2+rng.Intn(16), 4, 3, rng.Int63())
		enc := encode(t, rel)
		res, err := core.DiscoverContext(t.Context(), enc, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, od := range res.ODs {
			if od.Kind != canonical.OrderCompatible {
				continue
			}
			bidirOD := NewOrderCompatible(od.Context, od.A, od.B, SameDirection)
			holds, err := bidirOD.Holds(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !holds {
				t.Fatalf("trial %d: %v holds unidirectionally but not bidirectionally", trial, od)
			}
		}
	}
}

func TestODHelpers(t *testing.T) {
	ctx := bitset.NewAttrSet(0)
	c := NewConstancy(ctx, 1)
	if c.String() != "{0}: [] -> 1" {
		t.Errorf("String = %q", c.String())
	}
	if c.NamesString([]string{"a", "b"}) != "{a}: [] -> b" {
		t.Errorf("NamesString = %q", c.NamesString([]string{"a", "b"}))
	}
	oc := NewOrderCompatible(ctx, 2, 1, OppositeDirection)
	if oc.A != 1 || oc.B != 2 {
		t.Error("pair not normalized")
	}
	if oc.String() != "{0}: 1 ~ 2 (opposite)" {
		t.Errorf("String = %q", oc.String())
	}
	if oc.NamesString([]string{"a", "b", "c"}) != "{a}: b ~ c (opposite)" {
		t.Errorf("NamesString = %q", oc.NamesString([]string{"a", "b", "c"}))
	}
	if (OD{Kind: canonical.Kind(9)}).NamesString([]string{"x"}) == "" {
		// NamesString for unknown kinds is undefined but must not panic; the
		// zero-value path goes through the constancy branch.
		t.Log("unknown kind rendered")
	}

	if !NewConstancy(ctx, 0).IsTrivial() || NewConstancy(ctx, 1).IsTrivial() {
		t.Error("constancy triviality incorrect")
	}
	if !NewOrderCompatible(ctx, 0, 1, SameDirection).IsTrivial() {
		t.Error("pair with context attribute should be trivial")
	}
	if (OD{Kind: canonical.Kind(9)}).IsTrivial() {
		t.Error("unknown kind should not be trivial")
	}
}

func TestODHoldsValidation(t *testing.T) {
	enc := opposing(t, 10)
	if _, err := NewConstancy(bitset.NewAttrSet(60), 0).Holds(enc); err == nil {
		t.Error("expected error for out-of-range context")
	}
	if _, err := NewConstancy(bitset.AttrSet(0), 60).Holds(enc); err == nil {
		t.Error("expected error for out-of-range attribute")
	}
	for _, p := range []Polarity{SameDirection, OppositeDirection} {
		if _, err := NewOrderCompatible(bitset.AttrSet(0), 0, 60, p).Holds(enc); err == nil {
			t.Errorf("%s: expected error for out-of-range pair attribute", p)
		}
	}
	if ok, err := NewConstancy(bitset.NewAttrSet(1), 1).Holds(enc); err != nil || !ok {
		t.Error("trivial OD must hold")
	}
	if _, err := (OD{Context: bitset.AttrSet(0), Kind: canonical.Kind(9), A: 0}).Holds(enc); err == nil {
		t.Error("expected error for unknown kind")
	}
}

func TestDiscoverValidation(t *testing.T) {
	if _, err := DiscoverContext(t.Context(), nil, lattice.Config{}); err == nil {
		t.Error("nil relation must be rejected")
	}
	if _, err := DiscoverContext(t.Context(), &relation.Encoded{}, lattice.Config{}); err == nil {
		t.Error("empty relation must be rejected")
	}
}

func TestDiscoverOpposingColumns(t *testing.T) {
	enc := opposing(t, 30)
	res, err := DiscoverContext(t.Context(), enc, lattice.Config{})
	if err != nil {
		t.Fatal(err)
	}
	foundOpposite := false
	foundSame := false
	for _, od := range res.ODs {
		if od.Kind != canonical.OrderCompatible {
			continue
		}
		if od.A == 0 && od.B == 1 && od.Context.IsEmpty() {
			if od.Polarity == OppositeDirection {
				foundOpposite = true
			} else {
				foundSame = true
			}
		}
	}
	if !foundOpposite {
		t.Error("expected {}: a ~ b (opposite) to be discovered")
	}
	if foundSame {
		t.Error("{}: a ~ b (same) must not be discovered for opposing columns")
	}
	if res.Stats.NodesVisited == 0 {
		t.Error("stats not recorded")
	}
}

// TestDiscoverSameDirectionSubsumesUnidirectional: the bidirectional
// output's constancy and SameDirection ODs are exactly the unidirectional
// minimal ODs (same contexts), and everything it reports holds.
func TestDiscoverSameDirectionSubsumesUnidirectional(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 10; trial++ {
		rel := datagen.RandomStructuredRelation(2+rng.Intn(16), 4, 3, rng.Int63())
		enc := encode(t, rel)
		uni, err := core.DiscoverContext(t.Context(), enc, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		bi, err := DiscoverContext(t.Context(), enc, lattice.Config{})
		if err != nil {
			t.Fatal(err)
		}
		var same []canonical.OD
		for _, od := range bi.ODs {
			// Everything reported must hold and be non-trivial.
			holds, err := od.Holds(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !holds || od.IsTrivial() {
				t.Fatalf("trial %d: invalid OD in bidirectional output: %v", trial, od)
			}
			if od.Kind == canonical.Constancy || od.Polarity == SameDirection {
				same = append(same, od.canonical())
			}
		}
		if !slices.Equal(same, uni.ODs) {
			t.Fatalf("trial %d: constancy and same-direction ODs %v\nwant the unidirectional %v", trial, same, uni.ODs)
		}
	}
}

func TestDiscoverMaxLevel(t *testing.T) {
	enc := encode(t, datagen.Employees())
	res, err := DiscoverContext(t.Context(), enc, lattice.Config{MaxLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, od := range res.ODs {
		if od.Context.Len() > 1 {
			t.Errorf("OD %v exceeds MaxLevel=2", od)
		}
	}
}

// differentialRelations builds the seeded datagen relations the differential
// suite runs over, mirroring internal/core/parallel_test.go (bidirectional
// discovery enumerates the full lattice, so the shapes are kept moderate).
func differentialRelations(t *testing.T) map[string]*relation.Encoded {
	t.Helper()
	rels := map[string]*relation.Relation{
		"flight-500x8":     datagen.FlightLike(500, 8, 2017),
		"ncvoter-400x6":    datagen.NCVoterLike(400, 6, 2017),
		"hepatitis-155x8":  datagen.HepatitisLike(155, 8, 2017),
		"random-200x5":     datagen.RandomRelation(200, 5, 4, 42),
		"structured-400x6": datagen.RandomStructuredRelation(400, 6, 3, 99),
	}
	out := make(map[string]*relation.Encoded, len(rels))
	for name, r := range rels {
		out[name] = encode(t, r)
	}
	return out
}

// TestParallelMatchesSequentialDifferential: a Workers=4 run must be
// indistinguishable from a Workers=1 run — same sorted OD list (kind,
// context, pair and polarity), same node counter — on every seeded dataset.
func TestParallelMatchesSequentialDifferential(t *testing.T) {
	for name, enc := range differentialRelations(t) {
		seq, err := DiscoverContext(t.Context(), enc, lattice.Config{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		par, err := DiscoverContext(t.Context(), enc, lattice.Config{Workers: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if par.Stats.NodesVisited != seq.Stats.NodesVisited {
			t.Errorf("%s: NodesVisited = %d, want %d", name, par.Stats.NodesVisited, seq.Stats.NodesVisited)
		}
		if len(par.ODs) != len(seq.ODs) {
			t.Fatalf("%s: %d ODs, want %d", name, len(par.ODs), len(seq.ODs))
		}
		for i := range seq.ODs {
			if par.ODs[i] != seq.ODs[i] {
				t.Fatalf("%s: OD %d = %v, want %v", name, i, par.ODs[i], seq.ODs[i])
			}
		}
	}
}

// TestParallelWorkerCounts sweeps worker counts on one dataset, including 0
// (GOMAXPROCS), oversubscription and the MaxLevel bound.
func TestParallelWorkerCounts(t *testing.T) {
	enc := encode(t, datagen.FlightLike(300, 6, 2017))
	for _, opts := range []lattice.Config{{}, {MaxLevel: 3}} {
		seqOpts := opts
		seqOpts.Workers = 1
		want, err := DiscoverContext(t.Context(), enc, seqOpts)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{0, 2, 8, 64, -3} {
			parOpts := opts
			parOpts.Workers = w
			got, err := DiscoverContext(t.Context(), enc, parOpts)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.ODs) != len(want.ODs) {
				t.Fatalf("workers=%d maxlevel=%d: %d ODs, want %d", w, opts.MaxLevel, len(got.ODs), len(want.ODs))
			}
			for i := range want.ODs {
				if got.ODs[i] != want.ODs[i] {
					t.Fatalf("workers=%d: OD %d = %v, want %v", w, i, got.ODs[i], want.ODs[i])
				}
			}
		}
	}
}
