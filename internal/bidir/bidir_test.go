package bidir

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/bitset"
	"repro/internal/canonical"
	"repro/internal/core"
	"repro/internal/datagen"
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
	if Asc.String() != "asc" || Desc.String() != "desc" {
		t.Error("Direction.String incorrect")
	}
	if SameDirection.String() != "same" || OppositeDirection.String() != "opposite" {
		t.Error("Polarity.String incorrect")
	}
	s := Spec{{Attr: 0, Dir: Asc}, {Attr: 2, Dir: Desc}}
	if s.String() != "[0 asc,2 desc]" {
		t.Errorf("Spec.String = %q", s.String())
	}
	if s.Names([]string{"a", "b", "c"}) != "[a asc,c desc]" {
		t.Errorf("Spec.Names = %q", s.Names([]string{"a", "b", "c"}))
	}
	if (Spec{{Attr: 9}}).Names([]string{"a"}) != "[#9 asc]" {
		t.Error("Spec.Names out of range incorrect")
	}
}

func TestCompareWithDirections(t *testing.T) {
	enc := opposing(t, 10)
	// a ascending: row 0 before row 5.
	if Compare(enc, Spec{{Attr: 0, Dir: Asc}}, 0, 5) >= 0 {
		t.Error("ascending comparison wrong")
	}
	// a descending: row 5 before row 0.
	if Compare(enc, Spec{{Attr: 0, Dir: Desc}}, 0, 5) <= 0 {
		t.Error("descending comparison wrong")
	}
	// Equal projection on empty spec.
	if Compare(enc, Spec{}, 1, 2) != 0 {
		t.Error("empty spec comparison wrong")
	}
}

func TestHoldsBidirectional(t *testing.T) {
	enc := opposing(t, 20)
	aAsc := Spec{{Attr: 0, Dir: Asc}}
	bAsc := Spec{{Attr: 1, Dir: Asc}}
	bDesc := Spec{{Attr: 1, Dir: Desc}}

	// a ascending orders b descending (b falls as a rises).
	if !Holds(enc, aAsc, bDesc) {
		t.Error("[a asc] -> [b desc] should hold")
	}
	if Holds(enc, aAsc, bAsc) {
		t.Error("[a asc] -> [b asc] should not hold")
	}
	if !OrderCompatible(enc, aAsc, bDesc) {
		t.Error("[a asc] ~ [b desc] should hold")
	}
	if OrderCompatible(enc, aAsc, bAsc) {
		t.Error("[a asc] ~ [b asc] should not hold")
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
	if _, err := NewOrderCompatible(bitset.AttrSet(0), 0, 60, SameDirection).Holds(enc); err == nil {
		t.Error("expected error for out-of-range pair attribute")
	}
	if ok, err := NewConstancy(bitset.NewAttrSet(1), 1).Holds(enc); err != nil || !ok {
		t.Error("trivial OD must hold")
	}
	if _, err := (OD{Context: bitset.AttrSet(0), Kind: canonical.Kind(9), A: 0}).Holds(enc); err == nil {
		t.Error("expected error for unknown kind")
	}
}

func TestDiscoverValidation(t *testing.T) {
	if _, err := DiscoverContext(t.Context(), nil, Options{}); err == nil {
		t.Error("nil relation must be rejected")
	}
	if _, err := DiscoverContext(t.Context(), &relation.Encoded{}, Options{}); err == nil {
		t.Error("empty relation must be rejected")
	}
}

func TestDiscoverOpposingColumns(t *testing.T) {
	enc := opposing(t, 30)
	res, err := DiscoverContext(t.Context(), enc, Options{})
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
	if res.Elapsed <= 0 || res.Stats.NodesVisited == 0 {
		t.Error("stats not recorded")
	}
}

// TestDiscoverSameDirectionSubsumesUnidirectional: every unidirectional
// minimal order-compatibility OD appears in the bidirectional output with the
// SameDirection polarity (same contexts), and constancy ODs coincide exactly.
func TestDiscoverSameDirectionSubsumesUnidirectional(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 10; trial++ {
		rel := datagen.RandomStructuredRelation(2+rng.Intn(16), 4, 3, rng.Int63())
		enc := encode(t, rel)
		uni, err := core.DiscoverContext(t.Context(), enc, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		bi, err := DiscoverContext(t.Context(), enc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		biSet := make(map[OD]bool, len(bi.ODs))
		for _, od := range bi.ODs {
			biSet[od] = true
			// Everything reported must hold and be non-trivial.
			holds, err := od.Holds(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !holds || od.IsTrivial() {
				t.Fatalf("trial %d: invalid OD in bidirectional output: %v", trial, od)
			}
		}
		for _, od := range uni.ODs {
			var want OD
			if od.Kind == canonical.Constancy {
				want = NewConstancy(od.Context, od.A)
			} else {
				want = NewOrderCompatible(od.Context, od.A, od.B, SameDirection)
			}
			if !biSet[want] {
				t.Fatalf("trial %d: unidirectional OD %v missing from bidirectional output", trial, od)
			}
		}
	}
}

func TestDiscoverMaxLevel(t *testing.T) {
	enc := encode(t, datagen.Employees())
	res, err := DiscoverContext(t.Context(), enc, Options{MaxLevel: 2})
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
		seq, err := DiscoverContext(t.Context(), enc, Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		par, err := DiscoverContext(t.Context(), enc, Options{Workers: 4})
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
	for _, opts := range []Options{{}, {MaxLevel: 3}} {
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
