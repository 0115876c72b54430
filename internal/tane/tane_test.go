package tane

import (
	"math/rand"
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

func TestDiscoverValidation(t *testing.T) {
	if _, err := DiscoverContext(t.Context(), nil, lattice.Config{}); err == nil {
		t.Error("nil relation must be rejected")
	}
	if _, err := DiscoverContext(t.Context(), &relation.Encoded{}, lattice.Config{}); err == nil {
		t.Error("empty relation must be rejected")
	}
}

func TestFDStrings(t *testing.T) {
	fd := FD{LHS: bitset.NewAttrSet(0, 2), RHS: 1}
	if fd.String() != "{0,2} -> 1" {
		t.Errorf("String = %q", fd.String())
	}
	if fd.NamesString([]string{"a", "b", "c"}) != "{a,c} -> b" {
		t.Errorf("NamesString = %q", fd.NamesString([]string{"a", "b", "c"}))
	}
	if (FD{LHS: bitset.AttrSet(0), RHS: 9}).NamesString([]string{"a"}) != "{} -> #9" {
		t.Error("NamesString out of range incorrect")
	}
}

func TestDiscoverTable1FDs(t *testing.T) {
	enc := encode(t, datagen.Employees())
	idx := map[string]int{}
	for i, n := range enc.ColumnNames {
		idx[n] = i
	}
	res, err := DiscoverContext(t.Context(), enc, lattice.Config{})
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if len(res.FDs) == 0 {
		t.Fatal("expected FDs on Table 1")
	}
	has := func(lhs bitset.AttrSet, rhs int) bool {
		for _, fd := range res.FDs {
			if fd.LHS.IsSubsetOf(lhs) && fd.RHS == rhs {
				return true
			}
		}
		return false
	}
	// salary -> tax, salary -> percentage hold (Lemma 1 applied to Example 1).
	if !has(bitset.NewAttrSet(idx["sal"]), idx["tax"]) {
		t.Error("sal -> tax missing")
	}
	if !has(bitset.NewAttrSet(idx["sal"]), idx["perc"]) {
		t.Error("sal -> perc missing")
	}
	// position does not determine salary.
	for _, fd := range res.FDs {
		if fd.LHS.Equal(bitset.NewAttrSet(idx["posit"])) && fd.RHS == idx["sal"] {
			t.Error("posit -> sal must not be reported")
		}
	}
	if res.Stats.NodesVisited == 0 {
		t.Error("stats not recorded")
	}
}

// TestTANEMatchesFASTODFDs: the FD fragment of FASTOD's output (constancy ODs)
// must coincide with TANE's minimal FDs — Experiment 4's premise that the FD
// counts of the two algorithms agree.
func TestTANEMatchesFASTODFDs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		rel := datagen.RandomStructuredRelation(2+rng.Intn(20), 2+rng.Intn(4), 3, rng.Int63())
		enc := encode(t, rel)

		taneRes, err := DiscoverContext(t.Context(), enc, lattice.Config{})
		if err != nil {
			t.Fatal(err)
		}
		fastodRes, err := core.DiscoverContext(t.Context(), enc, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fastodFDs := fastodRes.ConstancyODs()
		if len(taneRes.FDs) != len(fastodFDs) {
			t.Fatalf("trial %d: TANE found %d FDs, FASTOD found %d constancy ODs\nTANE: %v\nFASTOD: %v",
				trial, len(taneRes.FDs), len(fastodFDs), taneRes.FDs, fastodFDs)
		}
		for i, fd := range taneRes.FDs {
			want := canonical.NewConstancy(fd.LHS, fd.RHS)
			if !fastodFDs[i].Equal(want) {
				t.Fatalf("trial %d: FD %d mismatch: TANE %v, FASTOD %v", trial, i, want, fastodFDs[i])
			}
		}
	}
}

func TestDiscoverMaxLevel(t *testing.T) {
	enc := encode(t, datagen.Employees())
	res, err := DiscoverContext(t.Context(), enc, lattice.Config{MaxLevel: 2})
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	for _, fd := range res.FDs {
		if fd.LHS.Len() > 1 {
			t.Errorf("FD %v exceeds MaxLevel=2", fd)
		}
	}
}

func TestDiscoverKeyRelation(t *testing.T) {
	// A relation whose first column is a key: every other attribute is
	// determined by it, and minimality keeps the LHS at the key column alone.
	rel := datagen.DBTesmaLike(50, 5, 3)
	enc := encode(t, rel)
	res, err := DiscoverContext(t.Context(), enc, lattice.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cover := map[int]bool{}
	for _, fd := range res.FDs {
		if fd.LHS.Equal(bitset.NewAttrSet(0)) {
			cover[fd.RHS] = true
		}
	}
	for a := 1; a < enc.NumCols(); a++ {
		if !cover[a] {
			t.Errorf("pk -> column %d missing", a)
		}
	}
}

// differentialRelations builds the seeded datagen relations the differential
// suite runs over, mirroring internal/core/parallel_test.go: varying row
// counts, column counts and cardinality profiles.
func differentialRelations(t *testing.T) map[string]*relation.Encoded {
	t.Helper()
	rels := map[string]*relation.Relation{
		"flight-2000x8":    datagen.FlightLike(2000, 8, 2017),
		"flight-300x10":    datagen.FlightLike(300, 10, 7),
		"ncvoter-1000x6":   datagen.NCVoterLike(1000, 6, 2017),
		"hepatitis-155x8":  datagen.HepatitisLike(155, 8, 2017),
		"dbtesma-500x8":    datagen.DBTesmaLike(500, 8, 2017),
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
// indistinguishable from a Workers=1 run — same sorted FD list, same node
// counter — on every seeded dataset.
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
		if len(par.FDs) != len(seq.FDs) {
			t.Fatalf("%s: %d FDs, want %d", name, len(par.FDs), len(seq.FDs))
		}
		for i := range seq.FDs {
			if par.FDs[i] != seq.FDs[i] {
				t.Fatalf("%s: FD %d = %v, want %v", name, i, par.FDs[i], seq.FDs[i])
			}
		}
	}
}

// TestParallelWorkerCounts sweeps worker counts, including 0 (GOMAXPROCS),
// counts exceeding the number of lattice nodes per level, and MaxLevel.
func TestParallelWorkerCounts(t *testing.T) {
	enc := encode(t, datagen.FlightLike(500, 8, 2017))
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
			if len(got.FDs) != len(want.FDs) {
				t.Fatalf("workers=%d maxlevel=%d: %d FDs, want %d", w, opts.MaxLevel, len(got.FDs), len(want.FDs))
			}
			for i := range want.FDs {
				if got.FDs[i] != want.FDs[i] {
					t.Fatalf("workers=%d: FD %d = %v, want %v", w, i, got.FDs[i], want.FDs[i])
				}
			}
		}
	}
}
