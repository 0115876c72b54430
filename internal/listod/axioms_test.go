package listod

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relation"
)

// TestListAxiomsSoundness checks Figure 1's list-based axioms semantically:
// on random instances, whenever every premise holds the conclusion holds.
func TestListAxiomsSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	const cols = 4
	spec := func() Spec {
		n := rng.Intn(3)
		out := make(Spec, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, rng.Intn(cols))
		}
		return out
	}
	checked := map[string]int{}
	for trial := 0; trial < 300; trial++ {
		rel := datagen.RandomStructuredRelation(2+rng.Intn(14), cols, 3, rng.Int63())
		enc, err := relation.Encode(rel)
		if err != nil {
			t.Fatal(err)
		}
		axioms := []Axiom{
			Reflexivity(spec(), spec()),
			Prefix(spec(), spec(), spec()),
			Transitivity(spec(), spec(), spec()),
			NormalizationAxiom(spec(), spec(), spec(), spec()),
			Suffix(spec(), spec()),
		}
		for _, ax := range axioms {
			premisesHold, conclusionHolds := HoldsAxiom(enc, ax)
			if !premisesHold {
				continue
			}
			checked[ax.Name]++
			if !conclusionHolds {
				t.Fatalf("trial %d: axiom %s unsound: premises %v hold but conclusion %v fails",
					trial, ax.Name, ax.Premises, ax.Conclusion)
			}
		}
	}
	for _, name := range []string{"Reflexivity", "Prefix", "Transitivity", "Normalization", "Suffix"} {
		if checked[name] == 0 {
			t.Errorf("axiom %s was never exercised with satisfied premises", name)
		}
	}
}

// TestChainAxiomSoundness exercises the Chain axiom with single-attribute
// specifications, the shape used in the paper's examples.
func TestChainAxiomSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	const cols = 4
	exercised := 0
	for trial := 0; trial < 400 && exercised < 20; trial++ {
		rel := datagen.RandomStructuredRelation(2+rng.Intn(10), cols, 2, rng.Int63())
		enc, err := relation.Encode(rel)
		if err != nil {
			t.Fatal(err)
		}
		x := Spec{rng.Intn(cols)}
		y := Spec{rng.Intn(cols)}
		z := Spec{rng.Intn(cols)}
		premises, conclusion := ChainStep(x, []Spec{y}, z)
		all := true
		for _, pr := range premises {
			if !Holds(enc, pr[0].Left, pr[0].Right) || !Holds(enc, pr[1].Left, pr[1].Right) {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		exercised++
		if !Holds(enc, conclusion[0].Left, conclusion[0].Right) || !Holds(enc, conclusion[1].Left, conclusion[1].Right) {
			t.Fatalf("trial %d: Chain unsound for X=%v Y=%v Z=%v", trial, x, y, z)
		}
	}
	if exercised == 0 {
		t.Error("Chain axiom was never exercised with satisfied premises")
	}
}

func TestChainStepEmptyChain(t *testing.T) {
	premises, conclusion := ChainStep(Spec{0}, nil, Spec{1})
	if premises != nil {
		t.Errorf("empty chain should have no premises, got %v", premises)
	}
	if !slices.Equal(conclusion[0].Left, Spec{0, 1}) || !slices.Equal(conclusion[0].Right, Spec{1, 0}) {
		t.Errorf("conclusion = %v", conclusion)
	}
}

// TestTheorem7Correspondence spot-checks the completeness direction of
// Theorem 7 on instances: the list-based Suffix and Prefix conclusions are
// always implied by the canonical ODs of their premises, i.e. checking the
// premise through the set-based mapping and the conclusion through the
// list-based semantics agree. (The full equivalence is exercised by the
// canonical package's Theorem-5 tests; this keeps a cross-package witness.)
func TestTheorem7Correspondence(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 100; trial++ {
		rel := datagen.RandomStructuredRelation(2+rng.Intn(12), 3, 3, rng.Int63())
		enc, err := relation.Encode(rel)
		if err != nil {
			t.Fatal(err)
		}
		x := Spec{rng.Intn(3)}
		y := Spec{rng.Intn(3)}
		if !Holds(enc, x, y) {
			continue
		}
		// Suffix: X ↔ YX.
		if !Holds(enc, x, y.Concat(x)) || !Holds(enc, y.Concat(x), x) {
			t.Fatalf("trial %d: Suffix correspondence fails for X=%v Y=%v", trial, x, y)
		}
		// Prefix with Z = the remaining attribute.
		z := Spec{(x[0] + 1) % 3}
		if !Holds(enc, z.Concat(x), z.Concat(y)) {
			t.Fatalf("trial %d: Prefix correspondence fails for X=%v Y=%v Z=%v", trial, x, y, z)
		}
	}
}
