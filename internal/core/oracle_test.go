package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/canonical"
	"repro/internal/datagen"
	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/tane"
)

// Oracle tests: FASTOD's output is cross-checked against two independent
// implementations — the TANE baseline for the constancy (FD) fragment, and a
// tiny brute-force row-pair checker for the full canonical-OD semantics.
// Discovery runs with Workers: 4 so the oracles also vouch for the parallel
// engine.

// bruteConstancyHolds checks X: [] ↦ A by definition: every pair of rows that
// agrees on all attributes of ctx must agree on a.
func bruteConstancyHolds(enc *relation.Encoded, ctx bitset.AttrSet, a int) bool {
	n := enc.NumRows()
	col := enc.Column(a)
	for s := 0; s < n; s++ {
		for t := s + 1; t < n; t++ {
			if rowsAgreeOn(enc, ctx, s, t) && col[s] != col[t] {
				return false
			}
		}
	}
	return true
}

// bruteOrderCompatHolds checks X: A ~ B by definition: no pair of rows that
// agrees on ctx may order one way on A and the opposite way on B (a swap).
func bruteOrderCompatHolds(enc *relation.Encoded, ctx bitset.AttrSet, a, b int) bool {
	n := enc.NumRows()
	colA, colB := enc.Column(a), enc.Column(b)
	for s := 0; s < n; s++ {
		for t := s + 1; t < n; t++ {
			if !rowsAgreeOn(enc, ctx, s, t) {
				continue
			}
			da := int(colA[s]) - int(colA[t])
			db := int(colB[s]) - int(colB[t])
			if (da < 0 && db > 0) || (da > 0 && db < 0) {
				return false
			}
		}
	}
	return true
}

func rowsAgreeOn(enc *relation.Encoded, ctx bitset.AttrSet, s, t int) bool {
	agree := true
	ctx.ForEach(func(c int) {
		if agree && enc.Column(c)[s] != enc.Column(c)[t] {
			agree = false
		}
	})
	return agree
}

// bruteHolds dispatches a canonical OD to the row-pair checkers.
func bruteHolds(enc *relation.Encoded, od canonical.OD) bool {
	if od.Kind == canonical.Constancy {
		return bruteConstancyHolds(enc, od.Context, od.A)
	}
	return bruteOrderCompatHolds(enc, od.Context, od.A, od.B)
}

// oracleRelations are small random instances (≤ 6 columns) so the quadratic
// brute force and the exponential context enumeration stay cheap.
func oracleRelations(t *testing.T) []*relation.Encoded {
	t.Helper()
	rng := rand.New(rand.NewSource(2017))
	var out []*relation.Encoded
	for trial := 0; trial < 12; trial++ {
		rows := 5 + rng.Intn(25)
		cols := 2 + rng.Intn(5) // up to 6 attributes
		var rel *relation.Relation
		if trial%2 == 0 {
			rel = datagen.RandomRelation(rows, cols, 2+rng.Intn(4), rng.Int63())
		} else {
			rel = datagen.RandomStructuredRelation(rows, cols, 3, rng.Int63())
		}
		out = append(out, encode(t, rel))
	}
	out = append(out,
		encode(t, datagen.Employees()),
		encode(t, datagen.FlightLike(40, 6, 5)),
	)
	return out
}

// TestOracleConstancyAgainstTANE: the constancy fragment of FASTOD's output
// must be exactly TANE's set of minimal functional dependencies — the two
// implementations share the lattice machinery but none of the OD-specific
// code, so agreement is strong evidence for both.
func TestOracleConstancyAgainstTANE(t *testing.T) {
	for i, enc := range oracleRelations(t) {
		res := discover(t, enc, Options{Workers: 4})
		tres, err := tane.DiscoverContext(t.Context(), enc, lattice.Config{})
		if err != nil {
			t.Fatalf("relation %d: tane: %v", i, err)
		}
		want := make(map[tane.FD]bool, len(tres.FDs))
		for _, fd := range tres.FDs {
			want[fd] = true
		}
		got := make(map[tane.FD]bool)
		for _, od := range res.ConstancyODs() {
			got[tane.FD{LHS: od.Context, RHS: od.A}] = true
		}
		for fd := range want {
			if !got[fd] {
				t.Errorf("relation %d: TANE FD %v missing from FASTOD constancy ODs", i, fd)
			}
		}
		for fd := range got {
			if !want[fd] {
				t.Errorf("relation %d: FASTOD constancy OD %v not reported by TANE", i, fd)
			}
		}
	}
}

// TestOracleAgainstBruteForce: every emitted OD must hold under the
// brute-force definition (soundness), and the implication cover of the output
// must decide every candidate canonical OD exactly as the brute force does
// (completeness).
func TestOracleAgainstBruteForce(t *testing.T) {
	for i, enc := range oracleRelations(t) {
		res := discover(t, enc, Options{Workers: 4})
		for _, od := range res.ODs {
			if !bruteHolds(enc, od) {
				t.Errorf("relation %d: emitted OD %v fails the brute-force check", i, od)
			}
		}
		cover := canonical.NewCover(res.ODs)
		n := enc.NumCols()
		for mask := 0; mask < 1<<uint(n); mask++ {
			ctx := bitset.AttrSet(mask)
			for a := 0; a < n; a++ {
				if ctx.Contains(a) {
					continue
				}
				od := canonical.NewConstancy(ctx, a)
				if bruteHolds(enc, od) != cover.Implies(od) {
					t.Fatalf("relation %d: constancy mismatch for %v: brute=%v cover=%v",
						i, od, bruteHolds(enc, od), cover.Implies(od))
				}
				for b := a + 1; b < n; b++ {
					if ctx.Contains(b) {
						continue
					}
					oc := canonical.NewOrderCompatible(ctx, a, b)
					if bruteHolds(enc, oc) != cover.Implies(oc) {
						t.Fatalf("relation %d: order-compat mismatch for %v: brute=%v cover=%v",
							i, oc, bruteHolds(enc, oc), cover.Implies(oc))
					}
				}
			}
		}
	}
}

// TestDiscoverMatchesReferenceAtWideWidths runs the reference oracle at the
// width of the repository benchmark's wide workload and beyond it. The other
// oracles in this package stop at 6 attributes, where no candidate-set row
// holds more than five partners. Each input runs at 1, 2 and 4 workers.
func TestDiscoverMatchesReferenceAtWideWidths(t *testing.T) {
	for _, tc := range []struct {
		name string
		rel  *relation.Relation
	}{
		{"hepatitis-like 155x13", datagen.HepatitisLike(155, 13, 16)},
		{"dbtesma-like 60x16", datagen.DBTesmaLike(60, 16, 16)},
	} {
		enc := encode(t, tc.rel)
		want, err := canonical.ReferenceDiscover(enc)
		if err != nil {
			t.Fatal(err)
		}
		ref := &Result{ODs: want, Counts: canonical.CountByKind(want)}
		for _, w := range []int{1, 2, 4} {
			got := discover(t, enc, Options{Workers: w})
			assertSameODs(t, fmt.Sprintf("%s, %d workers", tc.name, w), got, ref)
		}
	}
}
