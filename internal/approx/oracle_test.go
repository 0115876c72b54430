package approx

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bitset"
	"repro/internal/canonical"
	"repro/internal/datagen"
	"repro/internal/lattice"
	"repro/internal/relation"
)

// bruteForceApprox is the approximate analogue of canonical.ReferenceDiscover:
// it computes ErrorOf for every non-trivial candidate in every context and
// keeps X: [] ↦ A when it meets the threshold and no proper subset context
// does, and X: A ~ B when it meets the threshold, no proper subset context
// does, and neither X: [] ↦ A nor X: [] ↦ B meets it (Propagate). The output
// is sorted like DiscoverContext's.
func bruteForceApprox(t *testing.T, enc *relation.Encoded, threshold float64) []Discovered {
	t.Helper()
	n := enc.NumCols()
	holds := func(od canonical.OD) (Error, bool) {
		e, err := ErrorOf(enc, od)
		if err != nil {
			t.Fatal(err)
		}
		return e, e.Rate <= threshold
	}
	held := make(map[canonical.OD]bool)
	errs := make(map[canonical.OD]Error)
	var contexts []bitset.AttrSet
	for mask := 0; mask < 1<<n; mask++ {
		ctx := bitset.AttrSet(mask)
		contexts = append(contexts, ctx)
		for a := 0; a < n; a++ {
			if ctx.Contains(a) {
				continue
			}
			od := canonical.NewConstancy(ctx, a)
			errs[od], held[od] = holds(od)
			for b := a + 1; b < n; b++ {
				if !ctx.Contains(b) {
					od := canonical.NewOrderCompatible(ctx, a, b)
					errs[od], held[od] = holds(od)
				}
			}
		}
	}
	// heldBelow walks every proper subset of the context, not only the
	// immediate ones, so the oracle does not lean on the error's
	// monotonicity.
	heldBelow := func(od canonical.OD) bool {
		for sub := od.Context; sub != 0; {
			sub = (sub - 1) & od.Context
			below := od
			below.Context = sub
			if held[below] {
				return true
			}
		}
		return false
	}
	var out []Discovered
	for _, ctx := range contexts {
		for a := 0; a < n; a++ {
			if od := canonical.NewConstancy(ctx, a); !ctx.Contains(a) && held[od] && !heldBelow(od) {
				out = append(out, Discovered{OD: od, Error: errs[od]})
			}
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if ctx.Contains(a) || ctx.Contains(b) {
					continue
				}
				od := canonical.NewOrderCompatible(ctx, a, b)
				if !held[od] || held[canonical.NewConstancy(ctx, a)] || held[canonical.NewConstancy(ctx, b)] || heldBelow(od) {
					continue
				}
				out = append(out, Discovered{OD: od, Error: errs[od]})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return canonical.Less(out[i].OD, out[j].OD) })
	return out
}

// TestDiscoverMatchesBruteForceAboveZero checks completeness and minimality
// at thresholds above 0, where exact discovery is no oracle: on up to 6
// columns and 32 rows, DiscoverContext at workers 1 and 4 must return
// exactly the brute-force set, with the same errors. Row counts run from 4 to
// 32, so some removal counts sit exactly on each threshold.
func TestDiscoverMatchesBruteForceAboveZero(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		rows, cols, seed := 4+rng.Intn(29), 2+rng.Intn(5), rng.Int63()
		var rel *relation.Relation
		switch trial % 3 {
		case 0:
			rel = datagen.RandomStructuredRelation(rows, cols, 2+rng.Intn(4), seed)
		case 1:
			rel = datagen.RandomRelation(rows, cols, 2+rng.Intn(3), seed)
		default:
			rel = datagen.MessyRelation(rows, cols, 0.3, seed)
		}
		enc := encode(t, rel)
		for _, threshold := range []float64{0, 0.05, 0.1, 0.25} {
			want := bruteForceApprox(t, enc, threshold)
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%d_%s/%v/w%d", trial, rel.Name, threshold, workers), func(t *testing.T) {
					res, err := DiscoverContext(t.Context(), enc, threshold, lattice.Config{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res.ODs, want) {
						t.Errorf("%d rows: got %v\nwant %v", enc.NumRows(), res.ODs, want)
					}
				})
			}
		}
	}
}
