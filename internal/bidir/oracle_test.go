package bidir

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

// referenceBidir builds bidir's expected output from canonical's exact
// reference discovery. Constancy and same-direction ODs are the reference's
// ODs on the default encoding. The opposite-direction ODs on {A, B}, A < B,
// are the reference's order-compatibility ODs on that pair in an encoding
// where B alone sorts DESC NULLS LAST, the exact reverse of its default
// (ascending, NULLs first). Equality, and so constancy, is the same in every
// encoding, so the reference's Propagate rule agrees with bidir's.
func referenceBidir(t *testing.T, rel *relation.Relation) []OD {
	t.Helper()
	discover := func(spec relation.OrderSpec) []canonical.OD {
		enc, err := relation.EncodeSpec(rel, spec)
		if err != nil {
			t.Fatal(err)
		}
		ods, err := canonical.ReferenceDiscover(enc)
		if err != nil {
			t.Fatal(err)
		}
		return ods
	}
	var out []OD
	for _, od := range discover(nil) {
		if od.Kind == canonical.Constancy {
			out = append(out, NewConstancy(od.Context, od.A))
		} else {
			out = append(out, NewOrderCompatible(od.Context, od.A, od.B, SameDirection))
		}
	}
	n := rel.NumCols()
	for b := 1; b < n; b++ {
		spec := make(relation.OrderSpec, n)
		spec[b] = relation.ColumnOrder{Direction: relation.Desc, Nulls: relation.NullsLast}
		for _, od := range discover(spec) {
			if od.Kind == canonical.OrderCompatible && od.B == b {
				out = append(out, NewOrderCompatible(od.Context, od.A, od.B, OppositeDirection))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		x, y := out[i], out[j]
		cx := canonical.OD{Context: x.Context, Kind: x.Kind, A: x.A, B: x.B}
		cy := canonical.OD{Context: y.Context, Kind: y.Kind, A: y.A, B: y.B}
		if cx != cy {
			return canonical.Less(cx, cy)
		}
		return x.Polarity < y.Polarity
	})
	return out
}

// TestDiscoverMatchesReferenceOracle: on up to 6 columns and 32 rows,
// random, structured and NULL-dense messy relations, DiscoverContext at
// workers 1 and 4 returns exactly the reference oracle's ODs, in its order.
func TestDiscoverMatchesReferenceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		rel := oracleRelation(rng, trial, 6)
		want := referenceBidir(t, rel)
		enc := encode(t, rel)
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%d_%s/w%d", trial, rel.Name, workers), func(t *testing.T) {
				res, err := DiscoverContext(t.Context(), enc, lattice.Config{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.ODs, want) {
					t.Errorf("%d rows: got %v\nwant %v", rel.NumRows(), res.ODs, want)
				}
			})
		}
	}
}

// oracleRelation draws the oracle tests' inputs: up to 32 rows and maxCols
// columns, rotating through random, structured and NULL-dense messy
// relations.
func oracleRelation(rng *rand.Rand, trial, maxCols int) *relation.Relation {
	rows, cols, seed := 1+rng.Intn(32), 2+rng.Intn(maxCols-1), rng.Int63()
	switch trial % 3 {
	case 0:
		return datagen.RandomStructuredRelation(rows, cols, 2+rng.Intn(4), seed)
	case 1:
		return datagen.RandomRelation(rows, cols, 2+rng.Intn(3), seed)
	default:
		return datagen.MessyRelation(rows, cols, 0.3, seed)
	}
}

// TestODHoldsMatchesReferenceEncoding: OD.Holds in each polarity equals
// canonical.Holds on the encoding the polarity stands for — the default one
// for SameDirection, B alone DESC NULLS LAST for OppositeDirection — for
// every pair and context, on full relations and on HeadRows views, whose
// ranks are re-ranked from their parent's.
func TestODHoldsMatchesReferenceEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		rel := oracleRelation(rng, trial, 5)
		enc := encode(t, rel)
		if trial%2 == 1 {
			n := 1 + rng.Intn(rel.NumRows())
			rel, enc = rel.Head(n), enc.HeadRows(n)
		}
		n := rel.NumCols()
		for b := 1; b < n; b++ {
			spec := make(relation.OrderSpec, n)
			spec[b] = relation.ColumnOrder{Direction: relation.Desc, Nulls: relation.NullsLast}
			desc, err := relation.EncodeSpec(rel, spec)
			if err != nil {
				t.Fatal(err)
			}
			for a := 0; a < b; a++ {
				for ctx := bitset.AttrSet(0); ctx < bitset.AttrSet(1)<<n; ctx++ {
					od := canonical.NewOrderCompatible(ctx, a, b)
					for p, ref := range []*relation.Encoded{enc, desc} {
						got, err := NewOrderCompatible(ctx, a, b, Polarity(p)).Holds(enc)
						if err != nil {
							t.Fatal(err)
						}
						if want := canonical.MustHold(ref, od); got != want {
							t.Fatalf("trial %d (%s, %d rows): %v %s = %v, want %v",
								trial, rel.Name, enc.NumRows(), od, Polarity(p), got, want)
						}
					}
				}
			}
		}
	}
}
