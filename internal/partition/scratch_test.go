package partition

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomPartition builds the stripped partition of a random column with the
// given number of rows and approximate cardinality.
func randomPartition(rng *rand.Rand, rows, domain int) *Partition {
	vals := make([]int, rows)
	for i := range vals {
		vals[i] = rng.Intn(domain)
	}
	col, card := buildColumn(vals)
	return FromColumn(col, card)
}

// TestProductWithMatchesProduct reuses one scratch across many products of
// varying shapes — including relations of different sizes, which forces the
// workspace to grow mid-run — and checks every result against a product
// computed with a fresh workspace.
func TestProductWithMatchesProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	s := NewScratch()
	for trial := 0; trial < 200; trial++ {
		rows := 2 + rng.Intn(120)
		a := randomPartition(rng, rows, 1+rng.Intn(rows))
		b := randomPartition(rng, rows, 1+rng.Intn(rows))
		want := a.ProductWith(b, nil)
		got := a.ProductWith(b, s)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d rows): ProductWith = %v, want %v", trial, rows, got, want)
		}
		// The scratch probe must be back to all -1 so the next call is clean.
		for i, v := range s.probe {
			if v != -1 {
				t.Fatalf("trial %d: probe[%d] = %d after ProductWith, want -1", trial, i, v)
			}
		}
	}
}

func TestProductWithNilScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomPartition(rng, 40, 6)
	b := randomPartition(rng, 40, 6)
	if got, want := a.ProductWith(b, nil), a.ProductWith(b, NewScratch()); !reflect.DeepEqual(got, want) {
		t.Errorf("ProductWith(nil) = %v, ProductWith(NewScratch()) = %v", got, want)
	}
}

func TestProductWithMismatchedRowsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mismatched row counts")
		}
	}()
	FromConstant(3).ProductWith(FromConstant(4), NewScratch())
}

func TestProductWithIndependentResults(t *testing.T) {
	// Results must not alias the scratch: computing a second product may not
	// mutate the first result.
	rng := rand.New(rand.NewSource(11))
	s := NewScratch()
	a := randomPartition(rng, 60, 5)
	b := randomPartition(rng, 60, 7)
	c := randomPartition(rng, 60, 3)
	first := a.ProductWith(b, s)
	snapshot := first.Clone()
	_ = a.ProductWith(c, s)
	_ = b.ProductWith(c, s)
	if !reflect.DeepEqual(first, snapshot) {
		t.Error("later ProductWith calls mutated an earlier result")
	}
}
