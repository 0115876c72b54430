package partition

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// This file holds RefineWith to two references: the naive product oracle,
// by class equality, and the flat two-operand product, byte for byte, where
// the lattice relies on the two agreeing.

// refineColumn draws a column for a refinement: all-equal, all-distinct or
// skewed, with dense ranks.
func refineColumn(rng *rand.Rand, rows int) ([]int32, int) {
	switch rng.Intn(5) {
	case 0:
		return make([]int32, rows), 1
	case 1:
		col := make([]int32, rows)
		for i, v := range rng.Perm(rows) {
			col[i] = int32(v)
		}
		return col, rows
	default:
		return skewedColumn(rng, rows, 1+rng.Intn(rows), rng.Float64())
	}
}

// checkRefinement fails unless got, the refinement of p by col, has the
// classes of ProductNaive(p, FromColumn(col, card)), and equals byte for byte
// the product FromColumn(col, card).ProductWith(p): both list p's classes in
// order, each split by col's ranks in order of first appearance. It also
// checks that s's key table is all zero again.
func checkRefinement(t *testing.T, label string, p, got *Partition, col []int32, card int, s *Scratch) {
	t.Helper()
	byCol := FromColumn(col, card)
	if want := ProductNaive(p, byCol); got.NumRows != want.NumRows || !reflect.DeepEqual(canonClasses(got), canonClasses(want)) {
		t.Fatalf("%s: RefineWith classes = %v, want %v", label, canonClasses(got), canonClasses(want))
	}
	if want := byCol.ProductWith(p, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: RefineWith = %v %v, ProductWith of the column's partition = %v %v",
			label, got.rows, got.offsets, want.rows, want.offsets)
	}
	if i := slices.IndexFunc(s.count, func(v int32) bool { return v != 0 }); i >= 0 {
		t.Fatalf("%s: key table slot %d = %d after the call, want 0", label, i, s.count[i])
	}
}

// TestRefineWithMatchesNaiveProduct refines chains of up to four columns,
// so most parents are themselves refinements, on skewed, all-equal and
// all-distinct columns, reusing one scratch across every trial and
// relation size.
func TestRefineWithMatchesNaiveProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	s := NewScratch()
	for trial := range 300 {
		rows := 1 + rng.Intn(200)
		p := FromConstant(rows)
		if rng.Intn(2) == 0 {
			p = FromColumn(refineColumn(rng, rows))
		}
		for depth := range 1 + rng.Intn(4) {
			col, card := refineColumn(rng, rows)
			got := p.RefineWith(col, card, s)
			checkRefinement(t, fmt.Sprintf("trial %d depth %d (%d rows)", trial, depth, rows), p, got, col, card, s)
			p = got
		}
	}
}

// TestRefineWithReproducesJoinProduct pins the identity the lattice's level
// generation rests on: for distinct attributes B and C of X,
// Π(X\B).RefineWith(B) equals Π(X\C).ProductWith(Π(X\B)) byte for byte,
// rows and offsets. The two parents are built by random chains of products
// and refinements, so their own class orders vary.
func TestRefineWithReproducesJoinProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewScratch()
	for trial := range 300 {
		rows := 2 + rng.Intn(150)
		width := 2 + rng.Intn(4)
		cols, cards := make([][]int32, width), make([]int, width)
		for a := range cols {
			cols[a], cards[a] = refineColumn(rng, rows)
		}
		without := func(skip int) *Partition {
			p := FromConstant(rows)
			for _, a := range rng.Perm(width) {
				switch {
				case a == skip:
				case rng.Intn(2) == 0:
					p = p.RefineWith(cols[a], cards[a], s)
				default:
					p = p.ProductWith(FromColumn(cols[a], cards[a]), s)
				}
			}
			return p
		}
		b := rng.Intn(width)
		c := (b + 1 + rng.Intn(width-1)) % width
		pb, pc := without(b), without(c)
		if got, want := pb.RefineWith(cols[b], cards[b], s), pc.ProductWith(pb, s); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d rows, B=%d, C=%d): Π(X\\B).RefineWith(B) = %v %v, Π(X\\C)·Π(X\\B) = %v %v",
				trial, rows, b, c, got.rows, got.offsets, want.rows, want.offsets)
		}
	}
}

func TestRefineWithSuperkeyAndMismatch(t *testing.T) {
	col, card := buildColumn([]int{4, 1, 4, 2})
	key := FromColumn([]int32{0, 1, 2, 3}, 4)
	got := key.RefineWith(col, card, nil)
	if !got.IsSuperkey() || got.NumRows != 4 || !reflect.DeepEqual(got, key.ProductWith(FromColumn(col, card), nil)) {
		t.Errorf("refining a superkey = %v, want the empty partition of 4 rows", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("a column of the wrong length must panic")
		}
	}()
	FromConstant(3).RefineWith(col, card, NewScratch())
}

// TestRefineWithUnsplitReturnsReceiver pins the fast path: refining by a
// column that is constant within every class, or refining a superkey,
// returns the receiver and allocates nothing once the scratch is warm. So
// does a product whose right operand no class of the left one splits.
func TestRefineWithUnsplitReturnsReceiver(t *testing.T) {
	coarse, card := buildColumn([]int{3, 1, 3, 2, 1, 3, 7, 1, 2, 5})
	// fine is a function of coarse, with one value shared by two classes.
	fine, fineCard := buildColumn([]int{0, 4, 0, 9, 4, 0, 6, 4, 9, 0})
	p := FromColumn(coarse, card)
	s := NewScratch()
	cases := []struct {
		name string
		recv *Partition
		col  []int32
		card int
	}{
		{"constant within classes", p, fine, fineCard},
		{"refined by itself", p, coarse, card},
		{"superkey", FromColumn([]int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 10), coarse, card},
	}
	for _, tc := range cases {
		if got := tc.recv.RefineWith(tc.col, tc.card, s); got != tc.recv {
			t.Errorf("%s: RefineWith = %v, want its receiver", tc.name, got)
		}
		if allocs := testing.AllocsPerRun(20, func() { tc.recv.RefineWith(tc.col, tc.card, s) }); allocs != 0 {
			t.Errorf("%s: RefineWith allocated %v times, want 0", tc.name, allocs)
		}
	}
	if got := FromColumn(fine, fineCard).ProductWith(p, s); got != p {
		t.Errorf("Π(fine)·Π(coarse) = %v, want Π(coarse) itself", got)
	}
}

// FuzzRefineWith checks chains of refinements on small relations with
// checkRefinement. shape's low two bits give the chain length (1–4 columns)
// and the next three the rank range (1–8). cells holds the relation row by
// row, one byte per cell: a byte below 96 is rank 0, where NULL sorts by
// default, so the columns are NULL-dense; any other byte is reduced modulo
// the range. At most 64 whole rows are used.
//
// Beyond the two generic seeds, three reach split's shortcuts at rank range
// 8, where 'a'..'g' are ranks 1..7 and '0' is rank 0: two-row classes that
// keep or split, a link that splits no class followed by one whose first
// change comes after a class passed through whole, and a chain of four
// columns none of which splits anything after the first.
func FuzzRefineWith(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(0b11101), []byte("\x00\xff\x61\x62\x00\x00\x63\x64\xff\xfe\x61\x61\x00\x62\x70\x71"))
	f.Add(uint8(1|7<<2), []byte("aa"+"aa"+"ba"+"bb"+"c0"+"c0"+"d0"+"da"))
	f.Add(uint8(2|7<<2), []byte("aef"+"aef"+"aef"+"b0f"+"b0g"+"b0f"+"ceg"+"ceg"))
	f.Add(uint8(3|7<<2), []byte("ac0a"+"ac0a"+"bd0b"+"bd0b"+"bd0b"+"gf0g"+"0e00"+"0e00"))
	f.Fuzz(func(t *testing.T, shape uint8, cells []byte) {
		width := 1 + int(shape&3)
		span := 1 + int(shape>>2&7)
		rows := min(len(cells)/width, 64)
		s := NewScratch()
		p := FromConstant(rows)
		for c := range width {
			col := make([]int32, rows)
			for r := range rows {
				if v := cells[r*width+c]; v >= 96 {
					col[r] = int32(int(v) % span)
				}
			}
			got := p.RefineWith(col, span, s)
			checkRefinement(t, fmt.Sprintf("%d rows, column %d of %d", rows, c, width), p, got, col, span, s)
			p = got
		}
	})
}
