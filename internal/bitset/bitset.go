// Package bitset provides the word-sized set types of the level-wise lattice
// algorithms (FASTOD, TANE). An AttrSet is a set of attributes held in one
// 64-bit word, so a relation schema is limited to 64 attributes, which covers
// the widest dataset in the paper's evaluation (flight, 40 attributes) with
// room to spare. A PairSet is a set of attribute pairs held as one AttrSet row
// per attribute. Neither type hashes or sorts: membership is a bit test, and
// iteration walks the bits in ascending order.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxAttrs is the maximum number of attributes an AttrSet can hold.
const MaxAttrs = 64

// AttrSet is a set of attribute indexes in [0, MaxAttrs), stored as a bitmask.
// The zero value is the empty set. AttrSet is a value type: all operations
// return new sets and never mutate the receiver.
type AttrSet uint64

// NewAttrSet builds a set containing the given attribute indexes.
// It panics if an index is out of range, since that is a programming error.
func NewAttrSet(attrs ...int) AttrSet {
	var s AttrSet
	for _, a := range attrs {
		s = s.Add(a)
	}
	return s
}

// Add returns the set with attribute a added.
func (s AttrSet) Add(a int) AttrSet {
	checkIndex(a)
	return s | (1 << uint(a))
}

// Remove returns the set with attribute a removed.
func (s AttrSet) Remove(a int) AttrSet {
	checkIndex(a)
	return s &^ (1 << uint(a))
}

// Contains reports whether attribute a is in the set.
func (s AttrSet) Contains(a int) bool {
	checkIndex(a)
	return s&(1<<uint(a)) != 0
}

// Union returns the union of s and t.
func (s AttrSet) Union(t AttrSet) AttrSet { return s | t }

// Intersect returns the intersection of s and t.
func (s AttrSet) Intersect(t AttrSet) AttrSet { return s & t }

// Diff returns s with all attributes of t removed.
func (s AttrSet) Diff(t AttrSet) AttrSet { return s &^ t }

// IsEmpty reports whether the set has no attributes.
func (s AttrSet) IsEmpty() bool { return s == 0 }

// Len returns the number of attributes in the set.
func (s AttrSet) Len() int { return bits.OnesCount64(uint64(s)) }

// IsSubsetOf reports whether every attribute of s is also in t.
func (s AttrSet) IsSubsetOf(t AttrSet) bool { return s&^t == 0 }

// Equal reports whether the two sets contain exactly the same attributes.
func (s AttrSet) Equal(t AttrSet) bool { return s == t }

// Attrs returns the attribute indexes in ascending order.
func (s AttrSet) Attrs() []int {
	out := make([]int, 0, s.Len())
	for v := uint64(s); v != 0; {
		a := bits.TrailingZeros64(v)
		out = append(out, a)
		v &^= 1 << uint(a)
	}
	return out
}

// ForEach calls fn for every attribute in ascending order.
func (s AttrSet) ForEach(fn func(a int)) {
	for v := uint64(s); v != 0; {
		a := bits.TrailingZeros64(v)
		fn(a)
		v &^= 1 << uint(a)
	}
}

// Rank returns the number of attributes in s smaller than a — the position of
// a in the ascending enumeration of s when a is a member. The lattice
// algorithms use it to index per-node dependency slices that are ordered by
// ascending removed attribute.
func (s AttrSet) Rank(a int) int {
	checkIndex(a)
	return bits.OnesCount64(uint64(s) & (1<<uint(a) - 1))
}

// Subsets returns every proper subset of s obtained by removing exactly one
// attribute, in ascending order of the removed attribute.
func (s AttrSet) Subsets() []AttrSet {
	out := make([]AttrSet, 0, s.Len())
	s.ForEach(func(a int) { out = append(out, s.Remove(a)) })
	return out
}

// String renders the set like {0,2,5} using attribute indexes.
func (s AttrSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(a int) {
		if !first {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", a)
		first = false
	})
	b.WriteByte('}')
	return b.String()
}

// Names renders the set like {A,C} using the provided attribute names,
// sorted by attribute index.
func (s AttrSet) Names(names []string) string {
	parts := make([]string, 0, s.Len())
	s.ForEach(func(a int) { parts = append(parts, Name(names, a)) })
	return "{" + strings.Join(parts, ",") + "}"
}

// Name returns attribute a's name, names[a], or "#a" when names has none
// for it: the one attribute-name lookup behind every rendering of a
// dependency over names.
func Name(names []string, a int) string {
	if a >= 0 && a < len(names) {
		return names[a]
	}
	return fmt.Sprintf("#%d", a)
}

// checkIndex guards the package's one invariant. The panic deliberately does
// not try to name a lattice node — this package sits below the lattice and
// cannot know one; the engine's recovery frames add that context
// (lattice.PanicContext) when the panic crosses a worker boundary.
func checkIndex(a int) {
	if a < 0 || a >= MaxAttrs {
		panic(fmt.Sprintf("bitset: attribute index %d out of range [0,%d)", a, MaxAttrs))
	}
}

// Pair is an unordered pair of distinct attributes {A,B}. It is normalized so
// that A < B, which makes it usable as a map key and comparable.
type Pair struct {
	A, B int
}

// NewPair returns the normalized pair for attributes a and b.
// It panics if a == b because canonical order-compatibility ODs are defined
// only over distinct attributes.
func NewPair(a, b int) Pair {
	checkIndex(a)
	checkIndex(b)
	if a == b {
		panic(fmt.Sprintf("bitset: pair requires distinct attributes, got %d twice", a))
	}
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// String renders the pair like (1,3).
func (p Pair) String() string { return fmt.Sprintf("(%d,%d)", p.A, p.B) }

// PairSet is a set of unordered attribute pairs over a schema of n
// attributes. It backs FASTOD's candidate sets C+s(X) as n bit rows: row A is
// the AttrSet of partners B > A with {A,B} in the set, so a pair lives at
// exactly one bit and the rows together form the strict upper triangle of an
// n×n bit matrix. Set algebra over pairs is word algebra over rows, and
// walking the rows in order and each row's bits in order yields the pairs in
// (A,B) order with no sort.
//
// Pairs outside the schema are never members: Add rejects them and SetRow
// drops them. The zero value is the empty set over no attributes. Copies of a
// PairSet share their rows.
type PairSet struct {
	rows []AttrSet
}

// NewPairSet returns an empty pair set over attributes [0, n).
// It panics if n is outside [0, MaxAttrs].
func NewPairSet(n int) PairSet {
	if n < 0 || n > MaxAttrs {
		panic(fmt.Sprintf("bitset: pair set width %d out of range [0,%d]", n, MaxAttrs))
	}
	return PairSet{rows: make([]AttrSet, n)}
}

// Add inserts the pair into the set. It panics if the pair lies outside the
// schema.
func (ps *PairSet) Add(p Pair) {
	if p.B >= len(ps.rows) {
		panic(fmt.Sprintf("bitset: pair %v outside a pair set of width %d", p, len(ps.rows)))
	}
	ps.rows[p.A] = ps.rows[p.A].Add(p.B)
}

// Remove deletes the pair from the set. Removing an absent pair is a no-op.
func (ps *PairSet) Remove(p Pair) { ps.rows[p.A] = ps.rows[p.A].Remove(p.B) }

// Contains reports whether the pair is in the set.
func (ps *PairSet) Contains(p Pair) bool { return ps.rows[p.A].Contains(p.B) }

// Row returns the partners B > a paired with a in the set.
func (ps *PairSet) Row(a int) AttrSet { return ps.rows[a] }

// SetRow replaces the partners of a with the members of r that are greater
// than a and inside the schema. Members at or below a are dropped, since
// their pairs live in lower rows.
func (ps *PairSet) SetRow(a int, r AttrSet) {
	ps.rows[a] = r &^ (2<<uint(a) - 1) & (1<<uint(len(ps.rows)) - 1)
}

// Len returns the number of pairs in the set.
func (ps *PairSet) Len() int {
	n := 0
	for _, r := range ps.rows {
		n += r.Len()
	}
	return n
}

// IsEmpty reports whether the set has no pairs.
func (ps *PairSet) IsEmpty() bool {
	for _, r := range ps.rows {
		if r != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for every pair in (A,B) order. Each row is read once
// before its pairs are visited, so fn may remove the pair it is given.
func (ps *PairSet) ForEach(fn func(p Pair)) {
	for a, r := range ps.rows {
		r.ForEach(func(b int) { fn(Pair{A: a, B: b}) })
	}
}
