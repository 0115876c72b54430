// Package partition implements the partition machinery of Section 4.6 of the
// paper: equivalence-class partitions ΠX over attribute sets, stripped
// partitions Π*X (singleton classes removed), linear-time partition products,
// and the checks that validate canonical ODs within each class. All
// operations work on rank-encoded columns (see package relation), whose
// ranks are dense, so value comparisons are integer comparisons and per-rank
// tables are sized by the column's cardinality.
//
// Each kernel has one entry point; those that need a workspace take a
// *Scratch, or nil to allocate one:
//
//   - RefineWith, the product Π(X)·Π({B}) that discovery derives every
//     partition with, computed by splitting each class of Π*X by B's ranks;
//   - ProductWith, the general two-operand product;
//   - FindSplit, the check of X: [] ↦ A, which returns a split if any;
//   - HasSwapWith, the check of X: A ~ B: a scan of neighbouring rows, then
//     a sorted scan of each class;
//   - FindSwapWith, which returns a swap if any, from the sorted scan alone;
//   - ConstancyRemovals and SwapRemovals, the g3-style error counts.
//
// # Memory model
//
// A Partition is stored flat: one rows arena holding the row indexes of every
// stripped class back to back, plus a CSR-style offsets index delimiting the
// classes. A partition therefore costs exactly two backing arrays no matter
// how many classes it has, its classes are contiguous in memory (products and
// scans walk the arena cache-linearly), and its retained footprint is
// byte-exact: FootprintBytes reports it, and the lattice.PartitionStore
// charges entries with it.
//
// # Immutability
//
// Partitions are immutable after construction. Class returns a view into the
// shared arena — callers must not modify it. Every algorithm in this
// repository treats partitions as read-only, which is what allows one
// partition to be shared freely between worker goroutines and between
// discovery runs through a PartitionStore; use Clone for a private mutable
// copy (tests only).
//
// It also lets a product return an operand: RefineWith returns its receiver
// when no class splits or loses a row, and ProductWith its right operand. A
// PartitionStore may then file one partition under two attribute sets and
// charge its bytes under each, so its accounting overstates what it holds.
package partition

import "fmt"

// Partition is a stripped partition Π*X of the tuples of a relation with
// respect to some attribute set X: the list of equivalence classes of size at
// least two. Singleton classes are omitted because they can neither falsify a
// constancy OD X: [] ↦ A nor an order-compatibility OD X: A ~ B (Lemma 14).
type Partition struct {
	// NumRows is the total number of tuples in the underlying relation,
	// including those in the dropped singleton classes.
	NumRows int
	// rows is the arena: the row indexes of all stripped classes, class by
	// class, ascending within each class.
	rows []int32
	// offsets delimits the classes: class i is rows[offsets[i]:offsets[i+1]],
	// so len(offsets) is NumClasses()+1 (a single 0 for an empty partition).
	offsets []int32
}

// fromClasses builds a flat partition from materialized class slices. It is
// the bridge used by the naive oracles and in-package tests; the production
// constructors (FromColumn, FromConstant, RefineWith, ProductWith) emit into
// the flat buffers directly.
func fromClasses(numRows int, classes [][]int32) *Partition {
	size := 0
	for _, c := range classes {
		size += len(c)
	}
	p := &Partition{
		NumRows: numRows,
		rows:    make([]int32, 0, size),
		offsets: make([]int32, 1, len(classes)+1),
	}
	for _, c := range classes {
		p.rows = append(p.rows, c...)
		p.offsets = append(p.offsets, int32(len(p.rows)))
	}
	return p
}

// FromColumn builds the stripped partition of a single rank-encoded column.
// Because ranks are dense (0..cardinality-1), the grouping is a two-pass
// counting sort straight into the flat arena; the resulting classes are
// ordered by rank, so the partition of a single attribute doubles as the
// sorted partition τA of Section 4.6.
func FromColumn(col []int32, cardinality int) *Partition {
	if cardinality < 0 {
		cardinality = 0
	}
	counts := make([]int32, cardinality)
	for _, v := range col {
		if int(v) >= len(counts) {
			// Defensive growth: callers normally pass the true cardinality.
			// Grow geometrically so a caller that underestimates badly costs
			// O(log max-rank) regrows, not one per out-of-range rank.
			counts = growInt32(counts, int(v)+1)
		}
		counts[v]++
	}
	size, numClasses := 0, 0
	for _, c := range counts {
		if c >= 2 {
			size += int(c)
			numClasses++
		}
	}
	p := &Partition{
		NumRows: len(col),
		rows:    make([]int32, size),
		offsets: make([]int32, numClasses+1),
	}
	// Rewrite counts[v] into the arena write cursor of v's class (-1 for
	// singleton ranks), recording class start offsets along the way.
	pos, ci := int32(0), 0
	for v, c := range counts {
		if c >= 2 {
			p.offsets[ci] = pos
			ci++
			counts[v] = pos
			pos += c
		} else {
			counts[v] = -1
		}
	}
	p.offsets[numClasses] = pos
	for row, v := range col {
		cur := counts[v]
		if cur < 0 {
			continue
		}
		p.rows[cur] = int32(row)
		counts[v] = cur + 1
	}
	return p
}

// growInt32 returns a zero-extended copy of s with room for at least need
// elements, at least doubling the length so repeated growth amortizes.
func growInt32(s []int32, need int) []int32 {
	newLen := 2 * len(s)
	if newLen < need {
		newLen = need
	}
	if newLen < 4 {
		newLen = 4
	}
	grown := make([]int32, newLen)
	copy(grown, s)
	return grown
}

// FromConstant returns the partition for the empty attribute set: all tuples
// fall into one equivalence class.
func FromConstant(numRows int) *Partition {
	p := &Partition{NumRows: numRows, offsets: []int32{0}}
	if numRows >= 2 {
		p.rows = make([]int32, numRows)
		for i := range p.rows {
			p.rows[i] = int32(i)
		}
		p.offsets = append(p.offsets, int32(numRows))
	}
	return p
}

// NumClasses returns the number of stripped (size >= 2) classes.
func (p *Partition) NumClasses() int {
	if len(p.offsets) == 0 {
		return 0
	}
	return len(p.offsets) - 1
}

// Class returns the i-th stripped class: row indexes in ascending order. The
// returned slice is a view into the partition's arena and must be treated as
// read-only.
func (p *Partition) Class(i int) []int32 {
	return p.rows[p.offsets[i]:p.offsets[i+1]]
}

// ForEachClass calls fn once per stripped class, in class order. The slice
// passed to fn is a read-only view into the arena, valid only for the call.
func (p *Partition) ForEachClass(fn func(cls []int32)) {
	for i, n := 0, p.NumClasses(); i < n; i++ {
		fn(p.Class(i))
	}
}

// Size returns the total number of tuples contained in stripped classes.
func (p *Partition) Size() int { return len(p.rows) }

// FootprintBytes returns the exact number of bytes the partition retains for
// class data: the rows arena plus the class-offset index (4 bytes per entry).
// It is the unit the lattice.PartitionStore charges cached entries with.
func (p *Partition) FootprintBytes() int { return 4 * (len(p.rows) + len(p.offsets)) }

// Error returns e(ΠX) = ||Π*X|| - |Π*X|, the number of tuples that would have
// to be removed to make X a superkey. For partitions over the same relation,
// the FD X → A holds iff Error(ΠX) == Error(ΠXA) (the TANE criterion), because
// ΠXA refines ΠX.
func (p *Partition) Error() int { return p.Size() - p.NumClasses() }

// IsSuperkey reports whether X is a superkey: every equivalence class is a
// singleton, i.e. the stripped partition is empty.
func (p *Partition) IsSuperkey() bool { return len(p.rows) == 0 }

// Clone returns a deep copy of the partition with its own arena.
func (p *Partition) Clone() *Partition {
	out := &Partition{
		NumRows: p.NumRows,
		rows:    make([]int32, len(p.rows)),
		offsets: make([]int32, len(p.offsets)),
	}
	copy(out.rows, p.rows)
	copy(out.offsets, p.offsets)
	return out
}

// String summarizes the partition for diagnostics.
func (p *Partition) String() string {
	return fmt.Sprintf("Partition{rows=%d classes=%d size=%d}", p.NumRows, p.NumClasses(), p.Size())
}

// Refines reports whether p refines q: every class of p is contained in some
// class of q. Both must be partitions over the same relation. Singleton
// classes trivially refine anything, so only stripped classes are checked.
func (p *Partition) Refines(q *Partition) bool {
	if p.NumRows != q.NumRows {
		return false
	}
	probe := make([]int32, q.NumRows)
	for i := range probe {
		probe[i] = -1
	}
	for ci, n := 0, q.NumClasses(); ci < n; ci++ {
		for _, row := range q.Class(ci) {
			probe[row] = int32(ci)
		}
	}
	for ci, n := 0, p.NumClasses(); ci < n; ci++ {
		cls := p.Class(ci)
		want := probe[cls[0]]
		if want < 0 {
			return false
		}
		for _, row := range cls[1:] {
			if probe[row] != want {
				return false
			}
		}
	}
	return true
}

// SplitWitness identifies a pair of rows that agree on the context X but
// disagree on attribute A — a "split" in the sense of Definition 4, i.e. a
// violation of the FD X → A (equivalently of the canonical OD X: [] ↦ A).
type SplitWitness struct {
	RowS, RowT int
}

// FindSplit returns a witness pair for a violation of X: [] ↦ A within the
// context partition, if one exists: the first class, in class order, in
// which attribute col (rank-encoded) is not constant, its first row and the
// first row that differs from it on col. The canonical OD X: [] ↦ A holds,
// where the receiver is Π*X, exactly when there is none. Singleton classes
// are trivially constant and are not present in a stripped partition.
func (p *Partition) FindSplit(col []int32) (SplitWitness, bool) {
	for ci, n := 0, p.NumClasses(); ci < n; ci++ {
		cls := p.Class(ci)
		first := col[cls[0]]
		for _, row := range cls[1:] {
			if col[row] != first {
				return SplitWitness{RowS: int(cls[0]), RowT: int(row)}, true
			}
		}
	}
	return SplitWitness{}, false
}
