package partition

import "fmt"

// Scratch is a reusable workspace for the partition kernels: RefineWith,
// ProductWith, the scratch-backed swap checks (HasSwapWith, FindSwapWith)
// and the approximate-error kernels (SwapRemovals, ConstancyRemovals). A
// single Scratch may be reused across any number of calls, over relations of
// any size — it grows as needed and cleans up after itself — but it must not
// be shared between goroutines: parallel callers hold one Scratch per worker
// (the lattice engine exposes its per-worker scratches for exactly this).
type Scratch struct {
	// probe[row] = index of row's class in ProductWith's left operand, or -1
	// if the row is a singleton there. All entries are -1 between calls.
	probe []int32
	// count is the per-key table of split and ConstancyRemovals, indexed by
	// a rank or, in ProductWith, a left-operand class. split counts a class's
	// rows per key in it and then, in the same slot, holds the arena write
	// cursor of the key's group (-1 for a group of one row). All entries are
	// zero between calls.
	count []int32
	// touched lists the keys the current class dirtied.
	touched []int32
	// outRows and outOffsets stage split's flat buffers; the result copies
	// them at exact size so no over-capacity is retained by callers (or by a
	// PartitionStore) and the staging arrays amortize across calls.
	outRows    []int32
	outOffsets []int32
	// keys/keyRows and tmpKeys/tmpRows are the (rank-pair, row) buffers of the
	// radix sort behind the swap kernels. Only swap-free HasSwapWith calls,
	// FindSwapWith, and SwapRemovals calls whose neighbour-pair lower bound
	// stays within the limit sort; the neighbour scan decides the rest.
	keys    []uint64
	keyRows []int32
	tmpKeys []uint64
	tmpRows []int32
	// tails is the patience-sorting buffer of SwapRemovals.
	tails []int32
}

// NewScratch returns an empty workspace ready for any partition kernel.
func NewScratch() *Scratch { return &Scratch{} }

// RefineWith computes the stripped partition of X ∪ {B} from the receiver,
// Π*X, and B's rank column col, whose ranks must lie in [0, cardinality).
// The classes of Π({B}) are B's rank groups, so the result is the product
// Π(X)·Π({B}) of Section 4.6: every class of the receiver splits by B's
// ranks. That takes two passes over the receiver's rows and no probe, and a
// superkey receiver costs nothing. s is the workspace, as for ProductWith
// (nil allocates one); its key table gets cardinality slots, so a rank at or
// above cardinality panics.
//
// Classes come out parent-major: for each class of the receiver in order,
// its subclasses in order of first appearance, rows ascending. Refining
// Π(X\B) by B therefore yields exactly Π(X\C).ProductWith(Π(X\B)), rows and
// offsets alike, for any attribute C in X\B.
//
// When B is constant within every class of the receiver (always so for a
// superkey receiver), the result is the receiver itself and the call
// allocates nothing. Partitions are immutable, so sharing is safe, but a
// PartitionStore then files one partition under both X\B and X and charges
// its bytes twice.
func (p *Partition) RefineWith(col []int32, cardinality int, s *Scratch) *Partition {
	if len(col) != p.NumRows {
		panic(fmt.Sprintf("partition: refinement by a column of %d rows of a partition of %d rows (%d classes)",
			len(col), p.NumRows, p.NumClasses()))
	}
	if s == nil {
		s = NewScratch()
	}
	s.reserveKeys(cardinality)
	return s.split(p, col)
}

// ProductWith computes the stripped partition of X ∪ Y from the stripped
// partitions a = Π*X and b = Π*Y in time linear in the partition sizes,
// using the standard probe-table construction: tuples that share a class in
// both inputs share a class in the product. It is the general two-operand
// form of Section 4.6. Discovery needs only its special case Π(X)·Π({B}),
// which RefineWith computes from one operand; ProductWith remains the
// reference the tests hold RefineWith to, and the benchmark's pair-product
// layer. s is the workspace, which spares a loop of products the per-call
// probe-table and grouping allocations; nil allocates one. When every class
// of b lies within one class of a, the result is b itself, as RefineWith
// returns its receiver; otherwise it is a freshly allocated Partition whose
// rows and offsets share one exact-size buffer and nothing with the scratch
// or the operands.
//
// The class order of the result is deterministic: classes are emitted
// right-operand-major — for each class of b in order, its subclasses in order
// of first appearance — and rows ascend within every class. The probe labels
// each row with its class in a, and b's classes split by that label on the
// same loop RefineWith splits by ranks.
func (a *Partition) ProductWith(b *Partition, s *Scratch) *Partition {
	if a.NumRows != b.NumRows {
		// This package cannot know which lattice node asked for the product,
		// so the message carries all the local state it has; the engine's
		// per-node recovery frames attach the node's attribute set on the way
		// out (lattice.PanicContext) and surface the whole thing as a typed
		// internal error instead of a crash.
		panic(fmt.Sprintf("partition: product over different relations (%d vs %d rows, %d vs %d classes)",
			a.NumRows, b.NumRows, a.NumClasses(), b.NumClasses()))
	}
	if s == nil {
		s = NewScratch()
	}
	if len(s.probe) < a.NumRows {
		grown := make([]int32, a.NumRows)
		for i := range grown {
			grown[i] = -1
		}
		s.probe = grown
	}
	s.reserveKeys(a.NumClasses())
	for ci, n := 0, a.NumClasses(); ci < n; ci++ {
		for _, row := range a.Class(ci) {
			s.probe[row] = int32(ci)
		}
	}
	out := s.split(b, s.probe)
	// Restore the all--1 probe invariant for the next call.
	for _, row := range a.rows {
		s.probe[row] = -1
	}
	return out
}

// reserveKeys gives the key table room for keys 0..n-1. A grown table is
// fresh, so the all-zero invariant holds either way.
func (s *Scratch) reserveKeys(n int) {
	if len(s.count) < n {
		s.count = make([]int32, n)
	}
}

// split is the grouping loop of RefineWith and ProductWith. It splits every
// class of p into the groups of rows with equal key[row], leaves out the rows
// whose key is negative, and emits the groups of two or more rows: for each
// class of p in order, its groups in order of their first row. s.count must
// hold a slot for every key of p's rows.
//
// A first scan of each class stops at the first row whose key differs from
// the class's first row. A class that scans to its end has one key: it is
// emitted whole, or dropped whole if that key is negative. A class of two
// rows is settled by the same comparison. Any other class is grouped: one
// counting pass, which starts after the rows the scan already read, reserves
// each group's contiguous arena range, and one placement pass fills it.
//
// Nothing is staged while every class passes through whole. If none splits
// or loses a row, the result is p itself, and split allocates nothing.
func (s *Scratch) split(p *Partition, key []int32) *Partition {
	count := s.count
	s.outRows = s.outRows[:0]
	s.outOffsets = s.outOffsets[:0] // empty until some class splits or loses a row
	for ci, n := 0, p.NumClasses(); ci < n; ci++ {
		cls := p.Class(ci)
		k0, same := key[cls[0]], 1
		for same < len(cls) && key[cls[same]] == k0 {
			same++
		}
		if same == len(cls) && k0 >= 0 {
			if len(s.outOffsets) > 0 {
				s.outRows = append(s.outRows, cls...)
				s.outOffsets = append(s.outOffsets, int32(len(s.outRows)))
			}
			continue
		}
		if len(s.outOffsets) == 0 {
			// The first class to change: stage the classes before it.
			s.outRows = append(s.outRows, p.rows[:p.offsets[ci]]...)
			s.outOffsets = append(s.outOffsets, p.offsets[:ci+1]...)
		}
		if same == len(cls) || len(cls) == 2 {
			continue
		}
		s.touched = s.touched[:0]
		if k0 >= 0 {
			count[k0] = int32(same)
			s.touched = append(s.touched, k0)
		}
		for _, row := range cls[same:] {
			k := key[row]
			if k < 0 {
				continue
			}
			if count[k] == 0 {
				s.touched = append(s.touched, k)
			}
			count[k]++
		}
		for _, k := range s.touched {
			if c := count[k]; c >= 2 {
				start := int32(len(s.outRows))
				s.outRows = extendInt32(s.outRows, int(c))
				s.outOffsets = append(s.outOffsets, start+c)
				count[k] = start
			} else {
				count[k] = -1
			}
		}
		for _, row := range cls {
			k := key[row]
			if k < 0 {
				continue
			}
			if pos := count[k]; pos >= 0 {
				s.outRows[pos] = row
				count[k] = pos + 1
			}
		}
		for _, k := range s.touched {
			count[k] = 0
		}
	}
	if len(s.outOffsets) == 0 {
		return p
	}
	// One exact-size buffer holds the rows and then the offsets. rows is
	// capped at its length, so no class view can grow into the offsets.
	buf := make([]int32, len(s.outRows)+len(s.outOffsets))
	n := copy(buf, s.outRows)
	copy(buf[n:], s.outOffsets)
	return &Partition{NumRows: p.NumRows, rows: buf[:n:n], offsets: buf[n:]}
}

// extendInt32 grows s by n elements (contents of the new tail unspecified),
// reallocating geometrically so amortized growth is O(1) per element.
func extendInt32(s []int32, n int) []int32 {
	need := len(s) + n
	if need <= cap(s) {
		return s[:need]
	}
	newCap := 2 * cap(s)
	if newCap < need {
		newCap = need
	}
	if newCap < 64 {
		newCap = 64
	}
	grown := make([]int32, need, newCap)
	copy(grown, s)
	return grown
}
