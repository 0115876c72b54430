package partition

import "fmt"

// Product computes the stripped partition of X ∪ Y from the stripped
// partitions of X and Y in time linear in the partition sizes, using the
// standard probe-table construction: tuples that share a class in both inputs
// share a class in the product. This is the only operation FASTOD needs to
// derive the partitions of level l+1 nodes from level l nodes.
//
// Product allocates a fresh workspace per call; hot loops that compute many
// products (the level-generation phase of FASTOD) should hold a Scratch and
// call ProductWith instead.
func Product(a, b *Partition) *Partition {
	return a.ProductWith(b, nil)
}

// Scratch is a reusable workspace for the partition kernels: ProductWith,
// the scratch-backed swap checks (HasSwapWith, FindSwapWith) and the
// approximate-error kernels (SwapRemovals, ConstancyRemovals). A single
// Scratch may be reused across any number of calls, over relations of any
// size — it grows as needed and cleans up after itself — but it must not be
// shared between goroutines: parallel callers hold one Scratch per worker
// (the lattice engine exposes its per-worker scratches for exactly this).
type Scratch struct {
	// probe[row] = index of row's class in the left product operand, or -1 if
	// the row is a singleton there. All entries are -1 between calls.
	probe []int32
	// groupLen[ci] counts the rows of the current right-operand class that
	// fall into left class ci; groupPos[ci] is the arena write cursor assigned
	// to that group (-1 when the group stays singleton). groupLen is all zero
	// between right classes; groupPos is always written before it is read.
	groupLen []int32
	groupPos []int32
	// touched lists the left classes dirtied by the current right class.
	touched []int32
	// outRows and outOffsets stage the product's flat buffers; the result
	// copies them at exact size so no over-capacity is retained by callers
	// (or by a PartitionStore) and the staging arrays amortize across calls.
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
	// freq is the dense rank-frequency table of ConstancyRemovals. All
	// entries are zero between calls.
	freq []int32
}

// NewScratch returns an empty workspace ready for any partition kernel.
func NewScratch() *Scratch { return &Scratch{} }

// ProductWith computes Product(a, b) using s as scratch space, avoiding the
// per-call probe-table and grouping allocations. A nil scratch is allowed and
// makes the call equivalent to Product(a, b). The result is a freshly
// allocated Partition whose rows and offsets share one exact-size buffer and
// nothing with the scratch or the operands.
//
// The class order of the result is deterministic: classes are emitted
// right-operand-major — for each class of b in order, its subclasses in order
// of first appearance — and rows ascend within every class. All callers
// compute any given attribute set's partition through the same operand
// sequence, so identical inputs always yield identical partitions.
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
	if len(s.groupLen) < a.NumClasses() {
		s.groupLen = make([]int32, a.NumClasses())
		s.groupPos = make([]int32, a.NumClasses())
	}
	for ci, n := 0, a.NumClasses(); ci < n; ci++ {
		for _, row := range a.Class(ci) {
			s.probe[row] = int32(ci)
		}
	}
	s.outRows = s.outRows[:0]
	s.outOffsets = append(s.outOffsets[:0], 0)
	// For each class of b, group its rows by their class in a, emitting the
	// groups of size >= 2 straight into the flat staging buffers: one counting
	// pass reserves each group's contiguous arena range, one placement pass
	// fills it.
	for bi, bn := 0, b.NumClasses(); bi < bn; bi++ {
		cls := b.Class(bi)
		s.touched = s.touched[:0]
		for _, row := range cls {
			ca := s.probe[row]
			if ca < 0 {
				continue // singleton in a => singleton in the product
			}
			if s.groupLen[ca] == 0 {
				s.touched = append(s.touched, ca)
			}
			s.groupLen[ca]++
		}
		for _, ca := range s.touched {
			n := s.groupLen[ca]
			if n >= 2 {
				start := int32(len(s.outRows))
				s.outRows = extendInt32(s.outRows, int(n))
				s.groupPos[ca] = start
				s.outOffsets = append(s.outOffsets, start+n)
			} else {
				s.groupPos[ca] = -1
			}
		}
		for _, row := range cls {
			ca := s.probe[row]
			if ca < 0 {
				continue
			}
			pos := s.groupPos[ca]
			if pos < 0 {
				continue
			}
			s.outRows[pos] = row
			s.groupPos[ca] = pos + 1
		}
		for _, ca := range s.touched {
			s.groupLen[ca] = 0
		}
	}
	// Restore the all--1 probe invariant for the next call.
	for _, row := range a.rows {
		s.probe[row] = -1
	}
	// One exact-size buffer holds the rows and then the offsets. rows is
	// capped at its length, so no class view can grow into the offsets.
	buf := make([]int32, len(s.outRows)+len(s.outOffsets))
	n := copy(buf, s.outRows)
	copy(buf[n:], s.outOffsets)
	return &Partition{NumRows: a.NumRows, rows: buf[:n:n], offsets: buf[n:]}
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
