package partition

import "math"

// SwapWitness identifies a pair of rows (s, t) within one equivalence class
// such that s precedes t on colA but t precedes s on colB — a "swap" in the
// sense of Definition 5, restricted to the context defining this partition.
type SwapWitness struct {
	RowS, RowT int
}

// HasSwapWith reports whether some equivalence class of the context
// partition contains a swap between colA and colB, i.e. whether the
// canonical OD X: A ~ B is violated (the receiver being Π*X). s is the
// workspace: validation loops reuse a per-worker Scratch, and nil allocates
// one. It first walks every class in stored order and returns true at the
// first two consecutive rows that are strictly inverted on (A, B): such a
// pair is a swap, and on violated ODs one usually sits next to another. Only when no
// class has such a pair are the classes sorted: each is ordered by its
// (A-rank, B-rank) pairs with a scratch-backed radix sort over the dense
// ranks — no per-class allocation, no comparison sort — and then scanned
// once: B-ranks must never decrease across strictly increasing A-ranks.
func (p *Partition) HasSwapWith(colA, colB []int32, s *Scratch) bool {
	if p.neighbourInversions(colA, colB, 0) > 0 {
		return true
	}
	_, found := p.findSwap(colA, colB, false, s)
	return found
}

// neighbourInversions counts disjoint pairs of consecutive rows of one class,
// in stored order, that are strictly inverted on (A, B), and stops as soon as
// the count exceeds limit. Every such pair is a swap, and no swap-free subset
// keeps both of its rows, so the count is a lower bound on SwapRemovals. Rows
// are never paired across a class boundary.
func (p *Partition) neighbourInversions(colA, colB []int32, limit int) int {
	n := 0
	for ci := 1; ci < len(p.offsets); ci++ {
		cls := p.rows[p.offsets[ci-1]:p.offsets[ci]]
		for j := 1; j < len(cls); j++ {
			s, t := cls[j-1], cls[j]
			// Ranks are non-negative int32s, so the differences cannot
			// overflow and their product fits an int64.
			if int64(colA[t]-colA[s])*int64(colB[t]-colB[s]) < 0 {
				if n++; n > limit {
					return n
				}
				j++ // keep the pairs disjoint: t cannot open the next one
			}
		}
	}
	return n
}

// FindSwapWith returns a witness pair for a swap between colA and colB
// within the context partition, if one exists, using s as scratch space (nil
// allocates one). It skips HasSwapWith's neighbour scan and always sorts
// each class, so its witness does not depend on which neighbouring pair that
// scan would meet first.
func (p *Partition) FindSwapWith(colA, colB []int32, s *Scratch) (SwapWitness, bool) {
	return p.findSwap(colA, colB, true, s)
}

// pairKey packs a row's (A-rank, B-rank) pair into one radix-sortable key:
// ascending key order is ascending (A, B) lexicographic order. Ranks are
// dense non-negative int32s, so the unsigned widening is order-preserving.
func pairKey(a, b int32) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

func (p *Partition) findSwap(colA, colB []int32, wantWitness bool, s *Scratch) (SwapWitness, bool) {
	if s == nil {
		s = NewScratch()
	}
	for ci, n := 0, p.NumClasses(); ci < n; ci++ {
		cls := p.Class(ci)
		keys, rows := s.sortClassByRanks(cls, colA, colB)
		// Scan groups of equal A-rank. Every B-rank in the current group must
		// be >= the maximum B-rank seen in strictly smaller A-groups.
		runningMax := int32(-1)
		var runningMaxRow int32 = -1
		k := len(keys)
		i := 0
		for i < k {
			a := keys[i] >> 32
			j := i
			groupMax := int32(uint32(keys[i]))
			groupMaxRow := rows[i]
			for j < k && keys[j]>>32 == a {
				b := int32(uint32(keys[j]))
				if b < runningMax && runningMax >= 0 {
					if wantWitness {
						return SwapWitness{RowS: int(runningMaxRow), RowT: int(rows[j])}, true
					}
					return SwapWitness{}, true
				}
				if b > groupMax {
					groupMax = b
					groupMaxRow = rows[j]
				}
				j++
			}
			if groupMax > runningMax {
				runningMax = groupMax
				runningMaxRow = groupMaxRow
			}
			i = j
		}
	}
	return SwapWitness{}, false
}

// SwapRemovals returns the minimum number of tuples that must be removed from
// the relation so that no class of the context partition contains a swap
// between colA and colB — the g3-style error of the OD X: A ~ B (the receiver
// being Π*X) — when that number is at most limit. Otherwise it returns, as
// soon as it has one, a count above limit that is still at most the exact
// one; pass math.MaxInt for the exact count.
//
// Before sorting anything, a bounded call counts disjoint inverted pairs of
// neighbouring rows (each costs at least one removal) and returns once that
// lower bound passes the limit. Then, within each class, the largest
// swap-free subset is the longest non-decreasing subsequence of B-ranks once
// the class is ordered by (A, B): the class is sorted with the scratch radix
// sort and the subsequence found by patience sorting, so the whole
// computation is allocation-free on a warm scratch. A nil scratch allocates
// one.
func (p *Partition) SwapRemovals(colA, colB []int32, limit int, s *Scratch) int {
	if limit != math.MaxInt {
		if lower := p.neighbourInversions(colA, colB, limit); lower > limit {
			return lower
		}
	}
	if s == nil {
		s = NewScratch()
	}
	removals := 0
	for ci, n := 0, p.NumClasses(); ci < n; ci++ {
		cls := p.Class(ci)
		keys, _ := s.sortClassByRanks(cls, colA, colB)
		// Longest non-decreasing subsequence over the B-ranks: tails[k] holds
		// the smallest possible tail of a subsequence of length k+1.
		tails := s.tails[:0]
		for _, key := range keys {
			b := int32(uint32(key))
			// First tail strictly greater than b (upper bound), since equal
			// values extend a non-decreasing subsequence.
			lo, hi := 0, len(tails)
			for lo < hi {
				mid := (lo + hi) / 2
				if tails[mid] <= b {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo == len(tails) {
				tails = append(tails, b)
			} else {
				tails[lo] = b
			}
		}
		s.tails = tails[:0]
		removals += len(cls) - len(tails)
		if removals > limit {
			return removals
		}
	}
	return removals
}

// ConstancyRemovals returns the minimum number of tuples that must be removed
// so that attribute col is constant within every class of the partition — the
// g3 error of the FD X → A (the receiver being Π*X): per class, everything
// but the most frequent rank goes. Like SwapRemovals it returns the exact
// count when that is at most limit, and otherwise the first running count
// above limit, a partial sum of the exact one. The frequency count uses a
// dense scratch table over the ranks, so the computation is allocation-free
// on a warm scratch. A nil scratch allocates one.
func (p *Partition) ConstancyRemovals(col []int32, limit int, s *Scratch) int {
	if s == nil {
		s = NewScratch()
	}
	removals := 0
	for ci, n := 0, p.NumClasses(); ci < n; ci++ {
		cls := p.Class(ci)
		s.touched = s.touched[:0]
		best := int32(0)
		for _, row := range cls {
			v := col[row]
			if int(v) >= len(s.count) {
				s.count = growInt32(s.count, int(v)+1)
			}
			if s.count[v] == 0 {
				s.touched = append(s.touched, v)
			}
			s.count[v]++
			if s.count[v] > best {
				best = s.count[v]
			}
		}
		for _, v := range s.touched {
			s.count[v] = 0
		}
		removals += len(cls) - int(best)
		if removals > limit {
			return removals
		}
	}
	return removals
}

// sortClassByRanks loads the class's (A-rank, B-rank, row) triples into the
// scratch key buffers and sorts them by (A, B) ascending, returning the
// sorted keys and the rows permuted in lockstep. The buffers are valid until
// the next scratch call.
func (s *Scratch) sortClassByRanks(cls []int32, colA, colB []int32) (keys []uint64, rows []int32) {
	k := len(cls)
	if cap(s.keys) < k {
		n := keyBufCap(cap(s.keys), k)
		s.keys = make([]uint64, n)
		s.keyRows = make([]int32, n)
	}
	keys = s.keys[:k]
	rows = s.keyRows[:k]
	var maxKey uint64
	for j, row := range cls {
		key := pairKey(colA[row], colB[row])
		keys[j] = key
		rows[j] = row
		if key > maxKey {
			maxKey = key
		}
	}
	s.sortKeysRows(keys, rows, maxKey)
	return keys, rows
}

// keyBufCap sizes a key-buffer regrow geometrically (at least doubling), so
// a sequence of classes of increasing size costs O(log max) reallocations
// rather than one per new maximum.
func keyBufCap(have, need int) int {
	c := 2 * have
	if c < need {
		c = need
	}
	if c < 64 {
		c = 64
	}
	return c
}

// insertionCutoff is the class size below which insertion sort beats the
// fixed per-pass overhead (clearing 256 counters) of the radix sort.
const insertionCutoff = 48

// sortKeysRows sorts keys ascending with rows permuted in lockstep: insertion
// sort for small inputs, LSD radix sort (8-bit digits, skipping digits the
// maximum key does not reach) for large ones. Both paths are stable, so the
// resulting order — and any witness derived from it — is deterministic.
func (s *Scratch) sortKeysRows(keys []uint64, rows []int32, maxKey uint64) {
	n := len(keys)
	if n < 2 {
		return
	}
	if n <= insertionCutoff {
		for i := 1; i < n; i++ {
			key, row := keys[i], rows[i]
			j := i - 1
			for j >= 0 && keys[j] > key {
				keys[j+1], rows[j+1] = keys[j], rows[j]
				j--
			}
			keys[j+1], rows[j+1] = key, row
		}
		return
	}
	if cap(s.tmpKeys) < n {
		c := keyBufCap(cap(s.tmpKeys), n)
		s.tmpKeys = make([]uint64, c)
		s.tmpRows = make([]int32, c)
	}
	srcK, srcR := keys, rows
	dstK, dstR := s.tmpKeys[:n], s.tmpRows[:n]
	var count [256]int32
	for shift := uint(0); shift < 64 && maxKey>>shift != 0; shift += 8 {
		for i := range count {
			count[i] = 0
		}
		for _, key := range srcK {
			count[(key>>shift)&0xff]++
		}
		pos := int32(0)
		for d := 0; d < 256; d++ {
			c := count[d]
			count[d] = pos
			pos += c
		}
		for i, key := range srcK {
			d := (key >> shift) & 0xff
			dstK[count[d]] = key
			dstR[count[d]] = srcR[i]
			count[d]++
		}
		srcK, srcR, dstK, dstR = dstK, dstR, srcK, srcR
	}
	if &srcK[0] != &keys[0] {
		copy(keys, srcK)
		copy(rows, srcR)
	}
}
