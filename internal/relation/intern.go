package relation

import "hash/maphash"

// internTable maps a column's values to dense int32 ids in first-seen order;
// dict[id] is the value. It is an open-addressing table with linear probing
// whose slots hold no pointers, so the garbage collector never scans it:
// each slot packs the low 32 bits of the value's maphash above id+1 (0 marks
// an empty slot), and a probe compares the value against dict only when
// those hash bits match. The table stays at most three quarters full.
type internTable struct {
	seed  maphash.Seed
	slots []uint64
	dict  []string
}

// minSlots is the slot count of a table's first allocation.
const minSlots = 16

func newInternTable() internTable {
	return internTable{seed: maphash.MakeSeed()}
}

// intern returns v's id, adding v to the dictionary if it is new.
func (t *internTable) intern(v string) int32 {
	if len(t.slots) == 0 {
		t.rehash(minSlots)
	}
	h := uint32(maphash.String(t.seed, v))
	for {
		mask := uint32(len(t.slots) - 1)
		i := h & mask
		for e := t.slots[i]; e != 0; e = t.slots[i] {
			if uint32(e>>32) == h && t.dict[uint32(e)-1] == v {
				return int32(uint32(e) - 1)
			}
			i = (i + 1) & mask
		}
		if 4*(len(t.dict)+1) > 3*len(t.slots) {
			t.rehash(2 * len(t.slots))
			continue
		}
		id := int32(len(t.dict))
		if len(t.dict) == cap(t.dict) {
			// Double by hand: append grows large slices by only 1.25×,
			// which reallocates a big dictionary many times over.
			grown := make([]string, len(t.dict), max(2*cap(t.dict), minSlots))
			copy(grown, t.dict)
			t.dict = grown
		}
		t.dict = append(t.dict, v)
		t.slots[i] = uint64(h)<<32 | uint64(id+1)
		return id
	}
}

// reserve makes room for n entries in all, so that interning up to n
// distinct values allocates nothing more.
func (t *internTable) reserve(n int) {
	if cap(t.dict) < n {
		grown := make([]string, len(t.dict), n)
		copy(grown, t.dict)
		t.dict = grown
	}
	size := max(len(t.slots), minSlots)
	for 4*n > 3*size {
		size *= 2
	}
	if size > len(t.slots) && n > len(t.dict) {
		t.rehash(size)
	}
}

// rehash moves every entry into a new slot array of the given power-of-two
// size, placing it by its stored hash bits; no value is hashed again.
func (t *internTable) rehash(size int) {
	slots := make([]uint64, size)
	mask := uint32(size - 1)
	for _, e := range t.slots {
		if e == 0 {
			continue
		}
		i := uint32(e>>32) & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = e
	}
	t.slots = slots
}
