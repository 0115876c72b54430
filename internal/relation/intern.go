package relation

import "hash/maphash"

// internTable maps a column's values to dense int32 ids in first-seen order.
// The values lie back to back in one byte arena, buf, and ends[id] is where
// value id ends; it starts where value id-1 ends, or at 0. The table is open
// addressing with linear probing whose slots hold no pointers, so the
// garbage collector never scans it: each slot packs the low 32 bits of the
// value's maphash above id+1 (0 marks an empty slot), and a probe compares
// bytes only when those hash bits match. The table stays at most three
// quarters full.
type internTable struct {
	seed  maphash.Seed
	slots []uint64
	buf   []byte
	ends  []int32
}

// minSlots is the slot count of a table's first allocation, and the least
// capacity its arena and ends grow to.
const minSlots = 16

func newInternTable() internTable {
	return internTable{seed: maphash.MakeSeed()}
}

// intern returns v's id, adding v to the dictionary if it is new.
func (t *internTable) intern(v string) int32 {
	return insert(t, v, maphash.String(t.seed, v))
}

// internBytes is intern for a value in a byte slice, which it copies if new.
func (t *internTable) internBytes(v []byte) int32 {
	return insert(t, v, maphash.Bytes(t.seed, v))
}

// insert is the probe behind intern and internBytes. hash is v's maphash
// under t.seed: maphash.String and maphash.Bytes agree on equal contents.
func insert[V string | []byte](t *internTable, v V, hash uint64) int32 {
	if len(t.slots) == 0 {
		t.rehash(minSlots)
	}
	h := uint32(hash)
	for {
		mask := uint32(len(t.slots) - 1)
		i := h & mask
		for e := t.slots[i]; e != 0; e = t.slots[i] {
			if uint32(e>>32) == h && string(t.value(int32(uint32(e)-1))) == string(v) {
				return int32(uint32(e) - 1)
			}
			i = (i + 1) & mask
		}
		if 4*(len(t.ends)+1) > 3*len(t.slots) {
			t.rehash(2 * len(t.slots))
			continue
		}
		id := int32(len(t.ends))
		t.buf = append(grow(t.buf, len(t.buf)+len(v)), v...)
		t.ends = append(grow(t.ends, len(t.ends)+1), int32(len(t.buf)))
		t.slots[i] = uint64(h)<<32 | uint64(id+1)
		return id
	}
}

// value returns the bytes of value id, a view of the arena.
func (t *internTable) value(id int32) []byte {
	if id == 0 {
		return t.buf[:t.ends[0]]
	}
	return t.buf[t.ends[id-1]:t.ends[id]]
}

// dict returns the values by id, cut from one string that copies the arena.
func (t *internTable) dict() []string {
	all := string(t.buf)
	dict := make([]string, len(t.ends))
	start := int32(0)
	for id, end := range t.ends {
		dict[id], start = all[start:end], end
	}
	return dict
}

// reserve makes room for n entries of size bytes in all, so that interning
// up to that much allocates nothing more.
func (t *internTable) reserve(n, size int) {
	if cap(t.ends) < n {
		t.ends = append(make([]int32, 0, n), t.ends...)
	}
	if cap(t.buf) < size {
		t.buf = append(make([]byte, 0, size), t.buf...)
	}
	slots := max(len(t.slots), minSlots)
	for 4*n > 3*slots {
		slots *= 2
	}
	if slots > len(t.slots) && n > len(t.ends) {
		t.rehash(slots)
	}
}

// grow returns s with room for n elements in all. When it must reallocate,
// it at least doubles the capacity: append grows large slices by only
// 1.25×, which reallocates a big dictionary many times over.
func grow[S ~[]E, E any](s S, n int) S {
	if n <= cap(s) {
		return s
	}
	grown := make(S, len(s), max(n, 2*cap(s), minSlots))
	copy(grown, s)
	return grown
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
