package core

import (
	"slices"
	"testing"

	"repro/internal/bitset"
)

// referenceCandidatePairs transcribes Algorithm 3's derivation of C+s(X)
// over maps, as the union-then-keep loop it is in the paper: at level 2 the
// one pair of X; above it, the union of the subsets' candidate pairs, keeping
// a pair {A,B} only if it is in C+s(X\D) for every D ∈ X\{A,B}. subs maps
// each D ∈ X to C+s(X\D). The result is sorted by (A,B).
func referenceCandidatePairs(x bitset.AttrSet, subs map[int]map[bitset.Pair]bool) []bitset.Pair {
	attrs := x.Attrs()
	if len(attrs) == 2 {
		return []bitset.Pair{bitset.NewPair(attrs[0], attrs[1])}
	}
	union := make(map[bitset.Pair]bool)
	for _, c := range attrs {
		for p := range subs[c] {
			union[p] = true
		}
	}
	var out []bitset.Pair
	for p := range union {
		keep := true
		for _, d := range attrs {
			if d != p.A && d != p.B && !subs[d][p] {
				keep = false
			}
		}
		if keep {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, func(p, q bitset.Pair) int {
		if p.A != q.A {
			return p.A - q.A
		}
		return p.B - q.B
	})
	return out
}

// FuzzCandidatePairs checks the word-operation derivation of C+s(X) in
// candidates against referenceCandidatePairs, on synthetic subset states over
// schemas of up to 64 attributes. The lattice only ever reaches such states
// on relations far too wide for the reference oracles, so this is where rows
// crossing bit 31 and ending at bit 63 get checked.
//
// width is clamped to [2, 64] and X is xmask cut to the width; inputs with
// |X| < 2 are skipped. choices is read cyclically, one byte per pair {A,B} of
// X in (A,B) order. Its low two bits pick where the pair lies among the
// subsets X\D with D ∈ X\{A,B}: in none, in all, in all but one (the next
// bits pick which), or in each independently (the next byte's bits decide).
// Pairs of a subset X\D therefore always lie inside X\D.
func FuzzCandidatePairs(f *testing.F) {
	f.Fuzz(func(t *testing.T, width uint8, xmask uint64, choices []byte) {
		n := min(max(int(width), 2), bitset.MaxAttrs)
		x := bitset.AttrSet(xmask & (1<<uint(n) - 1))
		if x.Len() < 2 {
			return
		}
		k := 0
		next := func() byte {
			if len(choices) == 0 {
				return 0
			}
			b := choices[k%len(choices)]
			k++
			return b
		}
		subs := make(map[int]map[bitset.Pair]bool)
		x.ForEach(func(d int) { subs[d] = make(map[bitset.Pair]bool) })
		attrs := x.Attrs()
		for i, a := range attrs {
			for _, b := range attrs[i+1:] {
				p := bitset.NewPair(a, b)
				others := x.Remove(a).Remove(b).Attrs()
				c := next()
				for j, d := range others {
					var in bool
					switch c % 4 {
					case 1:
						in = true
					case 2:
						in = j != int(c/4)%len(others)
					case 3:
						in = next()&1 == 1
					}
					if in {
						subs[d][p] = true
					}
				}
			}
		}

		all := bitset.AttrSet(1<<uint(n) - 1)
		deps := make([]nodeState, 0, len(attrs))
		for _, d := range attrs {
			st := nodeState{cc: all.Remove(d)}
			if len(attrs) > 2 {
				st.cs = bitset.NewPairSet(n)
				for p := range subs[d] {
					st.cs.Add(p)
				}
			}
			deps = append(deps, st)
		}
		got := candidates(all, x, deps, n)

		// C+c(X\D) lacks only D, so line 2's intersection is R\X.
		if want := all.Diff(x); got.cc != want {
			t.Errorf("width %d: C+c(%v) = %v, want %v", n, x, got.cc, want)
		}
		var pairs []bitset.Pair
		got.cs.ForEach(func(p bitset.Pair) { pairs = append(pairs, p) })
		if want := referenceCandidatePairs(x, subs); !slices.Equal(pairs, want) {
			t.Fatalf("width %d, X = %v: C+s = %v, want %v", n, x, pairs, want)
		}
	})
}
