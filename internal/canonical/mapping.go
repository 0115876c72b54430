package canonical

import (
	"repro/internal/bitset"
	"repro/internal/listod"
)

// MapListOD performs the polynomial mapping of Theorem 5: the list-based OD
// X ↦ Y is equivalent to the conjunction of
//
//	∀j              set(X): [] ↦ Yj
//	∀i,j  {X1..Xi-1, Y1..Yj-1}: Xi ~ Yj
//
// By Theorem 1, X ↦ Y is X ↦ XY and X ~ Y, so the image is MapFD's
// (Theorem 3) followed by MapOrderCompatibility's (Theorem 4). The returned
// slice has size |Y| + |X|·|Y|; trivial canonical ODs (identity pairs,
// attributes already in the context) are included so that the mapping is
// literally the one in the paper — callers that only care about information
// content can filter with OD.IsTrivial.
func MapListOD(x, y listod.Spec) []OD {
	return append(MapFD(x, y), MapOrderCompatibility(x, y)...)
}

// MapListODNonTrivial is MapListOD with trivial canonical ODs removed and
// duplicates collapsed. This is the form used when comparing the information
// content of list-based and set-based representations.
func MapListODNonTrivial(x, y listod.Spec) []OD {
	all := MapListOD(x, y)
	seen := make(map[OD]bool, len(all))
	out := make([]OD, 0, len(all))
	for _, od := range all {
		if od.IsTrivial() || seen[od] {
			continue
		}
		seen[od] = true
		out = append(out, od)
	}
	Sort(out)
	return out
}

// MapOrderCompatibility maps the order-compatibility statement X ~ Y
// (Theorem 4) to canonical ODs: ∀i,j {X1..Xi-1, Y1..Yj-1}: Xi ~ Yj.
func MapOrderCompatibility(x, y listod.Spec) []OD {
	var out []OD
	for i, xi := range x {
		for j, yj := range y {
			ctx := specToSet(x[:i]).Union(specToSet(y[:j]))
			if xi == yj {
				// Identity pair: X: A ~ A is trivially true (Identity axiom).
				// NewOrderCompatible rejects equal attributes, so build the
				// trivial OD directly; IsTrivial classifies it via A == B.
				out = append(out, OD{Context: ctx, Kind: OrderCompatible, A: xi, B: yj})
				continue
			}
			out = append(out, NewOrderCompatible(ctx, xi, yj))
		}
	}
	return out
}

// MapFD maps the functional dependency statement X ↦ XY (Theorem 3) to
// canonical constancy ODs: ∀j set(X): [] ↦ Yj.
func MapFD(x, y listod.Spec) []OD {
	xSet := specToSet(x)
	out := make([]OD, 0, len(y))
	for _, yj := range y {
		out = append(out, NewConstancy(xSet, yj))
	}
	return out
}

func specToSet(s listod.Spec) bitset.AttrSet {
	var out bitset.AttrSet
	for _, a := range s {
		out = out.Add(a)
	}
	return out
}
