package bidir

import (
	"strconv"
	"testing"

	"repro/internal/datagen"
	"repro/internal/lattice"
	"repro/internal/relation"
)

// BenchmarkDiscoverWide is core's BenchmarkDiscoverWide for the
// bidirectional search: hepatitis-like 155×13, both polarities of every
// pair. The minimal search never prunes a node, so every one of the 8 191
// lattice nodes is visited and checked.
func BenchmarkDiscoverWide(b *testing.B) {
	enc, err := relation.Encode(datagen.HepatitisLike(155, 13, 2017))
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2} {
		b.Run("workers="+strconv.Itoa(w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DiscoverContext(b.Context(), enc, lattice.Config{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
