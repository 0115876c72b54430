package relation_test

import (
	"bytes"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relation"
)

// The ingest layer on the shape of the paper's tuple-scaling experiment
// (Exp-1): flight-like 20 000 rows × 10 columns, the input of the repository
// benchmark's tall workload, plus the NULL-dense, mixed-type messy 10 000 × 8
// relation the benchmark's serve workload preloads. BenchmarkReadCSV times
// CSV decode, which scans the input's bytes and interns every field into
// its column's dictionary straight from the input buffer, plus type
// sniffing; BenchmarkEncode the default rank encoding of the decoded
// relation; BenchmarkLoadCSV both, as fastod.LoadCSV runs them; and
// BenchmarkEncodeSpec a re-encoding with one non-default column, as a run
// with OrderSpecs makes.

const benchRows, benchCols, benchSeed = 20000, 10, 2017

func csvBytes(tb testing.TB, rel *relation.Relation) []byte {
	tb.Helper()
	var csv bytes.Buffer
	if err := relation.WriteCSV(rel, &csv); err != nil {
		tb.Fatal(err)
	}
	return csv.Bytes()
}

// TestReadCSVAllocsPerColumn pins the decode's allocation shape on the
// benchmark's flight-like input: a bounded number of allocations per column
// (its tables, their growth, and one string for its dictionary), none per
// record, at one chunk and at two.
func TestReadCSVAllocsPerColumn(t *testing.T) {
	data := csvBytes(t, datagen.FlightLike(benchRows, benchCols, benchSeed))
	for _, chunks := range []int{1, 2} {
		allocs := testing.AllocsPerRun(3, func() {
			if _, _, err := relation.DecodeCSV("flight", data, chunks); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1000 {
			t.Errorf("%d chunks: decoding %d rows allocated %v times, want at most 1000", chunks, benchRows, allocs)
		}
	}
}

func BenchmarkReadCSV(b *testing.B) {
	data := csvBytes(b, datagen.FlightLike(benchRows, benchCols, benchSeed))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relation.ReadCSV("flight", bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	rel := datagen.FlightLike(benchRows, benchCols, benchSeed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relation.Encode(rel); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadCSV(b *testing.B) {
	inputs := []struct {
		name string
		rel  *relation.Relation
	}{
		{"flight", datagen.FlightLike(benchRows, benchCols, benchSeed)},
		{"messy", datagen.MessyRelation(10000, 8, 0.2, benchSeed)},
	}
	for _, in := range inputs {
		data := csvBytes(b, in.rel)
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for b.Loop() {
				rel, err := relation.ReadCSV(in.name, bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := relation.Encode(rel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEncodeSpec(b *testing.B) {
	rel := datagen.FlightLike(benchRows, benchCols, benchSeed)
	spec := make(relation.OrderSpec, rel.NumCols())
	spec[4] = relation.ColumnOrder{Direction: relation.Desc, Nulls: relation.NullsLast, Collation: relation.CollateNumeric}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := relation.EncodeSpec(rel, spec); err != nil {
			b.Fatal(err)
		}
	}
}
