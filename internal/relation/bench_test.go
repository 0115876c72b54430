package relation_test

import (
	"bytes"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relation"
)

// The ingest layer on the shape of the paper's tuple-scaling experiment
// (Exp-1): flight-like 20 000 rows × 10 columns, the input of the repository
// benchmark's tall workload. BenchmarkReadCSV times CSV decode plus type
// sniffing, BenchmarkEncode the default rank encoding of the decoded relation.

const benchRows, benchCols, benchSeed = 20000, 10, 2017

func BenchmarkReadCSV(b *testing.B) {
	var csv bytes.Buffer
	if err := relation.WriteCSV(datagen.FlightLike(benchRows, benchCols, benchSeed), &csv); err != nil {
		b.Fatal(err)
	}
	data := csv.Bytes()
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
