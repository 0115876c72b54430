package relation_test

import (
	"bytes"
	"fmt"
	"runtime"
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
// with OrderSpecs makes, under each collation.

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

// TestReadCSVReservesByBytes decodes 8 MiB whose first 1 100 rows are
// distinct and whose other 2.1 M rows are all "1,2", at one chunk and at
// two. A chunk that finds a column mostly distinct after probing its first
// rows reserves that column's table for the distinct count its scanned
// bytes project, not for the chunk's row bound. A reservation by rows
// allocates 118.5 MB at GOMAXPROCS 1 and 71.9 MB at 2, 14.1 and 8.6 times
// the input; one by bytes allocates 55.2 MB and 40.3 MB, of which the
// input's copy and the row ids take 25.2 MB. A race-detector build
// allocates one input's size more, hence a bound of 8 times the input.
func TestReadCSVReservesByBytes(t *testing.T) {
	var b bytes.Buffer
	b.WriteString("a,b\n")
	for i := range 1100 {
		fmt.Fprintf(&b, "%d,%d\n", 10_000_000+i, 10_000_000+i)
	}
	for b.Len() < 8<<20 {
		b.WriteString("1,2\n")
	}
	limit := uint64(8 * b.Len())
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := relation.ReadCSV("skewed", bytes.NewReader(b.Bytes()))
		runtime.ReadMemStats(&after)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("GOMAXPROCS %d: decoding %d bytes allocated %d bytes, want at most %d (8 times the input)", procs, b.Len(), got, limit)
		}
	}
}

// TestEncodeBytes pins the encoding's allocation on the benchmark's
// flight-like input. Per column it allocates the rows' ranks (4 bytes a
// row), a rank slot per distinct value (4 bytes) and a pointer-free key per
// distinct value (16 bytes), and it may exceed that sum by a tenth for
// size-class rounding and the result's headers. Keys that held two strings
// took 64 bytes per distinct value: 4.05 MB here, against 1.85 MB.
func TestEncodeBytes(t *testing.T) {
	rel := datagen.FlightLike(benchRows, benchCols, benchSeed)
	want := 0
	for _, c := range rel.Columns {
		want += 4*len(c.IDs) + (4+16)*len(c.Dict)
	}
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := relation.Encode(rel); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > uint64(want+want/10) {
		t.Errorf("Encode allocated %d bytes per run, want at most %d (+10 %%)", got, want)
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

// BenchmarkEncodeSpec re-encodes the relation with one non-default column,
// flight_sk, whose 20 000 values are all distinct, once per collation, so
// each key path is timed: the default collation's exact integers (desc,
// NULLs last), bytewise and lowered strings, floats, dates (all fallback
// values on an integer column) and a rank list of its first 16 values.
func BenchmarkEncodeSpec(b *testing.B) {
	rel := datagen.FlightLike(benchRows, benchCols, benchSeed)
	const ci = 1
	orders := []relation.ColumnOrder{
		{Direction: relation.Desc, Nulls: relation.NullsLast},
		{Collation: relation.CollateLexicographic},
		{Direction: relation.Desc, Nulls: relation.NullsLast, Collation: relation.CollateNumeric},
		{Collation: relation.CollateDate},
		{Collation: relation.CollateCaseInsensitive},
		{Collation: relation.CollateRank, Ranks: rel.Columns[ci].Dict[:16]},
	}
	for _, co := range orders {
		spec := make(relation.OrderSpec, rel.NumCols())
		spec[ci] = co
		b.Run(co.Collation.String(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := relation.EncodeSpec(rel, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
