package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	fastod "repro"
	"repro/internal/datagen"
	"repro/internal/relation"
)

// goldenDatasets are odgen's six generators at a small seeded size, each
// written as CSV and loaded back the way the CLI loads its -input.
func goldenDatasets(t *testing.T) []*fastod.Dataset {
	t.Helper()
	rels := []*relation.Relation{
		datagen.FlightLike(40, 6, 7),
		datagen.NCVoterLike(40, 6, 7),
		datagen.HepatitisLike(40, 6, 7),
		datagen.DBTesmaLike(40, 6, 7),
		datagen.DateDim(40),
		datagen.Employees(),
	}
	names := []string{"flight", "ncvoter", "hepatitis", "dbtesma", "datedim", "employees"}
	out := make([]*fastod.Dataset, len(rels))
	for i, rel := range rels {
		var csv bytes.Buffer
		if err := relation.WriteCSV(rel, &csv); err != nil {
			t.Fatal(err)
		}
		ds, err := fastod.LoadCSV(names[i], &csv)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ds
	}
	return out
}

// TestPrintReportGolden pins what the CLI prints for every algorithm on
// every generator, durations zeroed, plus the -count-only, -levels and
// -limit paths. ORDER is bounded by nodes alone, so its cut is a function
// of the data.
func TestPrintReportGolden(t *testing.T) {
	var cases []config
	for _, alg := range fastod.Algorithms() {
		c := config{algorithm: string(alg), threshold: 0.05, workers: 1}
		if alg == fastod.AlgorithmORDER {
			c.maxNodes = 400
		}
		cases = append(cases, c)
	}
	variants := []config{
		{algorithm: "fastod", workers: 1, countOnly: true, levels: true},
		{algorithm: "fastod", workers: 1, noPrune: true, limit: 3},
		{algorithm: "tane", workers: 1, countOnly: true},
		{algorithm: "approx", workers: 1, threshold: 0.1, limit: 2},
		{algorithm: "conditional", workers: 1, limit: 2},
		{algorithm: "order", workers: 1, maxNodes: 400, limit: 2},
	}
	var got bytes.Buffer
	for i, ds := range goldenDatasets(t) {
		run := cases
		if i == 0 {
			run = append(append([]config(nil), cases...), variants...)
		}
		for _, cfg := range run {
			rep, err := ds.Run(context.Background(), cfg.request())
			if err != nil {
				t.Fatalf("%s %+v: %v", ds.Name(), cfg, err)
			}
			rep.Elapsed = 0
			if rep.FASTOD != nil {
				for l := range rep.FASTOD.Levels {
					rep.FASTOD.Levels[l].Elapsed = 0
				}
			}
			fmt.Fprintf(&got, "=== %s %s count-only=%t levels=%t no-pruning=%t limit=%d\n",
				ds.Name(), cfg.algorithm, cfg.countOnly, cfg.levels, cfg.noPrune, cfg.limit)
			printReport(&got, cfg, ds.ColumnNames(), rep)
		}
	}
	checkGolden(t, "printreport.golden", got.Bytes())
}

// checkGolden compares got with testdata/name. On a mismatch it writes got
// to the same name in the temporary directory, to diff against the golden
// and to copy over it when the change in output is deliberate.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, _ := os.ReadFile(filepath.Join("testdata", name)) // a missing golden is a mismatch
	if bytes.Equal(got, want) {
		return
	}
	saved := filepath.Join(os.TempDir(), name)
	if err := os.WriteFile(saved, got, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Errorf("output differs from testdata/%s; the new output is in %s", name, saved)
}
