package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	fastod "repro"
	"repro/internal/datagen"
	"repro/internal/relation"
)

// TestDiscoverResponseGolden pins the discover reply body for every
// algorithm on each of odgen's six generators at a small seeded size,
// loaded from CSV as an upload is, plus a count-only FASTOD reply. Elapsed
// is zeroed and every run is sequential, so the stats are fixed too; ORDER
// is bounded by nodes alone.
func TestDiscoverResponseGolden(t *testing.T) {
	rels := map[string]*relation.Relation{
		"flight":    datagen.FlightLike(40, 6, 7),
		"ncvoter":   datagen.NCVoterLike(40, 6, 7),
		"hepatitis": datagen.HepatitisLike(40, 6, 7),
		"dbtesma":   datagen.DBTesmaLike(40, 6, 7),
		"datedim":   datagen.DateDim(40),
		"employees": datagen.Employees(),
	}
	var got bytes.Buffer
	for _, name := range []string{"flight", "ncvoter", "hepatitis", "dbtesma", "datedim", "employees"} {
		var csv bytes.Buffer
		if err := relation.WriteCSV(rels[name], &csv); err != nil {
			t.Fatal(err)
		}
		ds, err := fastod.LoadCSV(name, &csv)
		if err != nil {
			t.Fatal(err)
		}
		var reqs []fastod.Request
		for _, alg := range fastod.Algorithms() {
			req := fastod.Request{Algorithm: alg, RunOptions: fastod.RunOptions{Workers: 1}}
			switch alg {
			case fastod.AlgorithmApprox:
				req.Approx.Threshold = 0.05
			case fastod.AlgorithmORDER:
				req.Budget.MaxNodes = 400
			}
			reqs = append(reqs, req)
		}
		if name == "flight" {
			reqs = append(reqs, fastod.Request{RunOptions: fastod.RunOptions{Workers: 1}, FASTOD: fastod.FASTODRunOptions{CountOnly: true}})
		}
		for _, req := range reqs {
			rep, err := ds.Run(context.Background(), req)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, req, err)
			}
			rep.Elapsed = 0
			fmt.Fprintf(&got, "=== %s %s count_only=%t\n", name, rep.Algorithm, req.FASTOD.CountOnly)
			enc := json.NewEncoder(&got)
			enc.SetEscapeHTML(false)
			if err := enc.Encode(discoverResponse(name, req, rep, ds.ColumnNames(), false)); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkGolden(t, "discover.golden", got.Bytes())
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
