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
			if err := enc.Encode(discoverResponse(name, req, rep, ds.ColumnNames())); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkGolden(t, "discover.golden", got.Bytes())
}

// TestDiscoverRequestGolden pins the request wire: the json.Marshal bytes of
// a fixed list of requests, as a Go client such as odperf sends them, and
// the Fingerprint of each decoded body. Every option block appears nil, zero
// and set, condition_attrs absent, empty and listed, the approx threshold
// at 0 and 0.05, and one order spec.
func TestDiscoverRequestGolden(t *testing.T) {
	reqs := []struct {
		name string
		req  DiscoverRequest
	}{
		{"empty", DiscoverRequest{}},
		{"run options", DiscoverRequest{Algorithm: "fastod", Workers: 2, MaxLevel: 3, TimeoutMS: 1500, MaxNodes: 1000}},
		{"fastod zero", DiscoverRequest{FASTOD: &FASTODOptions{}}},
		{"fastod set", DiscoverRequest{FASTOD: &FASTODOptions{DisablePruning: true, DisableKeyPruning: true, DisableNodePruning: true, CountOnly: true, CollectLevelStats: true}}},
		{"fastod on tane", DiscoverRequest{Algorithm: "tane", FASTOD: &FASTODOptions{DisableKeyPruning: true}}},
		{"approx nil", DiscoverRequest{Algorithm: "approx"}},
		{"approx zero", DiscoverRequest{Algorithm: "approx", Approx: &ApproxOptions{}}},
		{"approx 0.05", DiscoverRequest{Algorithm: "approx", Approx: &ApproxOptions{Threshold: 0.05}}},
		{"approx on fastod", DiscoverRequest{Approx: &ApproxOptions{Threshold: 0.05}}},
		{"conditional nil", DiscoverRequest{Algorithm: "conditional"}},
		{"conditional zero", DiscoverRequest{Algorithm: "conditional", Conditional: &ConditionalOptions{}}},
		{"conditional set", DiscoverRequest{Algorithm: "conditional", Conditional: &ConditionalOptions{MaxConditionCardinality: 8, MinSliceRows: 2}}},
		{"conditional attrs empty", DiscoverRequest{Algorithm: "conditional", Conditional: &ConditionalOptions{ConditionAttrs: []int{}}}},
		{"conditional attrs", DiscoverRequest{Algorithm: "conditional", Conditional: &ConditionalOptions{MaxConditionCardinality: 8, ConditionAttrs: []int{0, 2}}}},
		{"conditional with fastod", DiscoverRequest{Algorithm: "conditional", MaxLevel: 2, FASTOD: &FASTODOptions{CountOnly: true, DisableNodePruning: true}}},
		{"conditional on bidir", DiscoverRequest{Algorithm: "bidir", Conditional: &ConditionalOptions{MinSliceRows: 9}}},
		{"order spec", DiscoverRequest{Algorithm: "order", MaxNodes: 400, OrderSpecs: []OrderSpecJSON{{Column: "sal", Direction: "desc", Nulls: "last", Collation: "ci"}}}},
		{"every block", DiscoverRequest{
			Algorithm: "conditional", Workers: 1, TimeoutMS: 50,
			FASTOD:      &FASTODOptions{CollectLevelStats: true},
			Approx:      &ApproxOptions{Threshold: 0.05},
			Conditional: &ConditionalOptions{MinSliceRows: 3, ConditionAttrs: []int{2, 0}},
		}},
	}
	var got bytes.Buffer
	for _, tc := range reqs {
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		var decoded DiscoverRequest
		if err := json.Unmarshal(body, &decoded); err != nil {
			t.Fatal(err)
		}
		req, err := decoded.toRequest()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fmt.Fprintf(&got, "=== %s\n%s\n%s\n", tc.name, body, req.Fingerprint())
	}
	checkGolden(t, "request.golden", got.Bytes())
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
