package fastod_test

import (
	"context"
	"encoding/json"
	"testing"

	fastod "repro"
)

// TestReportCountSemantics checks Report.Found, Report.Counts and
// Report.Dependencies against their documented meaning for every algorithm:
// Found counts each algorithm's own findings, Counts is the canonical tally
// (TANE's FDs as constancy ODs, ORDER's Theorem-5 image, nil for bidir and
// conditional), and Dependencies renders Found entries.
func TestReportCountSemantics(t *testing.T) {
	datasets := []*fastod.Dataset{
		fastod.EmployeesExample(),
		fastod.SyntheticFlight(200, 7, 3),
		fastod.SyntheticHepatitis(80, 6, 3),
	}
	for _, ds := range datasets {
		names := ds.ColumnNames()
		run := func(req fastod.Request) *fastod.Report {
			t.Helper()
			req.Workers = 1
			rep, err := ds.Run(context.Background(), req)
			if err != nil {
				t.Fatalf("%s %s: %v", ds.Name(), req.Algorithm, err)
			}
			return rep
		}
		reps := make(map[fastod.Algorithm]*fastod.Report)
		for _, alg := range fastod.Algorithms() {
			req := fastod.Request{Algorithm: alg}
			if alg == fastod.AlgorithmORDER {
				req.Budget.MaxNodes = 2000
			}
			rep := run(req)
			reps[alg] = rep
			var found int
			switch alg {
			case fastod.AlgorithmFASTOD:
				found = len(rep.FASTOD.ODs)
			case fastod.AlgorithmTANE:
				found = len(rep.TANE.FDs)
			case fastod.AlgorithmApprox:
				found = len(rep.Approx.ODs)
			case fastod.AlgorithmBidirectional:
				found = len(rep.Bidir.ODs)
			case fastod.AlgorithmConditional:
				found = len(rep.Conditional.ODs)
			case fastod.AlgorithmORDER:
				found = len(rep.ORDER.ODs)
			}
			if rep.Found != found {
				t.Errorf("%s %s: Found = %d, want %d", ds.Name(), alg, rep.Found, found)
			}
			if deps := rep.Dependencies(names); len(deps) != rep.Found {
				t.Errorf("%s %s: %d dependencies, Found = %d", ds.Name(), alg, len(deps), rep.Found)
			}
		}

		fast := reps[fastod.AlgorithmFASTOD]
		if fast.Counts == nil || *fast.Counts != fast.FASTOD.Counts || fast.Found != fast.Counts.Total {
			t.Errorf("%s FASTOD: Found %d, Counts %v, payload counts %v", ds.Name(), fast.Found, fast.Counts, fast.FASTOD.Counts)
		}
		fds := fast.Counts.Constancy
		if got, want := reps[fastod.AlgorithmTANE].Counts, (fastod.Count{Total: fds, Constancy: fds}); got == nil || *got != want {
			t.Errorf("%s TANE: Counts %v, want FASTOD's constancy tally %v", ds.Name(), got, want)
		}
		// The zero Approx.Threshold is exact discovery.
		if exact := reps[fastod.AlgorithmApprox]; exact.Counts == nil || *exact.Counts != *fast.Counts {
			t.Errorf("%s approx at threshold 0: Counts %v, want FASTOD's %v", ds.Name(), exact.Counts, fast.Counts)
		}
		for _, alg := range []fastod.Algorithm{fastod.AlgorithmBidirectional, fastod.AlgorithmConditional} {
			if c := reps[alg].Counts; c != nil {
				t.Errorf("%s %s: Counts %v, want nil", ds.Name(), alg, c)
			}
		}

		// ORDER's Counts tally the distinct canonical ODs its list ODs map
		// to under Theorem 5.
		ord := reps[fastod.AlgorithmORDER]
		image := make(map[fastod.OD]bool)
		for _, od := range ord.ORDER.ODs {
			mapped, err := ds.MapListOD(specNames(od.Left, names), specNames(od.Right, names))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range mapped {
				image[c] = true
			}
		}
		var want fastod.Count
		for od := range image {
			want.Total++
			if od.Kind == fastod.Constancy {
				want.Constancy++
			} else {
				want.OrderCompat++
			}
		}
		if ord.Counts == nil || *ord.Counts != want {
			t.Errorf("%s ORDER: Counts %v, want the Theorem-5 image's %v", ds.Name(), ord.Counts, want)
		}

		// A count-only run tallies what it does not materialize.
		co := run(fastod.Request{FASTOD: fastod.FASTODRunOptions{CountOnly: true}})
		if co.Counts == nil || *co.Counts != *fast.Counts || co.Found != co.Counts.Total {
			t.Errorf("%s count-only: Found %d, Counts %v, want %v", ds.Name(), co.Found, co.Counts, fast.Counts)
		}
		deps := co.Dependencies(names)
		if text, err := json.Marshal(deps); err != nil || string(text) != "[]" {
			t.Errorf("%s count-only: dependencies marshal as %s, %v; want []", ds.Name(), text, err)
		}
	}
}

func specNames(spec fastod.Spec, names []string) []string {
	out := make([]string, len(spec))
	for i, a := range spec {
		out[i] = names[a]
	}
	return out
}
