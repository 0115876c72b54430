// Package bench is the experiment harness that regenerates the paper's
// evaluation (Section 5): scalability in the number of tuples (Figure 4),
// scalability in the number of attributes (Figure 5), the impact of pruning
// (Figure 6) and the per-lattice-level behaviour (Figure 7). Each experiment
// builds the synthetic stand-in datasets with the fastod.Synthetic*
// constructors, runs FASTOD and the baselines through Dataset.Run, the
// library's one run harness, and returns structured measurements that the
// odbench command renders as the same series the paper plots. A measurement's
// time is the run's own clock, Report.Elapsed.
//
// The paper reports linear growth in tuples, exponential growth in
// attributes, FASTOD ≪ ORDER for complete discovery, TANE < FASTOD, and
// orders-of-magnitude savings from pruning. Absolute numbers here differ
// (different hardware, language and data), and no test checks those runtime
// shapes. Two output claims are reproduced and pinned by the tests on the
// quick configuration: at every Figure 4 and Figure 5 point TANE's FD count
// equals FASTOD's constancy count, and at every Figure 6 point the un-pruned
// run counts at least as many ODs as the pruned one.
package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	fastod "repro"
)

// Algorithm names used in measurements.
const (
	AlgFASTOD          = "FASTOD"
	AlgFASTODNoPruning = "FASTOD-NoPruning"
	AlgTANE            = "TANE"
	AlgORDER           = "ORDER"
)

// Measurement is one data point of an experiment series: one algorithm run on
// one dataset configuration.
type Measurement struct {
	Dataset   string
	Rows      int
	Cols      int
	Algorithm string
	Elapsed   time.Duration
	// Counts is the run's Report.Counts, the discovered set-based ODs
	// (#total, #FDs, #OCDs): TANE's FDs count as constancy ODs, and ORDER's
	// count is of its list ODs' canonical image.
	Counts fastod.Count
	// ListODs is the number of list-based ODs found (ORDER only).
	ListODs int
	// TimedOut reports that the run hit its budget before finishing (ORDER on
	// wide schemas, mirroring the "* 5h" annotations in the paper).
	TimedOut bool
}

// String renders the measurement as one row of a results table.
func (m Measurement) String() string {
	status := ""
	if m.TimedOut {
		status = " *budget"
	}
	return fmt.Sprintf("%-14s rows=%-7d cols=%-3d %-18s %12v  %s%s",
		m.Dataset, m.Rows, m.Cols, m.Algorithm, m.Elapsed.Round(time.Microsecond), m.Counts, status)
}

// DatasetGen builds one of the named synthetic datasets at a given size.
type DatasetGen struct {
	Name string
	// Build returns a dataset with the requested shape.
	Build func(rows, cols int, seed int64) *fastod.Dataset
	// BaseRows is the row count used by the column-scaling experiment.
	BaseRows int
}

// Generators returns the four dataset stand-ins keyed by the paper's names.
func Generators() []DatasetGen {
	return []DatasetGen{
		{Name: "flight", Build: fastod.SyntheticFlight, BaseRows: 1000},
		{Name: "ncvoter", Build: fastod.SyntheticNCVoter, BaseRows: 1000},
		{Name: "hepatitis", Build: fastod.SyntheticHepatitis, BaseRows: 155},
		{Name: "dbtesma", Build: fastod.SyntheticDBTesma, BaseRows: 1000},
	}
}

// GeneratorByName returns the generator with the given name.
func GeneratorByName(name string) (DatasetGen, error) {
	for _, g := range Generators() {
		if g.Name == name {
			return g, nil
		}
	}
	return DatasetGen{}, fmt.Errorf("bench: unknown dataset %q", name)
}

// Measure runs one FASTOD, TANE or ORDER request on ds through Dataset.Run
// and reports it under the given dataset name. A run interrupted by the
// context or by the request's budget is a partial measurement with TimedOut
// set, not an error; an invalid request fails with Run's validation error.
func Measure(ctx context.Context, ds *fastod.Dataset, name string, req fastod.Request) (Measurement, error) {
	rep, err := ds.Run(ctx, req)
	if err != nil {
		return Measurement{}, err
	}
	m := Measurement{
		Dataset:  name,
		Rows:     ds.NumRows(),
		Cols:     ds.NumCols(),
		Elapsed:  rep.Elapsed,
		TimedOut: rep.Interrupted,
	}
	switch rep.Algorithm {
	case fastod.AlgorithmFASTOD:
		m.Algorithm = AlgFASTOD
		if req.FASTOD.DisablePruning {
			m.Algorithm = AlgFASTODNoPruning
		}
	case fastod.AlgorithmTANE:
		m.Algorithm = AlgTANE
	case fastod.AlgorithmORDER:
		m.Algorithm = AlgORDER
		m.ListODs = rep.Found
	default:
		return Measurement{}, fmt.Errorf("bench: no measurement for algorithm %q", rep.Algorithm)
	}
	m.Counts = *rep.Counts
	return m, nil
}

// FormatTable renders measurements grouped by dataset, in input order.
func FormatTable(title string, ms []Measurement) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	for _, m := range ms {
		fmt.Fprintf(&b, "%s\n", m)
	}
	return b.String()
}
