// Package bench is the experiment harness that regenerates the paper's
// evaluation (Section 5): scalability in the number of tuples (Figure 4),
// scalability in the number of attributes (Figure 5), the impact of pruning
// (Figure 6) and the per-lattice-level behaviour (Figure 7). Each experiment
// builds the synthetic stand-in datasets, runs FASTOD and the baselines, and
// returns structured measurements that the odbench command renders as the
// same series the paper plots.
//
// Absolute numbers differ from the paper (different hardware, language and
// data), but the shapes the paper argues from — linear growth in tuples,
// exponential growth in attributes, FASTOD ≪ ORDER for complete discovery,
// TANE < FASTOD, and orders-of-magnitude savings from pruning — are
// reproduced.
package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/canonical"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/lattice"
	"repro/internal/order"
	"repro/internal/relation"
	"repro/internal/tane"
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
	// Counts reports discovered set-based ODs (#total, #FDs, #OCDs). For TANE
	// only the constancy field is populated; for ORDER the counts are of its
	// canonical image.
	Counts canonical.Count
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
	// Build returns a relation with the requested shape.
	Build func(rows, cols int, seed int64) *relation.Relation
	// BaseRows is the row count used by the column-scaling experiment.
	BaseRows int
}

// Generators returns the four dataset stand-ins keyed by the paper's names.
func Generators() []DatasetGen {
	return []DatasetGen{
		{Name: "flight", Build: datagen.FlightLike, BaseRows: 1000},
		{Name: "ncvoter", Build: datagen.NCVoterLike, BaseRows: 1000},
		{Name: "hepatitis", Build: func(rows, cols int, seed int64) *relation.Relation {
			return datagen.HepatitisLike(rows, cols, seed)
		}, BaseRows: 155},
		{Name: "dbtesma", Build: datagen.DBTesmaLike, BaseRows: 1000},
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

// Encode builds and rank-encodes one synthetic dataset.
func Encode(g DatasetGen, rows, cols int, seed int64) (*relation.Encoded, error) {
	return relation.Encode(g.Build(rows, cols, seed))
}

// RunFASTOD measures one FASTOD run. A run interrupted by the context or by
// opts.Budget is reported as a partial measurement with TimedOut set.
func RunFASTOD(ctx context.Context, enc *relation.Encoded, dataset string, opts core.Options) (Measurement, error) {
	start := time.Now()
	res, err := core.DiscoverContext(ctx, enc, opts)
	elapsed := time.Since(start)
	if err != nil {
		return Measurement{}, err
	}
	alg := AlgFASTOD
	if opts.DisablePruning {
		alg = AlgFASTODNoPruning
	}
	return Measurement{
		Dataset:   dataset,
		Rows:      enc.NumRows(),
		Cols:      enc.NumCols(),
		Algorithm: alg,
		Elapsed:   elapsed,
		Counts:    res.Counts,
		TimedOut:  res.Stats.Interrupted,
	}, nil
}

// RunTANE measures one TANE run; interrupts are reported like RunFASTOD's.
func RunTANE(ctx context.Context, enc *relation.Encoded, dataset string, cfg lattice.Config) (Measurement, error) {
	start := time.Now()
	res, err := tane.DiscoverContext(ctx, enc, cfg)
	elapsed := time.Since(start)
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{
		Dataset:   dataset,
		Rows:      enc.NumRows(),
		Cols:      enc.NumCols(),
		Algorithm: AlgTANE,
		Elapsed:   elapsed,
		Counts:    canonical.Count{Total: len(res.FDs), Constancy: len(res.FDs)},
		TimedOut:  res.Stats.Interrupted,
	}, nil
}

// RunORDER measures one ORDER run under the given budget.
func RunORDER(ctx context.Context, enc *relation.Encoded, dataset string, budget lattice.Budget) (Measurement, error) {
	start := time.Now()
	res, err := order.DiscoverContext(ctx, enc, order.Options{Budget: budget})
	elapsed := time.Since(start)
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{
		Dataset:   dataset,
		Rows:      enc.NumRows(),
		Cols:      enc.NumCols(),
		Algorithm: AlgORDER,
		Elapsed:   elapsed,
		Counts:    res.Counts,
		ListODs:   len(res.ODs),
		TimedOut:  res.Stats.Interrupted,
	}, nil
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
