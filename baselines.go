package fastod

import (
	"context"

	"repro/internal/order"
	"repro/internal/tane"
)

// Baseline re-exports: the paper's two comparison algorithms are available
// through the public API so downstream users can reproduce the evaluation or
// use TANE when only functional dependencies are needed. Both run through the
// unified Run surface (AlgorithmTANE, AlgorithmORDER).
type (
	// FD is a minimal functional dependency as discovered by TANE.
	FD = tane.FD
	// TANEResult is the outcome of a TANE run.
	TANEResult = tane.Result
	// TANEOptions configures a TANE run.
	TANEOptions = tane.Options
	// ORDERResult is the outcome of an ORDER run (list-based baseline).
	ORDERResult = order.Result
	// ORDEROptions configures an ORDER run, including its time/node budget.
	ORDEROptions = order.Options
)

// DiscoverFDs runs the TANE baseline over the dataset and returns the
// complete set of minimal functional dependencies. This is the FD-only
// comparison point of the paper's Experiment 4; it cannot see order
// semantics.
//
// Deprecated: use Run with AlgorithmTANE, which adds context cancellation,
// budgets and progress reporting.
func (d *Dataset) DiscoverFDs(opts TANEOptions) (*TANEResult, error) {
	rep, err := d.RunWithProgress(context.Background(), Request{
		Algorithm: AlgorithmTANE,
		RunOptions: RunOptions{
			Workers:    opts.Workers,
			MaxLevel:   opts.MaxLevel,
			Budget:     opts.Budget,
			Partitions: opts.Partitions,
		},
	}, opts.Progress)
	if err != nil {
		return nil, err
	}
	return rep.TANE, nil
}

// DiscoverWithORDER runs the ORDER baseline (Langer & Naumann) over the
// dataset. ORDER's search space is factorial in the number of attributes, so
// callers should set a budget for wide schemas; a run that exceeds it reports
// a partial result with Interrupted=true.
//
// Deprecated: use Run with AlgorithmORDER and RunOptions.Budget.
func (d *Dataset) DiscoverWithORDER(opts ORDEROptions) (*ORDERResult, error) {
	rep, err := d.RunWithProgress(context.Background(), Request{
		Algorithm: AlgorithmORDER,
		RunOptions: RunOptions{
			MaxLevel: opts.MaxLevel,
			Budget:   opts.Budget,
		},
	}, opts.Progress)
	if err != nil {
		return nil, err
	}
	return rep.ORDER, nil
}
