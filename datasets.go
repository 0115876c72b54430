package fastod

import (
	"fmt"

	"repro/internal/datagen"
	"repro/internal/relation"
)

// This file exposes the synthetic datasets used throughout the examples,
// tests and benchmarks. The paper evaluates on four datasets (flight,
// ncvoter, hepatitis, dbtesma) that cannot be redistributed; the generators
// below produce stand-ins with the same schema sizes and dependency
// structure.

// EmployeesExample returns Table 1 of the paper: the employee salary/tax
// relation used as the running example (6 tuples, 9 attributes).
func EmployeesExample() *Dataset {
	return mustDataset(datagen.Employees())
}

// DateDimExample returns a TPC-DS-style date dimension with the given number
// of days, used by the query-optimization example (Query 1 of the paper).
func DateDimExample(days int) *Dataset {
	return mustDataset(datagen.DateDim(days))
}

// SyntheticFlight returns a flight-like dataset: a constant year column, a
// surrogate key, FD hierarchies and order-compatible schedule columns.
func SyntheticFlight(rows, cols int, seed int64) *Dataset {
	return mustDataset(datagen.FlightLike(rows, cols, seed))
}

// SyntheticNCVoter returns an ncvoter-like dataset: high-cardinality columns
// with few FDs and many order-compatible pairs.
func SyntheticNCVoter(rows, cols int, seed int64) *Dataset {
	return mustDataset(datagen.NCVoterLike(rows, cols, seed))
}

// SyntheticHepatitis returns a hepatitis-like dataset: very few rows and tiny
// categorical domains, which makes many ODs hold. Passing rows <= 0 uses the
// original dataset's 155 rows.
func SyntheticHepatitis(rows, cols int, seed int64) *Dataset {
	return mustDataset(datagen.HepatitisLike(rows, cols, seed))
}

// SyntheticDBTesma returns a dbtesma-like dataset: rich in functional
// dependencies with almost no order-compatible pairs.
func SyntheticDBTesma(rows, cols int, seed int64) *Dataset {
	return mustDataset(datagen.DBTesmaLike(rows, cols, seed))
}

// SyntheticMessy returns a NULL-dense, mixed-type dataset cycling through
// datagen's messy column flavors (integers, inconsistently spelled floats,
// case-varied strings, dates, mixed-layout dates, all-NULL columns), with
// each cell independently NULL at the given density. It exists to stress the
// ordering-semantics layer: NULL placement, collation overrides and the type
// sniffer's fallbacks, rather than the lattice.
func SyntheticMessy(rows, cols int, nullDensity float64, seed int64) *Dataset {
	return mustDataset(datagen.MessyRelation(rows, cols, nullDensity, seed))
}

// WithSwapViolations returns a copy of the dataset in which n pairs of values
// of the named column have been swapped between rows, along with the affected
// row indexes. It is used by the data-quality example to simulate errors that
// violate previously holding ODs.
func (d *Dataset) WithSwapViolations(column string, n int, seed int64) (*Dataset, []int, error) {
	dirty, affected, err := datagen.InjectSwapViolations(d.rel, column, n, seed)
	if err != nil {
		return nil, nil, err
	}
	ds, err := newDataset(dirty)
	if err != nil {
		return nil, nil, err
	}
	return ds, affected, nil
}

func mustDataset(rel *relation.Relation) *Dataset {
	ds, err := newDataset(rel)
	if err != nil {
		panic(fmt.Sprintf("fastod: building built-in dataset %q: %v", rel.Name, err))
	}
	return ds
}
