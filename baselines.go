package fastod

import (
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
	// TANEResult is the outcome of a TANE run; its Stats are the run's
	// RunStats.
	TANEResult = tane.Result
	// ORDERResult is the outcome of an ORDER run (list-based baseline). Its
	// Stats count list-lattice nodes and the longest list visited; ORDER
	// computes no stripped partitions, so the partition counters are zero.
	ORDERResult = order.Result
)
