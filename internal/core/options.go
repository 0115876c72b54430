// Package core implements FASTOD, the paper's order-dependency discovery
// algorithm (Section 4): a level-wise traversal of the set-containment
// lattice of attribute sets that emits the complete, minimal set of set-based
// canonical ODs holding on a relation instance. The package also provides the
// un-pruned variant used for the Figure 6 ablation and per-level statistics
// used for the Figure 7 experiment.
package core

import (
	"time"

	"repro/internal/canonical"
	"repro/internal/lattice"
)

// Options configures a discovery run. The zero value is the paper's FASTOD
// configuration with all optimizations enabled, running one worker per
// available CPU.
type Options struct {
	// Workers is the number of goroutines processing lattice nodes. A node
	// only depends on its immediate subsets, so the per-node phases —
	// candidate-set derivation, FD/swap validation and partition products —
	// run concurrently across nodes and the results are merged at node
	// completion: counters commute and the OD list is sorted in a total order
	// at the end, so the result (ODs, counts and work counters) is identical
	// to a sequential run regardless of the setting. 0 selects
	// runtime.GOMAXPROCS(0); 1 forces the fully sequential path with no
	// goroutines; values below zero are treated as 1.
	Workers int

	// Budget bounds the run's wall-clock time and visited lattice nodes (see
	// lattice.Budget; the zero value means no bound). An exhausted budget
	// interrupts the run cooperatively: the Result carries every OD found so
	// far with coherent partial statistics and Stats.Interrupted set, instead
	// of an error.
	Budget lattice.Budget

	// Progress, when non-nil, receives one event per completed lattice level
	// (including the partial level of an interrupted run). It is invoked from
	// the discovery goroutine, never concurrently.
	Progress func(lattice.ProgressEvent)

	// Partitions, when non-nil, is a shared partition store: the run consults
	// it before computing any stripped partition and records every partition
	// it derives, so partitions are reused across runs that pass the same
	// store — the pruned and un-pruned passes of one experiment, repeated
	// runs on the same dataset, or the TANE/approximate/bidirectional
	// algorithms profiling the same relation. The store is bounded (see
	// lattice.NewPartitionStore) and must only ever be shared between runs
	// over the same relation instance. Nil disables cross-run caching; the
	// output is identical either way.
	Partitions *lattice.PartitionStore

	// DisablePruning turns off the minimality machinery entirely (candidate
	// sets C+c/C+s, node deletion, key pruning). Every valid OD — minimal or
	// not — is then enumerated and verified, which reproduces the
	// "FASTOD-No Pruning" series of Figure 6. The traversal still proceeds
	// level by level over the set lattice.
	DisablePruning bool

	// DisableKeyPruning turns off the Lemma 12/13 shortcut that skips
	// validation when the candidate's context is a superkey (its stripped
	// partition is empty). Used by the ablation benchmarks.
	DisableKeyPruning bool

	// DisableNodePruning turns off pruneLevels (Lemma 11): nodes whose
	// candidate sets are both empty are then kept and keep generating
	// children. Used by the ablation benchmarks.
	DisableNodePruning bool

	// CountOnly suppresses materializing the discovered ODs and only counts
	// them. This keeps the no-pruning runs (whose OD counts explode into the
	// millions) within memory budget.
	CountOnly bool

	// MaxLevel, when positive, stops the traversal after processing the given
	// lattice level (context size + right-hand side attributes). The output is
	// then complete only up to that level; Figure 7 uses it to report
	// per-level behaviour.
	MaxLevel int

	// CollectLevelStats records per-level timing and OD counts (Figure 7).
	CollectLevelStats bool
}

// LevelStat records what happened while processing one lattice level.
type LevelStat struct {
	// Level is the lattice level l, i.e. the size of the attribute sets
	// processed. Canonical ODs emitted at level l have contexts of size l-1
	// (constancy) or l-2 (order compatibility).
	Level int
	// Nodes is the number of attribute sets processed at this level after any
	// pruning of the previous level.
	Nodes int
	// Constancy and OrderCompat count the ODs emitted at this level.
	Constancy   int
	OrderCompat int
	// Elapsed is the wall-clock time spent in computeODs, pruneLevels and
	// calculateNextLevel for this level.
	Elapsed time.Duration
}

// Stats aggregates counters describing the work a discovery run performed.
type Stats struct {
	// Stats holds the engine's traversal counters: nodes visited, the
	// deepest level reached, partition store hits and misses (zero without
	// Options.Partitions) and whether the run was interrupted, in which case
	// the result holds everything discovered up to the interrupt (complete
	// through the last fully processed lattice level).
	lattice.Stats
	// FDChecks and SwapChecks count the validation operations performed.
	FDChecks   int
	SwapChecks int
	// KeyPrunes counts validations skipped because the context was a superkey.
	KeyPrunes int
	// NodesPruned counts lattice nodes deleted by pruneLevels.
	NodesPruned int
}

// Result is the outcome of a discovery run.
type Result struct {
	// ODs is the discovered set of canonical ODs, sorted deterministically.
	// With Options.CountOnly it is nil.
	ODs []canonical.OD
	// Counts tallies the discovered ODs by kind, matching the way the paper
	// reports results ("#ODs (#FDs + #OCDs)"). It is filled even in
	// CountOnly mode.
	Counts canonical.Count
	// Levels holds per-level statistics when Options.CollectLevelStats is set.
	Levels []LevelStat
	// Stats holds aggregate work counters.
	Stats Stats
	// Elapsed is the total wall-clock duration of the run.
	Elapsed time.Duration
	// ColumnNames echoes the relation's attribute names so results can be
	// rendered without carrying the input around.
	ColumnNames []string
}

// ConstancyODs returns only the constancy (FD-flavoured) ODs of the result.
func (r *Result) ConstancyODs() []canonical.OD {
	return r.filter(canonical.Constancy)
}

// OrderCompatibleODs returns only the order-compatibility ODs of the result.
func (r *Result) OrderCompatibleODs() []canonical.OD {
	return r.filter(canonical.OrderCompatible)
}

func (r *Result) filter(kind canonical.Kind) []canonical.OD {
	var out []canonical.OD
	for _, od := range r.ODs {
		if od.Kind == kind {
			out = append(out, od)
		}
	}
	return out
}
