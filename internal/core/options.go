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
// available CPU. Workers, MaxLevel, Budget, Progress and Partitions are the
// engine's run settings: DiscoverContext copies them into one lattice.Config,
// whose fields document them. Flags are FASTOD's own.
type Options struct {
	// Workers is lattice.Config.Workers: goroutines per lattice level (0 =
	// GOMAXPROCS, 1 = sequential). The result — ODs, counts and work
	// counters — is identical to a sequential run for every setting.
	Workers int

	// MaxLevel is lattice.Config.MaxLevel: when positive, the traversal
	// stops after the given lattice level (context size + right-hand side
	// attributes), so the output is complete only up to that level; Figure
	// 7 uses it to report per-level behaviour.
	MaxLevel int

	// Budget is lattice.Config.Budget: an exhausted budget interrupts the
	// run cooperatively, and the Result carries every OD found so far with
	// Stats.Interrupted set instead of an error.
	Budget lattice.Budget

	// Progress is lattice.Config.Progress: one event per completed lattice
	// level, from the discovery goroutine, never concurrently.
	Progress func(lattice.ProgressEvent)

	// Partitions is lattice.Config.Partitions: a store shared with other
	// runs over the same relation instance (the pruned and un-pruned passes
	// of one experiment, repeated runs on one dataset, or the other
	// set-lattice algorithms). The output is identical with or without it.
	Partitions *lattice.PartitionStore

	Flags
}

// Flags are FASTOD's own switches: the ablations of Figure 6 and the
// per-level statistics of Figure 7. The zero value is the paper's
// configuration with every optimization enabled. The tags are their JSON
// names in an odserve request's "fastod" block.
type Flags struct {
	// DisablePruning turns off the minimality machinery entirely (candidate
	// sets C+c/C+s, node deletion, key pruning). Every valid OD — minimal or
	// not — is then enumerated and verified, which reproduces the
	// "FASTOD-No Pruning" series of Figure 6. The traversal still proceeds
	// level by level over the set lattice.
	DisablePruning bool `json:"disable_pruning,omitempty"`

	// DisableKeyPruning turns off the Lemma 12/13 shortcut that skips
	// validation when the candidate's context is a superkey (its stripped
	// partition is empty). Used by the ablation benchmarks.
	DisableKeyPruning bool `json:"disable_key_pruning,omitempty"`

	// DisableNodePruning turns off pruneLevels (Lemma 11): nodes whose
	// candidate sets are both empty are then kept and keep generating
	// children. Used by the ablation benchmarks.
	DisableNodePruning bool `json:"disable_node_pruning,omitempty"`

	// CountOnly suppresses materializing the discovered ODs and only counts
	// them. This keeps the no-pruning runs (whose OD counts explode into the
	// millions) within memory budget. Conditional discovery ignores it: its
	// global-cover comparison needs the ODs.
	CountOnly bool `json:"count_only,omitempty"`

	// CollectLevelStats records per-level timing and OD counts (Figure 7).
	CollectLevelStats bool `json:"collect_level_stats,omitempty"`
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
