package core

import (
	"slices"
	"time"

	"repro/internal/canonical"
)

// The worker pool and node handout live in internal/lattice since the engine
// extraction; this file keeps FASTOD's deterministic merge: every worker
// writes what its nodes find into its own shard, and the traversal goroutine
// folds the shards into the result, so a parallel run is byte-identical to a
// sequential one.

// checkShard accumulates what one worker's nodes find: validation counters,
// the pruned-node count and the ODs across the run, node and OD counts for
// the level being visited. Shards are padded so that concurrent writes by
// neighbouring workers do not false-share. Addition commutes and the OD list
// is sorted in a total order at the end of the run, so the folded totals
// match a sequential run exactly.
type checkShard struct {
	fdChecks    int
	swapChecks  int
	keyPrunes   int
	nodesPruned int
	ods         []canonical.OD

	nodes       int
	constancy   int
	orderCompat int
	_           [64]byte
}

// emit records one discovered OD in the calling worker's shard. In CountOnly
// mode only the per-kind counters are kept, so the no-pruning runs (whose OD
// counts explode into the millions) stay within memory budget.
func (d *discoverer) emit(sh *checkShard, od canonical.OD) {
	if od.Kind == canonical.Constancy {
		sh.constancy++
	} else {
		sh.orderCompat++
	}
	if !d.opts.CountOnly {
		sh.ods = append(sh.ods, od)
	}
}

// completed counts one finished node and its pruning decision.
func (sh *checkShard) completed(pruned bool) {
	sh.nodes++
	if pruned {
		sh.nodesPruned++
	}
}

// levelEnd folds the shards' level counts into the result, stamps the level's
// wall-clock time and, when requested, publishes its LevelStat. The engine
// invokes it on the traversal goroutine after the level's last node, in
// level order, including for the partially visited level of an interrupted
// run.
func (d *discoverer) levelEnd(l int, elapsed time.Duration) {
	st := LevelStat{Level: l, Elapsed: elapsed}
	for i := range d.shards {
		sh := &d.shards[i]
		st.Nodes += sh.nodes
		st.Constancy += sh.constancy
		st.OrderCompat += sh.orderCompat
		sh.nodes, sh.constancy, sh.orderCompat = 0, 0, 0
	}
	d.result.Counts.Constancy += st.Constancy
	d.result.Counts.OrderCompat += st.OrderCompat
	d.result.Counts.Total += st.Constancy + st.OrderCompat
	if d.opts.CollectLevelStats && st.Nodes > 0 {
		d.result.Levels = append(d.result.Levels, st)
	}
}

// finish folds the shards' run counters and ODs (into one exact-size list)
// and the engine's traversal counters into the result.
func (d *discoverer) finish() {
	ods := make([][]canonical.OD, len(d.shards))
	for i, sh := range d.shards {
		d.result.Stats.FDChecks += sh.fdChecks
		d.result.Stats.SwapChecks += sh.swapChecks
		d.result.Stats.KeyPrunes += sh.keyPrunes
		d.result.Stats.NodesPruned += sh.nodesPruned
		ods[i] = sh.ods
	}
	d.result.ODs = slices.Concat(ods...)
	d.result.Stats.Stats = d.eng.Stats()
}
