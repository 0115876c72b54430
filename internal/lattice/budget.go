package lattice

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
)

// Budget bounds the resources one discovery run may consume. It is the
// generalization of the wall-clock/node budget the ORDER baseline always had
// (its factorial search space forced the issue early); with the unified
// engine every level-wise algorithm honors the same two knobs. The zero value
// means "no budget".
//
// A run that exhausts its budget is interrupted, not failed: it stops
// cooperatively, keeps everything discovered so far and reports
// Stats.Interrupted, so a server can always afford to issue a discovery call
// on an arbitrarily wide schema.
type Budget struct {
	// Timeout interrupts the run after the given wall-clock duration
	// (0 = none). The deadline is checked before every node visit and
	// partition product, so the interrupt latency is bounded by one node of
	// work per worker, not one lattice level.
	Timeout time.Duration
	// MaxNodes interrupts the run once it has visited this many lattice
	// nodes (0 = none). It is enforced at node handout, mid-level if need
	// be: at most MaxNodes nodes are ever visited, and Stats.NodesVisited
	// equals the number of visits made.
	MaxNodes int

	// nodes is the allowance of visits left, drawn at handout; it goes
	// negative once spent. New gives each run an allowance of its own unless
	// the budget already carries one (see SharedNodes).
	nodes *atomic.Int64
}

// IsZero reports whether the budget imposes no bound at all.
func (b Budget) IsZero() bool { return b.Timeout <= 0 && b.MaxNodes <= 0 }

// SharedNodes returns b with one allowance of MaxNodes visits for every run
// handed b or a copy of it, so together those runs visit at most MaxNodes
// nodes, however many run at once. The passes of one conditional discovery
// share their budget this way. A budget without MaxNodes is returned as is.
func SharedNodes(b Budget) Budget {
	if b.MaxNodes > 0 {
		b.nodes = new(atomic.Int64)
		b.nodes.Store(int64(b.MaxNodes))
	}
	return b
}

// NodesSpent reports whether b's node allowance is used up; it is false for a
// budget that carries none.
func NodesSpent(b Budget) bool { return b.nodes != nil && b.nodes.Load() <= 0 }

// take draws up to want visits from the allowance and returns how many it
// got: all of them without an allowance, otherwise at most what was left.
func (b Budget) take(want int) int {
	if b.nodes == nil {
		return want
	}
	left := b.nodes.Add(-int64(want)) + int64(want)
	return int(min(int64(want), max(left, 0)))
}

// ProgressEvent is one per-level progress report of a traversal, delivered to
// Config.Progress at every level barrier, in level order, and once more for
// the partially visited level of an interrupted run. Long discoveries on wide
// schemas can run for minutes; the event stream is what lets a caller render
// a progress bar, enforce its own policies, or decide to cancel the context.
type ProgressEvent struct {
	// Level is the lattice level that just completed or was interrupted
	// (for the set lattice, the size of the attribute sets processed; for
	// ORDER's list lattice, the length of the attribute lists).
	Level int
	// Nodes is the number of lattice nodes visited at this level.
	Nodes int
	// NodesVisited is the cumulative number of nodes visited so far.
	NodesVisited int
	// PartitionsCached is the number of stripped partitions currently
	// retained: the shared store's size when one is configured (under any
	// order spec, the dataset's one store), otherwise those of the levels
	// the run keeps (after a complete level l: levels l-1, l and the
	// generated l+1). Zero for algorithms that do not use partitions (ORDER).
	PartitionsCached int
	// Elapsed is the wall-clock time since the run started.
	Elapsed time.Duration
	// Slice identifies the condition slice a conditional-discovery event
	// reports on (nil for unconditional traversals and for the global pass of
	// a conditional run). Conditional discovery emits one event per completed
	// slice with Level = the slice-progress marker; Slice carries which
	// condition that was.
	Slice *SliceInfo
}

// SliceInfo describes one condition slice of a conditional discovery run: the
// equality condition defining it and how many rows satisfy it.
type SliceInfo struct {
	// Attr is the condition attribute (column index) and Value the encoded
	// value the slice fixes it to.
	Attr  int
	Value int32
	// Rows is the number of rows in the slice.
	Rows int
}

// NamesString renders the condition over attribute names, e.g. "tax=rank(2)":
// raw values are not retained in the encoded relation, so the value is its
// rank. The CLI's report and progress lines and odserve's JSON all render
// conditions through it.
func (s SliceInfo) NamesString(names []string) string {
	return fmt.Sprintf("%s=rank(%d)", bitset.Name(names, s.Attr), s.Value)
}
