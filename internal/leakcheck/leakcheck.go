// Package leakcheck asserts that a test does not leak goroutines.
//
// The engine's containment contract is not just "Run returns an error instead
// of crashing" but "and every worker it started has exited" — a contained
// panic that leaves a worker parked on a condition variable passes the first
// half and fails the second invisibly, until enough leaked workers pile up to
// matter. Check makes the second half observable: it snapshots the goroutine
// count when called and, at cleanup time, polls until the count returns to
// the snapshot or a deadline passes.
//
// The check is count-based rather than stack-based on purpose: it needs no
// allow-list maintenance, and the suites that use it (engine, server,
// chaos) create goroutines in the hundreds per test, so an off-by-a-few
// steady-state drift would still be caught. Runtime-internal helpers that
// appear once per process (e.g. the first timer goroutine) are absorbed by
// calling Check after the suite has warmed up, and by the retry loop.
package leakcheck

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// settleTimeout is how long the cleanup waits for workers to drain before
// declaring a leak. Workers exit asynchronously after the coordinator returns
// (the engine's contract is "will exit", not "have exited"), so the wait has
// to be generous enough for a loaded CI runner.
const settleTimeout = 2 * time.Second

// Check snapshots the current goroutine count and registers a cleanup that
// fails t if the count has not returned to the snapshot within ~2s. Call it
// at the top of a test (not a parallel one — the count is process-global).
func Check(t *testing.T) {
	t.Helper()
	snap := Snap()
	t.Cleanup(func() {
		if msg, ok := snap.Settle(settleTimeout); !ok {
			t.Error(msg)
		}
	})
}

// A Snapshot is a point-in-time goroutine count to settle back to. It exists
// so the settle logic is testable without a failing *testing.T: Check is
// Snap + Settle wired into t.Cleanup.
type Snapshot struct {
	before int
}

// Snap records the current goroutine count.
func Snap() Snapshot {
	return Snapshot{before: runtime.NumGoroutine()}
}

// Settle polls until the goroutine count returns to (or below) the snapshot,
// or timeout passes. It reports ok=true when the count settled; otherwise the
// returned message describes the leak, including all goroutine stacks.
// A count below the snapshot is fine: goroutines that predate the snapshot
// (runtime helpers, another test's stragglers) may exit during the wait.
func (s Snapshot) Settle(timeout time.Duration) (msg string, ok bool) {
	deadline := time.Now().Add(timeout)
	var now int
	for {
		now = runtime.NumGoroutine()
		if now <= s.before || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if now > s.before {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		return fmt.Sprintf("goroutine leak: %d before, %d after\n%s", s.before, now, buf[:n]), false
	}
	return "", true
}
