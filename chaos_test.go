package fastod_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	fastod "repro"
	"repro/internal/faultinject"
	"repro/internal/leakcheck"
)

// The chaos sweep drives every registered engine fault point through every
// algorithm, two worker counts and two independently seeded fault schedules,
// with both fault actions, and asserts the containment contract end to end
// at the public API:
//
//   - the process survives every combination (the suite running to completion
//     is itself the assertion);
//   - a fault with a degradation path (store lookup/eviction errors) leaves
//     the run's result identical to the fault-free baseline;
//   - a fault without one (panics anywhere, errors at must-succeed points)
//     surfaces as fastod.ErrInternal with a captured stack, never as a crash
//     or a silently wrong report;
//   - a schedule whose fault is never reached behaves exactly like no fault,
//     and the faultinject.NodeSteal control, which no code hits, is never
//     reached at all;
//   - every engine fault point fires at least once under each action, so no
//     point can drift off the hot path unnoticed;
//   - no combination leaks goroutines, and after the whole sweep every
//     algorithm still produces the baseline result (nothing was poisoned).
func TestChaosEngineFaults(t *testing.T) {
	leakcheck.Check(t)
	ctx := context.Background()
	ds := fastod.SyntheticFlight(100, 5, 2017)

	requests := map[fastod.Algorithm]fastod.Request{
		fastod.AlgorithmFASTOD:        {Algorithm: fastod.AlgorithmFASTOD},
		fastod.AlgorithmTANE:          {Algorithm: fastod.AlgorithmTANE},
		fastod.AlgorithmApprox:        {Algorithm: fastod.AlgorithmApprox, Approx: fastod.ApproxRunOptions{Threshold: 0.1}},
		fastod.AlgorithmBidirectional: {Algorithm: fastod.AlgorithmBidirectional},
		fastod.AlgorithmConditional:   {Algorithm: fastod.AlgorithmConditional},
		fastod.AlgorithmORDER:         {Algorithm: fastod.AlgorithmORDER},
	}

	// smallStoreView returns a fresh view of the dataset with its own
	// partition store, tight enough that the eviction path actually runs
	// (everything fits in a store at the default bound, and an eviction
	// point that is never reached tests nothing).
	smallStoreView := func() *fastod.Dataset {
		v := ds.Project(ds.NumCols())
		v.EnablePartitionCache(1 << 10)
		return v
	}

	baseline := make(map[fastod.Algorithm]int)
	for alg, req := range requests {
		rep, err := smallStoreView().Run(ctx, req)
		if err != nil {
			t.Fatalf("baseline %s: %v", alg, err)
		}
		baseline[alg] = rep.Found
	}

	// The sweep counts outcomes so it can assert about itself: a refactor
	// that silently moves a fault point off the hot path (nothing fires any
	// more) must fail the suite, not just make it vacuous.
	var firedPanic, firedDegrade, unfired int
	type pointAction struct {
		point  faultinject.Point
		action faultinject.Action
	}
	fired := make(map[pointAction]int)
	actions := []faultinject.Action{faultinject.ActionPanic, faultinject.ActionError}

	// Every combination runs under two fault schedules, each drawn from its
	// own seed. They are labelled "dag" and "barrier", the names of the two
	// lattice schedulers the sweep used to compare, so that every subtest
	// keeps its name now that one traversal serves all algorithms.
	schedules := []string{"dag", "barrier"}
	points := append(slices.Clone(faultinject.EnginePoints), faultinject.NodeSteal)

	seed := int64(0)
	for _, point := range points {
		for alg, baseReq := range requests {
			for _, schedule := range schedules {
				for _, workers := range []int{1, 4} {
					for _, action := range actions {
						seed++
						name := fmt.Sprintf("%s/%s/%s/w%d/%s", point, alg, schedule, workers, action)
						t.Run(name, func(t *testing.T) {
							req := baseReq
							req.Workers = workers
							view := smallStoreView()
							plan := faultinject.Seeded(seed, point, action, 40, 0)
							defer faultinject.Enable(plan)()

							rep, err := view.Run(ctx, req)

							if point == faultinject.NodeSteal && plan.Hits(point) != 0 {
								t.Fatalf("the %s control was reached %d times; no code may hit it", point, plan.Hits(point))
							}
							if plan.Fired() == 0 {
								// The scheduled hit was never reached (the
								// NodeSteal control, an engine point ORDER
								// never passes, or a schedule past the run's
								// hit count): the run must be
								// indistinguishable from a fault-free one.
								unfired++
								if err != nil {
									t.Fatalf("unfired fault changed the run: %v", err)
								}
								if got := rep.Found; got != baseline[alg] {
									t.Fatalf("unfired fault changed the result: %d deps, want %d", got, baseline[alg])
								}
								return
							}
							fired[pointAction{point, action}]++

							degradable := action == faultinject.ActionError &&
								(point == faultinject.StoreGet || point == faultinject.StoreEvict)
							if degradable {
								firedDegrade++
								// Store faults have a defined degradation path
								// (recompute on failed Get, overshoot on failed
								// evict): the run completes and the result is
								// exactly the baseline.
								if err != nil {
									t.Fatalf("degradable %s fault failed the run: %v", point, err)
								}
								if rep.Interrupted {
									t.Fatal("degraded run marked interrupted")
								}
								if got := rep.Found; got != baseline[alg] {
									t.Fatalf("degraded run found %d deps, baseline %d", got, baseline[alg])
								}
								return
							}

							// Every other fired fault is a panic by the time it
							// reaches a worker (Hit escalates errors at
							// must-succeed points) and must surface as a typed
							// internal error with the stack attached.
							firedPanic++
							if err == nil {
								t.Fatalf("fired %s fault at hit %d, but the run succeeded", point, plan.Hits(point))
							}
							if !errors.Is(err, fastod.ErrInternal) {
								t.Fatalf("fired fault returned %v (%T), want fastod.ErrInternal", err, err)
							}
							var ie *fastod.InternalError
							if !errors.As(err, &ie) {
								t.Fatalf("error %v does not unwrap to *fastod.InternalError", err)
							}
							if len(ie.Stack) == 0 {
								t.Error("internal error carries no stack")
							}
							if rep != nil {
								t.Errorf("internal error came with a non-nil report")
							}
						})
					}
				}
			}
		}
	}

	t.Logf("chaos sweep: %d contained panics, %d degraded runs, %d unfired schedules", firedPanic, firedDegrade, unfired)
	if firedPanic < 20 {
		t.Errorf("only %d combinations exercised the panic-containment path; the fault points have drifted off the hot paths", firedPanic)
	}
	if firedDegrade < 4 {
		t.Errorf("only %d combinations exercised a degradation path", firedDegrade)
	}
	for _, point := range faultinject.EnginePoints {
		for _, action := range actions {
			if fired[pointAction{point, action}] == 0 {
				t.Errorf("%s never fired under %s; the point has drifted off the hot path or its store never fills", point, action)
			}
		}
	}

	// After the full sweep (and with no plan armed) every algorithm must
	// still produce the baseline: no fault poisoned shared state.
	for alg, req := range requests {
		rep, err := smallStoreView().Run(ctx, req)
		if err != nil {
			t.Fatalf("post-sweep %s: %v", alg, err)
		}
		if got := rep.Found; got != baseline[alg] {
			t.Fatalf("post-sweep %s found %d deps, baseline %d", alg, got, baseline[alg])
		}
	}
}

// TestConditionalSliceProgressPanicContained: a progress callback that panics
// on a condition-slice event fails the run with ErrInternal, at one worker
// and at two, and leaves no goroutine behind. The callback runs under the
// lock that serializes slice events, and at two workers the other worker may
// be waiting on it to report its own slice, so the run only returns if the
// lock is released as the panic unwinds.
func TestConditionalSliceProgressPanicContained(t *testing.T) {
	ds := fastod.SyntheticHepatitis(80, 5, 7)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			leakcheck.Check(t)
			done := make(chan error, 1)
			go func() {
				_, err := ds.RunWithProgress(context.Background(), fastod.Request{
					Algorithm:  fastod.AlgorithmConditional,
					RunOptions: fastod.RunOptions{Workers: workers},
				}, func(ev fastod.ProgressEvent) {
					if ev.Level == fastod.SliceProgressLevel {
						panic("slice progress callback")
					}
				})
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, fastod.ErrInternal) {
					t.Fatalf("panicking slice callback returned %v (%T), want fastod.ErrInternal", err, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("RunWithProgress did not return within 10s of a panicking slice-progress callback")
			}
		})
	}
}
