package fastod_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	fastod "repro"
	"repro/internal/faultinject"
	"repro/internal/leakcheck"
)

// The chaos sweep drives every registered engine fault point through every
// algorithm, worker counts 1, 2 and 4 and two fault-schedule families, with
// both fault actions, and asserts the containment contract end to end at the
// public API:
//
//   - the process survives every combination (the suite running to completion
//     is itself the assertion);
//   - a fault with a degradation path (store lookup/eviction errors) leaves
//     the run's result identical to the fault-free baseline;
//   - a fault without one (panics anywhere, errors at must-succeed points)
//     surfaces as fastod.ErrInternal with a captured stack, never as a crash
//     or a silently wrong report;
//   - a schedule whose fault is never reached behaves exactly like no fault,
//     and a plan on faultinject.NodeSteal — a point with no hit site, the
//     sweep's control — never fires at all;
//   - no combination leaks goroutines, and after the whole sweep every
//     algorithm still produces the baseline result (nothing was poisoned).
//
// The two families, labelled "dag" and "barrier", draw independent seeds for
// the hit at which the fault lands. The labels are the subtest IDs the sweep
// had when the engine offered two schedulers, kept stable; the engine has one
// scheduler now, so the label names a seed family, not a scheduler.
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

	// smallStore returns a partition store tight enough that the eviction
	// path actually runs (everything fits in a store at the default bound,
	// and an eviction point that is never reached tests nothing).
	smallStore := func() *fastod.PartitionStore { return fastod.NewPartitionStore(1 << 10) }

	baseline := make(map[fastod.Algorithm]int)
	for alg, req := range requests {
		req.Partitions = smallStore()
		rep, err := ds.Run(ctx, req)
		if err != nil {
			t.Fatalf("baseline %s: %v", alg, err)
		}
		baseline[alg] = reportCount(t, rep)
	}

	// The sweep counts outcomes so it can assert about itself: a refactor
	// that silently moves a fault point off the hot path (nothing fires any
	// more) must fail the suite, not just make it vacuous.
	var firedPanic, firedDegrade, unfired int

	seed := int64(0)
	points := append(append([]faultinject.Point(nil), faultinject.EnginePoints...), faultinject.NodeSteal)
	for _, point := range points {
		for alg, baseReq := range requests {
			for _, family := range []string{"dag", "barrier"} {
				for _, workers := range []int{1, 2, 4} {
					for _, action := range []faultinject.Action{faultinject.ActionPanic, faultinject.ActionError} {
						seed++
						name := fmt.Sprintf("%s/%s/%s/w%d/%s", point, alg, family, workers, action)
						t.Run(name, func(t *testing.T) {
							req := baseReq
							req.Workers = workers
							req.Partitions = smallStore()
							plan := faultinject.Seeded(seed, point, action, 40, 0)
							defer faultinject.Enable(plan)()

							rep, err := ds.Run(ctx, req)

							if point == faultinject.NodeSteal && plan.Fired() != 0 {
								t.Fatalf("a plan on %s fired, but no engine path hits it", point)
							}
							if plan.Fired() == 0 {
								// The scheduled hit was never reached (the
								// control point, or a schedule past the run's
								// hit count): the run must be indistinguishable
								// from a fault-free one.
								unfired++
								if err != nil {
									t.Fatalf("unfired fault changed the run: %v", err)
								}
								if got := reportCount(t, rep); got != baseline[alg] {
									t.Fatalf("unfired fault changed the result: %d deps, want %d", got, baseline[alg])
								}
								return
							}

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
								if got := reportCount(t, rep); got != baseline[alg] {
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

	// After the full sweep (and with no plan armed) every algorithm must
	// still produce the baseline: no fault poisoned shared state.
	for alg, req := range requests {
		req.Partitions = smallStore()
		rep, err := ds.Run(ctx, req)
		if err != nil {
			t.Fatalf("post-sweep %s: %v", alg, err)
		}
		if got := reportCount(t, rep); got != baseline[alg] {
			t.Fatalf("post-sweep %s found %d deps, baseline %d", alg, got, baseline[alg])
		}
	}
}

// reportCount reduces a report to its dependency tally, the cross-run
// comparison key of the sweep.
func reportCount(t *testing.T, rep *fastod.Report) int {
	t.Helper()
	switch {
	case rep.FASTOD != nil:
		return rep.FASTOD.Counts.Total
	case rep.TANE != nil:
		return len(rep.TANE.FDs)
	case rep.Approx != nil:
		return len(rep.Approx.ODs)
	case rep.Bidir != nil:
		return len(rep.Bidir.ODs)
	case rep.Conditional != nil:
		return len(rep.Conditional.ODs)
	case rep.ORDER != nil:
		return len(rep.ORDER.ODs)
	}
	t.Fatal("report carries no payload")
	return -1
}
