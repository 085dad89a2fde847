package lattice

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/leakcheck"
)

// Containment contract under test: a panic anywhere inside the engine — a
// visit function, a partition derivation, the node handout — must (a) not
// crash the process, (b) surface through Err() as a *PanicError carrying the
// stack and, where known, the node, (c) mark the run interrupted, and (d)
// leave no worker goroutine behind.
//
// Some case names carry a "barrier" or "dag" family label: they are the test
// IDs the suite had when the engine offered two schedulers, kept stable. The
// engine has one scheduler now, and the families differ in where the fault
// lands: "barrier" cases fault early in the run, "dag" cases deeper in the
// lattice.

// faultFamilies maps a case family to the number of hits that pass before
// its fault fires.
var faultFamilies = []struct {
	name  string
	after int
}{
	{"barrier", 2},
	{"dag", 12},
}

func assertContained(t *testing.T, eng *Engine, wantNode bool) *PanicError {
	t.Helper()
	err := eng.Err()
	if err == nil {
		t.Fatal("Err() = nil after a worker panic")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Err() = %v (%T), want *PanicError", err, err)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack")
	}
	if wantNode && !pe.HasNode {
		t.Errorf("PanicError has no node context: %v", pe)
	}
	if pe.HasNode && !strings.Contains(pe.Error(), pe.Node.String()) {
		t.Errorf("Error() %q does not name node %v", pe.Error(), pe.Node)
	}
	return pe
}

// assertInterrupted is the traversal half of the contract: a run that was cut
// short by a contained panic must not pretend its stats describe a complete
// traversal. (Standalone ParallelFor calls have no traversal to mark.)
func assertInterrupted(t *testing.T, eng *Engine) {
	t.Helper()
	if !eng.Stats().Interrupted {
		t.Error("panicked run not marked interrupted")
	}
}

// TestRunNodesVisitPanicContained: a panic thrown by the visit function is
// contained at every worker count, in level 1 ("barrier" family) and in
// level 2 ("dag" family), with the panicking node attached.
func TestRunNodesVisitPanicContained(t *testing.T) {
	leakcheck.Check(t)
	enc := encodeFlight(t, 60, 5)
	for _, fam := range faultFamilies {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s_w%d", fam.name, workers), func(t *testing.T) {
				eng, err := New(enc, Config{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				var n atomic.Int64
				RunNodes(eng, struct{}{}, func(_ int, _ Node, _ []*struct{}) (struct{}, bool) {
					if n.Add(1) == int64(fam.after)+1 {
						panic("poisoned visit")
					}
					return struct{}{}, false
				})
				pe := assertContained(t, eng, true)
				assertInterrupted(t, eng)
				if !strings.Contains(fmt.Sprint(pe.Value), "poisoned visit") {
					t.Errorf("recovered value = %v, want the poisoned-visit panic", pe.Value)
				}
			})
		}
	}
}

// TestRunVisitPanicContained: a panic raised on the traversal goroutine
// itself, outside any node frame — here by the progress hook between levels —
// is caught by the trapTraversal catch-all (no node context).
func TestRunVisitPanicContained(t *testing.T) {
	leakcheck.Check(t)
	enc := encodeFlight(t, 60, 5)
	eng, err := New(enc, Config{Workers: 2, OnProgress: func(ev ProgressEvent) {
		if ev.Level == 2 {
			panic("poisoned level hook")
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	RunNodes(eng, struct{}{}, keepAll)
	assertContained(t, eng, false)
	assertInterrupted(t, eng)
}

// TestParallelForWorkerPanicContained: a panic inside an Engine.ParallelFor
// body (the chunk workers of level generation and client fan-outs) lands in
// trapWorker, stops the
// sibling workers, and surfaces through Err().
func TestParallelForWorkerPanicContained(t *testing.T) {
	leakcheck.Check(t)
	enc := encodeFlight(t, 60, 5)
	eng, err := New(enc, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng.ParallelFor(1000, func(wk, i int) {
		if i == 137 {
			panic("poisoned item")
		}
	})
	// No assertInterrupted here: a standalone ParallelFor runs outside any
	// traversal, so there is no run for the panic to interrupt — the error
	// surfaces, the stats don't change.
	assertContained(t, eng, false)
}

// TestInjectedFaultsContained: panics fired by the injection points inside
// the engine itself — partition derivation during level generation, the
// per-node handout — are contained exactly like visit panics. These points
// sit on paths the visit function never sees, so they are the reason the
// engine needs its own recovery frames.
func TestInjectedFaultsContained(t *testing.T) {
	enc := encodeFlight(t, 60, 5)
	for _, point := range []faultinject.Point{faultinject.PartitionProduct, faultinject.NodeDispatch} {
		for _, fam := range faultFamilies {
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s_%s_w%d", point, fam.name, workers), func(t *testing.T) {
					leakcheck.Check(t)
					plan := faultinject.NewPlan(faultinject.Rule{
						Point:  point,
						Action: faultinject.ActionPanic,
						After:  int64(fam.after),
						Times:  1,
					})
					defer faultinject.Enable(plan)()
					eng, err := New(enc, Config{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					RunNodes(eng, struct{}{}, keepAll)
					if plan.Fired() == 0 {
						t.Fatalf("%s fault after %d hits never fired (%d hits)", point, fam.after, plan.Hits(point))
					}
					assertContained(t, eng, false)
					assertInterrupted(t, eng)
				})
			}
		}
	}
}

// TestInjectedStoreFaultsDegrade: error-action faults at the store points
// have defined degradation paths, not failure paths — a failing Get is a
// miss (the partition is recomputed), a failing evict leaves the store
// temporarily over its bound. Either way the run completes with the same
// node set as a clean run.
func TestInjectedStoreFaultsDegrade(t *testing.T) {
	leakcheck.Check(t)
	enc := encodeFlight(t, 60, 5)
	clean, err := New(enc, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	RunNodes(clean, struct{}{}, keepAll)
	want := clean.Stats().NodesVisited

	for _, point := range []faultinject.Point{faultinject.StoreGet, faultinject.StoreEvict} {
		t.Run(string(point), func(t *testing.T) {
			plan := faultinject.NewPlan(faultinject.Rule{Point: point, Action: faultinject.ActionError})
			defer faultinject.Enable(plan)()
			// A tight store bound forces evictions so StoreEvict actually
			// fires (at 1 KiB this workload's 3.4 KiB of partitions evict
			// ~24 times; at 4 KiB everything fits and nothing ever evicts).
			store := NewPartitionStore(1024)
			eng, err := New(enc, Config{Workers: 2, Store: store})
			if err != nil {
				t.Fatal(err)
			}
			RunNodes(eng, struct{}{}, keepAll)
			if plan.Fired() == 0 {
				t.Fatalf("no %s faults fired", point)
			}
			if err := eng.Err(); err != nil {
				t.Fatalf("store fault escalated to run failure: %v", err)
			}
			st := eng.Stats()
			if st.Interrupted {
				t.Fatal("degraded run marked interrupted")
			}
			if st.NodesVisited != want {
				t.Fatalf("degraded run visited %d nodes, clean run %d", st.NodesVisited, want)
			}
		})
	}
}

// TestSchedulerSuiteLeaks applies the leak gate to a plain full traversal at
// every worker count, so a regression that parks workers on the exit path of
// a *successful* run is caught here rather than only under faults.
func TestSchedulerSuiteLeaks(t *testing.T) {
	leakcheck.Check(t)
	enc := encodeFlight(t, 60, 5)
	for _, workers := range []int{1, 2, 4} {
		eng, err := New(enc, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		RunNodes(eng, struct{}{}, keepAll)
		if err := eng.Err(); err != nil {
			t.Fatal(err)
		}
	}
}
