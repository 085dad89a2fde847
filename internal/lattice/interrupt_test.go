package lattice

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// TestCancelMidLevel: cancelling the context from inside a level's visits
// must stop the handout within one node per worker — most of the level's
// nodes stay unvisited — and terminate the traversal with Interrupted set,
// without visiting another level.
func TestCancelMidLevel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		enc := encodeFlight(t, 120, 10)
		ctx, cancel := context.WithCancel(context.Background())
		eng, err := New(enc, Config{Ctx: ctx, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var processed, deepest atomic.Int64
		RunNodes(eng, struct{}{}, func(_ int, n Node, _ []*struct{}) (struct{}, bool) {
			l := n.Level
			if int64(l) > deepest.Load() {
				deepest.Store(int64(l))
			}
			if l < 2 {
				return struct{}{}, false // let the lattice widen first
			}
			switch n := processed.Add(1); {
			case n == 3:
				cancel()
			case n > 3:
				<-ctx.Done() // see TestNodesVisitedCountsDispatches
			}
			return struct{}{}, false
		})
		if !eng.Stats().Interrupted {
			t.Fatalf("workers=%d: cancelled run not marked interrupted", workers)
		}
		if d := deepest.Load(); d != 2 {
			t.Errorf("workers=%d: visited down to level %d after mid-level cancel, want 2", workers, d)
		}
		// Level 2 of a 10-attribute lattice has 45 nodes. The cancel fires at
		// node 3; the handout must stop within one node per worker.
		if n, max := int(processed.Load()), 3+workers-1; n > max {
			t.Errorf("workers=%d: %d level-2 nodes visited after a cancel at node 3, want <= %d", workers, n, max)
		}
		cancel()
	}
}

// TestNodesVisitedCountsDispatches: a run cancelled mid-level counts exactly
// the nodes handed to visit — not the whole level it stopped in — and the
// partial level's progress event reports the same count.
func TestNodesVisitedCountsDispatches(t *testing.T) {
	for _, workers := range []int{1, 4} {
		enc := encodeFlight(t, 120, 10)
		ctx, cancel := context.WithCancel(context.Background())
		var events []ProgressEvent
		eng, err := New(enc, Config{
			Ctx:        ctx,
			Workers:    workers,
			OnProgress: func(ev ProgressEvent) { events = append(events, ev) },
		})
		if err != nil {
			t.Fatal(err)
		}
		var visits atomic.Int64
		RunNodes(eng, struct{}{}, func(_ int, _ Node, _ []*struct{}) (struct{}, bool) {
			switch n := visits.Add(1); {
			case n == 20: // 10 singletons, then 10 of level 2's 45 nodes
				cancel()
			case n > 20:
				// Another worker took a node before the cancel landed (the
				// cancelling goroutine may be descheduled between its count
				// and cancel). Hold it until the cancel has happened, so its
				// next handout observes the cancel: at most one node per
				// worker runs past it, however the goroutines are scheduled.
				<-ctx.Done()
			}
			return struct{}{}, false
		})
		st := eng.Stats()
		if !st.Interrupted {
			t.Fatalf("workers=%d: cancelled run not marked interrupted", workers)
		}
		if got := int(visits.Load()); got != st.NodesVisited {
			t.Errorf("workers=%d: %d visits but NodesVisited=%d", workers, got, st.NodesVisited)
		}
		if st.NodesVisited >= 10+45 {
			t.Errorf("workers=%d: NodesVisited=%d counts the whole interrupted level", workers, st.NodesVisited)
		}
		if len(events) != 2 {
			t.Fatalf("workers=%d: %d progress events, want 2 (level 1 and the partial level 2)", workers, len(events))
		}
		if last := events[1]; last.Level != 2 || last.Nodes != st.NodesVisited-10 || last.NodesVisited != st.NodesVisited {
			t.Errorf("workers=%d: partial-level event %+v, want level 2 with %d nodes, %d cumulative",
				workers, last, st.NodesVisited-10, st.NodesVisited)
		}
		cancel()
	}
}

// TestNodeBudgetInterrupts: MaxNodes must stop the traversal inside the level
// that reaches the bound, with coherent partial stats.
func TestNodeBudgetInterrupts(t *testing.T) {
	enc := encodeFlight(t, 100, 8)
	full, err := New(enc, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	RunNodes(full, struct{}{}, keepAll)
	if full.Stats().Interrupted {
		t.Fatal("unbudgeted run must not be interrupted")
	}

	budgeted, err := New(enc, Config{Workers: 1, Budget: Budget{MaxNodes: 10}})
	if err != nil {
		t.Fatal(err)
	}
	RunNodes(budgeted, struct{}{}, keepAll)
	st := budgeted.Stats()
	if !st.Interrupted {
		t.Fatal("over-budget run not marked interrupted")
	}
	if st.NodesVisited != 10 {
		t.Errorf("NodesVisited = %d, want exactly MaxNodes", st.NodesVisited)
	}
	if st.NodesVisited >= full.Stats().NodesVisited {
		t.Errorf("budgeted run visited %d nodes, full run %d — budget had no effect",
			st.NodesVisited, full.Stats().NodesVisited)
	}
	// Level 1 has 8 nodes; the budget runs out 2 nodes into level 2 and
	// nothing deeper starts.
	if st.MaxLevelReached != 2 {
		t.Errorf("MaxLevelReached = %d, want 2", st.MaxLevelReached)
	}
}

// TestTimeoutInterrupts: an immediate deadline stops the run at the first
// barrier with Interrupted set and no error.
func TestTimeoutInterrupts(t *testing.T) {
	enc := encodeFlight(t, 100, 8)
	eng, err := New(enc, Config{Workers: 1, Budget: Budget{Timeout: time.Nanosecond}})
	if err != nil {
		t.Fatal(err)
	}
	visited := 0
	RunNodes(eng, struct{}{}, func(_ int, _ Node, _ []*struct{}) (struct{}, bool) {
		visited++
		return struct{}{}, false
	})
	if !eng.Stats().Interrupted {
		t.Fatal("timed-out run not marked interrupted")
	}
	if visited != 0 {
		t.Errorf("visited %d nodes under a 1ns timeout, want 0", visited)
	}
}

// TestPreCancelledContext: a context cancelled before the traversal starts
// must interrupt before any node is visited.
func TestPreCancelledContext(t *testing.T) {
	enc := encodeFlight(t, 50, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng, err := New(enc, Config{Ctx: ctx, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var visited atomic.Int64
	RunNodes(eng, struct{}{}, func(_ int, _ Node, _ []*struct{}) (struct{}, bool) {
		visited.Add(1)
		return struct{}{}, false
	})
	if !eng.Stats().Interrupted || visited.Load() != 0 {
		t.Errorf("pre-cancelled run: interrupted=%v visited=%d, want true/0",
			eng.Stats().Interrupted, visited.Load())
	}
}

// TestProgressEvents: one event per completed level, with monotone cumulative
// counters and the retention window's partition count.
func TestProgressEvents(t *testing.T) {
	enc := encodeFlight(t, 80, 6)
	var events []ProgressEvent
	eng, err := New(enc, Config{
		Workers:    1,
		OnProgress: func(ev ProgressEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	RunNodes(eng, struct{}{}, keepAll)
	st := eng.Stats()
	if len(events) != st.MaxLevelReached {
		t.Fatalf("got %d progress events, want one per level (%d)", len(events), st.MaxLevelReached)
	}
	for i, ev := range events {
		if ev.Level != i+1 {
			t.Errorf("event %d has level %d, want %d", i, ev.Level, i+1)
		}
		if ev.PartitionsCached == 0 {
			t.Errorf("event %d reports no cached partitions", i)
		}
		if i > 0 && ev.NodesVisited < events[i-1].NodesVisited+ev.Nodes {
			t.Errorf("event %d: NodesVisited %d not cumulative", i, ev.NodesVisited)
		}
	}
	if last := events[len(events)-1]; last.NodesVisited != st.NodesVisited {
		t.Errorf("final event NodesVisited = %d, engine stats %d", last.NodesVisited, st.NodesVisited)
	}
}

// TestInterruptedRunKeepsCompleteLevels: a node budget that stops the
// traversal mid-lattice must leave every fully visited level's results
// intact — the partial-output contract clients rely on.
func TestInterruptedRunKeepsCompleteLevels(t *testing.T) {
	enc := encodeFlight(t, 100, 8)
	full, err := New(enc, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	fullLevels := runLevels(full)
	budgeted, err := New(enc, Config{Workers: 4, Budget: Budget{MaxNodes: 40}})
	if err != nil {
		t.Fatal(err)
	}
	partialLevels := runLevels(budgeted)
	// 8 + 28 nodes fill levels 1 and 2; the budget ends 4 nodes into level 3.
	if len(partialLevels) != 3 {
		t.Fatalf("budgeted run visited %d levels, want 3", len(partialLevels))
	}
	for i, lv := range partialLevels[:2] {
		if len(lv) != len(fullLevels[i]) {
			t.Errorf("level %d of budgeted run has %d nodes, full run %d", i+1, len(lv), len(fullLevels[i]))
		}
	}
	if n := len(partialLevels[2]); n != 4 {
		t.Errorf("partial level 3 visited %d nodes, want the 4 left in the budget", n)
	}
}
