package lattice

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bitset"
	"repro/internal/relation"
)

// runNodesRecord drives RunNodes at the given worker count with a visit that
// (a) checks the deps contract — deps[k] is the result of x with its (k+1)-th
// smallest attribute removed, the root for singletons — (b) checks a
// partition is served for every visited node, and (c) prunes every node from
// level 2 up that contains both attributes 0 and 1, so the candidate closure
// (no superset of a pruned node) is exercised too. Results are the node sets
// themselves, which is what makes (a) checkable.
func runNodesRecord(t *testing.T, enc *relation.Encoded, workers int) (map[bitset.AttrSet]int, Stats) {
	t.Helper()
	eng, err := New(enc, Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	visited := make(map[bitset.AttrSet]int)
	root := bitset.AttrSet(0)
	RunNodes(eng, root, func(wk int, n Node, deps []*bitset.AttrSet) (bitset.AttrSet, bool) {
		l, x := n.Level, n.Set
		attrs := x.Attrs()
		if len(deps) != len(attrs) {
			t.Errorf("w%d node %v: %d deps, want %d", workers, x, len(deps), len(attrs))
		} else {
			for k, a := range attrs {
				if got, want := *deps[k], x.Remove(a); got != want {
					t.Errorf("w%d node %v: deps[%d] = %v, want %v", workers, x, k, got, want)
				}
			}
		}
		if p := n.Partition(); p == nil {
			t.Errorf("w%d node %v: no partition served by the level table", workers, x)
		}
		mu.Lock()
		if old, dup := visited[x]; dup {
			t.Errorf("w%d node %v visited twice (levels %d and %d)", workers, x, old, l)
		}
		visited[x] = l
		mu.Unlock()
		return x, l >= 2 && x.Contains(0) && x.Contains(1)
	})
	return visited, eng.Stats()
}

// TestRunNodesSchedulerDifferential: every worker count must visit exactly
// the node set of the sequential traversal — same nodes, same levels, same
// stats — including under pruning.
func TestRunNodesSchedulerDifferential(t *testing.T) {
	enc := encodeFlight(t, 80, 6)
	ref, refStats := runNodesRecord(t, enc, 1)
	if len(ref) == 0 || len(ref) >= 1<<6-1 {
		t.Fatalf("reference run visited %d nodes; the pruning rule must bite for the test to mean anything", len(ref))
	}
	for _, workers := range []int{2, 4} {
		got, st := runNodesRecord(t, enc, workers)
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("w%d: visited node set differs from w1 (%d vs %d nodes)", workers, len(got), len(ref))
		}
		if st.NodesVisited != refStats.NodesVisited || st.MaxLevelReached != refStats.MaxLevelReached {
			t.Errorf("w%d: stats (%d nodes, max level %d) differ from w1 (%d, %d)",
				workers, st.NodesVisited, st.MaxLevelReached, refStats.NodesVisited, refStats.MaxLevelReached)
		}
		if st.Interrupted {
			t.Errorf("w%d: unbudgeted run marked interrupted", workers)
		}
	}
}

// TestNodeBudgetLatency: MaxNodes is enforced at node handout, so exactly
// MaxNodes nodes are handed to visit, however many workers race for the
// last ones. The level that reaches the bound is left partial and still
// emits its progress event, counting only the nodes actually visited.
func TestNodeBudgetLatency(t *testing.T) {
	enc := encodeFlight(t, 100, 8)
	for _, workers := range []int{1, 4} {
		var events []ProgressEvent
		eng, err := New(enc, Config{
			Workers:    workers,
			Budget:     Budget{MaxNodes: 10},
			OnProgress: func(ev ProgressEvent) { events = append(events, ev) },
		})
		if err != nil {
			t.Fatal(err)
		}
		var visits atomic.Int64
		RunNodes(eng, struct{}{}, func(_ int, _ Node, _ []*struct{}) (struct{}, bool) {
			visits.Add(1)
			return struct{}{}, false
		})
		st := eng.Stats()
		if !st.Interrupted {
			t.Fatalf("workers=%d: over-budget run not marked interrupted", workers)
		}
		if st.NodesVisited != 10 {
			t.Errorf("workers=%d: NodesVisited=%d, budget was 10 — handout must enforce the bound exactly",
				workers, st.NodesVisited)
		}
		if got := int(visits.Load()); got != st.NodesVisited {
			t.Errorf("workers=%d: %d visits but NodesVisited=%d", workers, got, st.NodesVisited)
		}
		// Level 1 has 8 nodes, so the budget ends 2 nodes into level 2.
		want := []ProgressEvent{{Level: 1, Nodes: 8, NodesVisited: 8}, {Level: 2, Nodes: 2, NodesVisited: 10}}
		if len(events) != len(want) {
			t.Fatalf("workers=%d: %d progress events, want %d", workers, len(events), len(want))
		}
		for i, ev := range events {
			if ev.Level != want[i].Level || ev.Nodes != want[i].Nodes || ev.NodesVisited != want[i].NodesVisited {
				t.Errorf("workers=%d: event %d = level %d, %d nodes, %d cumulative; want %+v",
					workers, i, ev.Level, ev.Nodes, ev.NodesVisited, want[i])
			}
		}
	}
}

// TestNodeCancelLatency: cancelling the context from inside a visit stops
// the handout at the next node — at most workers-1 nodes (those already
// handed out to other workers) are visited after the cancelling node.
func TestNodeCancelLatency(t *testing.T) {
	const cancelAt = 5
	for _, workers := range []int{1, 4} {
		enc := encodeFlight(t, 100, 8)
		ctx, cancel := context.WithCancel(context.Background())
		eng, err := New(enc, Config{Ctx: ctx, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var visits atomic.Int64
		RunNodes(eng, struct{}{}, func(_ int, _ Node, _ []*struct{}) (struct{}, bool) {
			if visits.Add(1) == cancelAt {
				cancel()
			}
			return struct{}{}, false
		})
		if !eng.Stats().Interrupted {
			t.Fatalf("workers=%d: cancelled run not marked interrupted", workers)
		}
		if got, max := int(visits.Load()), cancelAt+workers-1; got > max {
			t.Errorf("workers=%d: %d nodes visited after cancel at node %d, want <= %d (one in-flight node per other worker)",
				workers, got, cancelAt, max)
		}
		cancel()
	}
}

// TestProgressCoherence: with four workers visiting each level in parallel,
// the per-level events arrive in level order with NodesVisited equal to the
// cumulative node count through that level, ending at the engine total. A
// complete run emits exactly one event per level; a partial level's event is
// covered by TestNodeBudgetLatency.
func TestProgressCoherence(t *testing.T) {
	enc := encodeFlight(t, 80, 6)
	var events []ProgressEvent
	eng, err := New(enc, Config{
		Workers:    4,
		OnProgress: func(ev ProgressEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	RunNodes(eng, struct{}{}, keepAll)
	st := eng.Stats()
	if len(events) != st.MaxLevelReached {
		t.Fatalf("got %d events, want one per level (%d)", len(events), st.MaxLevelReached)
	}
	sum := 0
	for i, ev := range events {
		if ev.Level != i+1 {
			t.Errorf("event %d has level %d, want %d", i, ev.Level, i+1)
		}
		sum += ev.Nodes
		if ev.NodesVisited != sum {
			t.Errorf("event %d: NodesVisited = %d, want cumulative %d", i, ev.NodesVisited, sum)
		}
		if ev.PartitionsCached == 0 {
			t.Errorf("event %d reports no cached partitions", i)
		}
	}
	if sum != st.NodesVisited {
		t.Errorf("events sum to %d nodes, engine visited %d", sum, st.NodesVisited)
	}
}

// TestSchedulerSharedStoreStress: engines at worker counts 1, 2 and 4
// hammering one PartitionStore concurrently must all complete the full
// traversal. Run under -race this is the engine's data-race canary for
// store-first level generation.
func TestSchedulerSharedStoreStress(t *testing.T) {
	enc := encodeFlight(t, 60, 5)
	store := NewPartitionStore(1 << 20)
	want := -1
	var wg sync.WaitGroup
	results := make([]int, 9)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eng, err := New(enc, Config{Workers: []int{1, 2, 4}[i%3], Store: store})
			if err != nil {
				t.Error(err)
				return
			}
			RunNodes(eng, struct{}{}, keepAll)
			results[i] = eng.Stats().NodesVisited
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		if want == -1 {
			want = got
		}
		if got != want || got == 0 {
			t.Errorf("goroutine %d visited %d nodes, want %d (full lattice for all)", i, got, want)
		}
	}
	if st := store.Stats(); st.Hits == 0 {
		t.Errorf("store served no hits across 9 concurrent full traversals: %+v", st)
	}
}
