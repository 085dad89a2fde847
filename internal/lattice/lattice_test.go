package lattice

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/datagen"
	"repro/internal/partition"
	"repro/internal/relation"
)

func encodeFlight(t *testing.T, rows, cols int) *relation.Encoded {
	t.Helper()
	enc, err := relation.Encode(datagen.FlightLike(rows, cols, 2017))
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// keepAll is a visit that keeps every node and records nothing.
func keepAll(int, Node, []*struct{}) (struct{}, bool) { return struct{}{}, false }

// runLevels drives a traversal that keeps every node and returns the visited
// nodes grouped by level, each level sorted: the visit order within a level
// varies with the worker count.
func runLevels(eng *Engine) [][]bitset.AttrSet {
	var mu sync.Mutex
	var levels [][]bitset.AttrSet
	RunNodes(eng, struct{}{}, func(_ int, n Node, _ []*struct{}) (struct{}, bool) {
		l, x := n.Level, n.Set
		mu.Lock()
		for len(levels) < l {
			levels = append(levels, nil)
		}
		levels[l-1] = append(levels[l-1], x)
		mu.Unlock()
		return struct{}{}, false
	})
	for _, lv := range levels {
		sort.Slice(lv, func(i, j int) bool { return lv[i] < lv[j] })
	}
	return levels
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil relation must be rejected")
	}
	if _, err := New(&relation.Encoded{}, Config{}); err == nil {
		t.Error("zero-column relation must be rejected")
	}
}

// TestStoreBoundToOneRelation: reusing a store for a different relation —
// even one with the same row count, which the per-partition defense cannot
// tell apart — must fail loudly at engine construction instead of silently
// serving the wrong partitions.
func TestStoreBoundToOneRelation(t *testing.T) {
	encA := encodeFlight(t, 200, 5)
	encB, err := relation.Encode(datagen.NCVoterLike(200, 5, 7)) // same rows, different data
	if err != nil {
		t.Fatal(err)
	}
	store := NewPartitionStore(0)
	if _, err := New(encA, Config{Workers: 1, Store: store}); err != nil {
		t.Fatalf("first bind: %v", err)
	}
	if _, err := New(encA, Config{Workers: 1, Store: store}); err != nil {
		t.Fatalf("rebind to the same relation: %v", err)
	}
	if _, err := New(encB, Config{Workers: 1, Store: store}); err == nil {
		t.Fatal("binding the store to a second relation must fail")
	}
	store.Reset()
	if _, err := New(encB, Config{Workers: 1, Store: store}); err != nil {
		t.Fatalf("bind after Reset: %v", err)
	}
}

// TestRunEnumeratesFullLattice: a visit that keeps every node must see every
// non-empty subset of the schema exactly once, level by level, with the
// partitions of the node and of its immediate and second-order subsets
// served by its handle.
func TestRunEnumeratesFullLattice(t *testing.T) {
	const cols = 5
	enc := encodeFlight(t, 100, cols)
	eng, err := New(enc, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[bitset.AttrSet]int)
	RunNodes(eng, struct{}{}, func(_ int, n Node, _ []*struct{}) (struct{}, bool) {
		l, x := n.Level, n.Set
		if x.Len() != l {
			t.Errorf("level %d contains node %v of size %d", l, x, x.Len())
		}
		seen[x]++
		if n.Partition() == nil {
			t.Errorf("no partition for node %v at level %d", x, l)
		}
		// Immediate and second-order subsets must be resolvable for
		// validation.
		x.ForEach(func(a int) {
			if n.SubPartition(a) == nil {
				t.Errorf("no partition for subset %v of %v", x.Remove(a), x)
			}
			x.Remove(a).ForEach(func(b int) {
				if n.SubSubPartition(a, b) == nil {
					t.Errorf("no partition for subset %v of %v", x.Remove(a).Remove(b), x)
				}
			})
		})
		return struct{}{}, false
	})
	if want := (1 << cols) - 1; len(seen) != want {
		t.Fatalf("visited %d distinct nodes, want %d", len(seen), want)
	}
	for x, n := range seen {
		if n != 1 {
			t.Errorf("node %v visited %d times", x, n)
		}
	}
	st := eng.Stats()
	if st.NodesVisited != (1<<cols)-1 {
		t.Errorf("NodesVisited = %d, want %d", st.NodesVisited, (1<<cols)-1)
	}
	if st.MaxLevelReached != cols {
		t.Errorf("MaxLevelReached = %d, want %d", st.MaxLevelReached, cols)
	}
}

// TestRunPartitionsMatchDirectComputation: every partition a node handle
// serves — the node's own, SubPartition(a) for each a in x and
// SubSubPartition(a, b) for each pair in x, the exact contexts FASTOD
// validates — must have the classes of the direct product of singleton
// partitions. Pruning thins the levels, so the subset positions the level
// table records do not line up with a full lattice. The relation's columns
// have three values each, so few contexts are keys and a context read from
// the wrong position shows as different classes.
func TestRunPartitionsMatchDirectComputation(t *testing.T) {
	enc := tinyEncoded(t, rand.New(rand.NewSource(5)), 6, 300)
	eng, err := New(enc, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	direct := func(x bitset.AttrSet) *partition.Partition {
		p := partition.FromConstant(enc.NumRows())
		x.ForEach(func(a int) {
			p = partition.Product(p, partition.FromColumn(enc.Column(a), enc.Cardinality[a]))
		})
		return p
	}
	check := func(what string, x bitset.AttrSet, got *partition.Partition) {
		if want := direct(x); !reflect.DeepEqual(sortedClasses(got), sortedClasses(want)) {
			t.Errorf("%s: partition of %v = %v, want %v", what, x, got, want)
		}
	}
	var nodes atomic.Int64
	RunNodes(eng, struct{}{}, func(_ int, n Node, _ []*struct{}) (struct{}, bool) {
		nodes.Add(1)
		x := n.Set
		check("Partition", x, n.Partition())
		x.ForEach(func(a int) {
			check(fmt.Sprintf("SubPartition(%d)", a), x.Remove(a), n.SubPartition(a))
			x.Remove(a).ForEach(func(b int) {
				check(fmt.Sprintf("SubSubPartition(%d, %d)", a, b), x.Remove(a).Remove(b), n.SubSubPartition(a, b))
			})
		})
		return struct{}{}, n.Level >= 2 && x.Contains(1) && x.Contains(3)
	})
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	if got, full := int(nodes.Load()), 1<<6-1; got == full || got == 0 {
		t.Fatalf("visited %d nodes; the pruning rule must bite for the test to mean anything", got)
	}
}

// TestRunPruningStopsGeneration: nodes dropped by the visit callback must not
// generate supersets, and supersets with a missing immediate subset must not
// be generated either.
func TestRunPruningStopsGeneration(t *testing.T) {
	enc := encodeFlight(t, 100, 5)
	eng, err := New(enc, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	dropped := bitset.NewAttrSet(0)
	var visited []bitset.AttrSet
	RunNodes(eng, struct{}{}, func(_ int, n Node, _ []*struct{}) (struct{}, bool) {
		x := n.Set
		visited = append(visited, x)
		return struct{}{}, x == dropped
	})
	for _, x := range visited {
		if x != dropped && x.Contains(0) && x.Len() > 1 {
			t.Errorf("superset %v of the dropped node was generated", x)
		}
	}
	// 1 dropped singleton + the full lattice over the remaining 4 attributes.
	if want := 5 + (1<<4 - 1) - 4; len(visited) != want {
		t.Errorf("visited %d nodes, want %d", len(visited), want)
	}
}

func TestRunMaxLevel(t *testing.T) {
	enc := encodeFlight(t, 100, 5)
	eng, err := New(enc, Config{Workers: 1, MaxLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	maxSeen := 0
	RunNodes(eng, struct{}{}, func(_ int, n Node, _ []*struct{}) (struct{}, bool) {
		l := n.Level
		if l > maxSeen {
			maxSeen = l
		}
		return struct{}{}, false
	})
	if maxSeen != 2 {
		t.Errorf("deepest visited level = %d, want 2", maxSeen)
	}
	if eng.Stats().MaxLevelReached != 2 {
		t.Errorf("MaxLevelReached = %d, want 2", eng.Stats().MaxLevelReached)
	}
}

// TestRunOnLevelEnd: the hook fires once per processed level, in order.
func TestRunOnLevelEnd(t *testing.T) {
	enc := encodeFlight(t, 100, 4)
	var ended []int
	eng, err := New(enc, Config{Workers: 1, OnLevelEnd: func(l int, _ time.Duration) { ended = append(ended, l) }})
	if err != nil {
		t.Fatal(err)
	}
	RunNodes(eng, struct{}{}, keepAll)
	if len(ended) != 4 {
		t.Fatalf("OnLevelEnd fired %d times, want 4", len(ended))
	}
	for i, l := range ended {
		if l != i+1 {
			t.Errorf("OnLevelEnd order = %v", ended)
			break
		}
	}
}

// TestWorkerInvariance: the engine's traversal (node sets, partitions, store
// interactions) must be identical across worker counts.
func TestWorkerInvariance(t *testing.T) {
	enc := encodeFlight(t, 300, 6)
	trace := func(w int) ([]bitset.AttrSet, Stats) {
		eng, err := New(enc, Config{Workers: w, Store: NewPartitionStore(0)})
		if err != nil {
			t.Fatal(err)
		}
		var visited []bitset.AttrSet
		for _, lv := range runLevels(eng) {
			visited = append(visited, lv...)
		}
		return visited, eng.Stats()
	}
	seqNodes, seqStats := trace(1)
	for _, w := range []int{2, 4, 0} {
		nodes, stats := trace(w)
		if len(nodes) != len(seqNodes) {
			t.Fatalf("workers=%d: %d nodes, want %d", w, len(nodes), len(seqNodes))
		}
		for i := range seqNodes {
			if nodes[i] != seqNodes[i] {
				t.Fatalf("workers=%d: node %d = %v, want %v", w, i, nodes[i], seqNodes[i])
			}
		}
		if stats != seqStats {
			t.Errorf("workers=%d: stats = %+v, want %+v", w, stats, seqStats)
		}
	}
}

// TestRunMaxLevelSkipsFinalGeneration: the products of level MaxLevel+1 are
// never visited and must not be computed (visible through store traffic).
func TestRunMaxLevelSkipsFinalGeneration(t *testing.T) {
	enc := encodeFlight(t, 100, 5)
	store := NewPartitionStore(0)
	eng, err := New(enc, Config{Workers: 1, MaxLevel: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	RunNodes(eng, struct{}{}, keepAll)
	// Exactly the empty set, 5 singletons and C(5,2)=10 pairs get partitions.
	if want := 1 + 5 + 10; store.Len() != want {
		t.Errorf("store holds %d partitions after a MaxLevel=2 run, want %d", store.Len(), want)
	}
}
