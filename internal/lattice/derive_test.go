package lattice

import (
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/bitset"
	"repro/internal/partition"
	"repro/internal/relation"
)

// skewedEncoded builds a relation whose columns have very different class
// structures — one heavy value, a few values, pairs of rows, near-distinct —
// so that a node's smallest immediate subset is often not the node minus its
// largest attribute.
func skewedEncoded(t *testing.T, rows int) *relation.Encoded {
	t.Helper()
	rng := rand.New(rand.NewSource(14))
	header := []string{"wide", "pair", "mid", "few", "heavy", "heavy2"}
	data := make([][]string, rows)
	for i := range data {
		heavy, heavy2 := 0, 0
		if rng.Intn(10) == 0 {
			heavy = 1 + rng.Intn(4)
		}
		if rng.Intn(6) == 0 {
			heavy2 = 1 + rng.Intn(3)
		}
		data[i] = []string{
			strconv.Itoa(rng.Intn(rows)), strconv.Itoa(i / 2), strconv.Itoa(rng.Intn(20)),
			strconv.Itoa(rng.Intn(3)), strconv.Itoa(heavy), strconv.Itoa(heavy2),
		}
	}
	rel, err := relation.FromRows("skewed", header, data)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := relation.Encode(rel)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// sortedClasses is a partition's class set in a normal form (classes ordered
// by first row), for comparisons that must ignore class order.
func sortedClasses(p *partition.Partition) [][]int32 {
	out := make([][]int32, 0, p.NumClasses())
	p.ForEachClass(func(cls []int32) { out = append(out, append([]int32(nil), cls...)) })
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// TestDerivedPartitionsIdenticalAcrossSchedulers pins the shared derivation
// rule: both schedulers, at every worker count, must store the very same
// partition — class order included — for every node, on a relation skewed
// enough that the smallest-parent choice departs from x minus its largest
// attribute.
func TestDerivedPartitionsIdenticalAcrossSchedulers(t *testing.T) {
	enc := skewedEncoded(t, 400)
	var all bitset.AttrSet
	for a := 0; a < enc.NumCols(); a++ {
		all = all.Add(a)
	}
	var ref *PartitionStore
	for _, sched := range []Scheduler{SchedulerBarrier, SchedulerDAG} {
		for _, workers := range []int{1, 4} {
			store := NewPartitionStore(0)
			eng, err := New(enc, Config{Workers: workers, Scheduler: sched, Store: store})
			if err != nil {
				t.Fatal(err)
			}
			eng.RunNodes(nil, func(int, int, bitset.AttrSet, []any) (any, bool) { return nil, false })
			if err := eng.Err(); err != nil {
				t.Fatalf("%s/w%d: %v", sched, workers, err)
			}
			if ref == nil {
				ref = store
				continue
			}
			for x := bitset.AttrSet(0); x <= all; x++ {
				want, _ := ref.Get(x)
				got, ok := store.Get(x)
				if !ok {
					t.Fatalf("%s/w%d: no partition stored for %v", sched, workers, x)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/w%d: partition of %v = %v, want %v (the reference run's)", sched, workers, x, got, want)
				}
			}
		}
	}

	// Every stored partition is the right set partition, and the relation
	// really exercises the parent choice.
	nonDefault := 0
	for x := bitset.AttrSet(1); x <= all; x++ {
		got, _ := ref.Get(x)
		want := partition.FromConstant(enc.NumRows())
		x.ForEach(func(a int) {
			want = partition.ProductNaive(want, partition.FromColumn(enc.Column(a), enc.Cardinality[a]))
		})
		if !reflect.DeepEqual(sortedClasses(got), sortedClasses(want)) {
			t.Fatalf("partition of %v has the wrong classes", x)
		}
		if x.Len() < 2 {
			continue
		}
		chosen, best := -1, -1
		x.ForEach(func(a int) {
			if p, _ := ref.Get(x.Remove(a)); best < 0 || p.Size() <= best {
				chosen, best = a, p.Size()
			}
		})
		if chosen != x.Max() {
			nonDefault++
		}
	}
	if nonDefault == 0 {
		t.Fatal("no node refines a parent other than x minus its largest attribute; the relation is not skewed enough")
	}
}
