package lattice

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/partition"
)

// colPartition builds a small partition with the given number of rows, all in
// one class (byte-exact cost = 4*(rows + 2): the rows arena plus the
// two-entry offsets index).
func colPartition(rows int) *partition.Partition {
	return partition.FromConstant(rows)
}

// colPartitionCost is the store cost of colPartition(10): 48 bytes.
const colPartitionCost = 4 * (10 + 2)

func TestStoreHitMissAccounting(t *testing.T) {
	s := NewPartitionStore(0)
	x := bitset.NewAttrSet(0)
	if _, ok := s.Get(x); ok {
		t.Fatal("Get on empty store must miss")
	}
	p := colPartition(10)
	s.Put(x, p)
	got, ok := s.Get(x)
	if !ok || got != p {
		t.Fatalf("Get after Put = (%v, %v), want the stored partition", got, ok)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 put, 1 entry", st)
	}
	if st.Cost != p.FootprintBytes() {
		t.Errorf("cost = %d, want byte-exact footprint %d", st.Cost, p.FootprintBytes())
	}
	if st.MaxCost != DefaultStoreCost {
		t.Errorf("maxCost = %d, want default %d", st.MaxCost, DefaultStoreCost)
	}
}

func TestStoreCrossCallReuse(t *testing.T) {
	// Two engine runs over the same relation sharing a store: the second run
	// must find every partition the first one computed.
	enc := encodeFlight(t, 300, 6)
	store := NewPartitionStore(0)
	run := func() Stats {
		eng, err := New(enc, Config{Workers: 1, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		RunNodes(eng, struct{}{}, keepAll)
		return eng.Stats()
	}
	first := run()
	if first.PartitionHits != 0 {
		t.Errorf("first run: %d hits, want 0 (cold store)", first.PartitionHits)
	}
	if first.PartitionMisses == 0 {
		t.Error("first run: no misses recorded on a cold store")
	}
	second := run()
	if second.PartitionMisses != 0 {
		t.Errorf("second run: %d misses, want 0 (warm store)", second.PartitionMisses)
	}
	if second.PartitionHits != first.PartitionMisses {
		t.Errorf("second run: %d hits, want every first-run miss (%d)", second.PartitionHits, first.PartitionMisses)
	}
}

func TestStoreBoundEvicts(t *testing.T) {
	// Each entry costs 48 bytes; a bound of 150 fits three entries. All keys
	// are on the same (pinned seed) level, so the level-weighted policy
	// degenerates to plain LRU via its last-resort fallback.
	s := NewPartitionStore(3*colPartitionCost + 5)
	keys := []bitset.AttrSet{}
	for a := 0; a < 6; a++ {
		x := bitset.NewAttrSet(a)
		keys = append(keys, x)
		s.Put(x, colPartition(10))
	}
	st := s.Stats()
	if st.Entries > 3 {
		t.Errorf("entries = %d, want <= 3 under the bound", st.Entries)
	}
	if st.Cost > st.MaxCost {
		t.Errorf("cost %d exceeds bound %d", st.Cost, st.MaxCost)
	}
	if st.Evictions != 3 {
		t.Errorf("evictions = %d, want 3", st.Evictions)
	}
	// LRU order: the oldest keys were evicted, the newest survive.
	for _, x := range keys[:3] {
		if _, ok := s.Get(x); ok {
			t.Errorf("key %v should have been evicted", x)
		}
	}
	for _, x := range keys[3:] {
		if _, ok := s.Get(x); !ok {
			t.Errorf("key %v should have survived", x)
		}
	}
}

func TestStoreLRURefreshOnGet(t *testing.T) {
	s := NewPartitionStore(3*colPartitionCost + 5) // three 48-byte entries fit
	a, b, c, d := bitset.NewAttrSet(0), bitset.NewAttrSet(1), bitset.NewAttrSet(2), bitset.NewAttrSet(3)
	s.Put(a, colPartition(10))
	s.Put(b, colPartition(10))
	s.Put(c, colPartition(10))
	s.Get(a) // refresh a; b becomes the eviction candidate
	s.Put(d, colPartition(10))
	if _, ok := s.Get(b); ok {
		t.Error("b should have been evicted as least recently used")
	}
	if _, ok := s.Get(a); !ok {
		t.Error("a was refreshed and should have survived")
	}
}

func TestStoreOversizedEntryRejected(t *testing.T) {
	s := NewPartitionStore(5)
	s.Put(bitset.NewAttrSet(0), colPartition(100)) // cost 408 bytes > bound 5
	if s.Len() != 0 {
		t.Errorf("oversized entry stored; len = %d", s.Len())
	}
}

func TestStoreLevelWeightedEviction(t *testing.T) {
	// Level-weighted policy: when the bound is hit, the victim is the LRU
	// entry of the DEEPEST level, not the globally least-recently-used entry —
	// shallow partitions are exponentially more reusable and must outlive
	// deep ones.
	s := NewPartitionStore(3*colPartitionCost + 5) // three 48-byte entries fit
	l1a := bitset.NewAttrSet(0)                    // level 1 (pinned seed)
	l1b := bitset.NewAttrSet(1)
	d1 := bitset.NewAttrSet(0, 1, 2) // level 3
	d2 := bitset.NewAttrSet(0, 1, 3)
	s.Put(l1a, colPartition(10))
	s.Put(l1b, colPartition(10))
	s.Put(d1, colPartition(10))
	// The store is full. The singletons are the oldest entries, but inserting
	// another deep partition must evict the deep d1, not the stale singletons.
	s.Put(d2, colPartition(10))
	if _, ok := s.Get(d1); ok {
		t.Error("deep entry d1 should have been evicted (deepest level first)")
	}
	for _, x := range []bitset.AttrSet{l1a, l1b, d2} {
		if _, ok := s.Get(x); !ok {
			t.Errorf("entry %v should have survived the deep eviction", x)
		}
	}

	// Within one level the policy is LRU: d2 was just refreshed by Get, so a
	// further deep insert evicts... d2 is the only level-3 entry, so it goes;
	// add a level-2 entry first to check cross-level ordering: the level-3
	// entry is evicted before the level-2 one regardless of recency.
	l2 := bitset.NewAttrSet(2, 3)
	s.Put(l2, colPartition(10)) // store full again: l1a, l1b, d2, l2 minus evictions
	if _, ok := s.Get(d2); ok {
		t.Error("level-3 entry should have been evicted before the level-2 entry")
	}
	if _, ok := s.Get(l2); !ok {
		t.Error("level-2 entry should have survived while a level-3 entry existed")
	}

	// Pinned seed levels go only as a last resort, in LRU order.
	l1c := bitset.NewAttrSet(3)
	s.Put(l1c, colPartition(10)) // only l1a, l1b, l2 remain as victims: l2 is deepest
	if _, ok := s.Get(l2); ok {
		t.Error("level-2 entry should have been evicted before any pinned singleton")
	}
	st := s.Stats()
	if st.Cost > st.MaxCost {
		t.Errorf("cost %d exceeds bound %d", st.Cost, st.MaxCost)
	}
}

func TestStoreRowMismatchRejected(t *testing.T) {
	s := NewPartitionStore(0)
	s.Put(bitset.NewAttrSet(0), colPartition(10)) // pins rows=10
	s.Put(bitset.NewAttrSet(1), colPartition(20)) // different relation: dropped
	if _, ok := s.Get(bitset.NewAttrSet(1)); ok {
		t.Error("partition with mismatched row count must not be stored")
	}
	if s.Len() != 1 {
		t.Errorf("len = %d, want 1", s.Len())
	}
	s.Reset()
	if s.Len() != 0 {
		t.Errorf("len after Reset = %d, want 0", s.Len())
	}
	s.Put(bitset.NewAttrSet(1), colPartition(20)) // re-pinned after Reset
	if _, ok := s.Get(bitset.NewAttrSet(1)); !ok {
		t.Error("Reset must unpin the row count")
	}
}
