package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetMissAndHit(t *testing.T) {
	c := New[int, string](2)
	if _, ok := c.Get(1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Add(1, "a")
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Fatalf("got %q, %v", v, ok)
	}
	if c.Len() != 1 || c.Cap() != 2 {
		t.Fatalf("len=%d cap=%d", c.Len(), c.Cap())
	}
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[int, int](2)
	c.Add(1, 10)
	c.Add(2, 20)
	c.Add(3, 30) // evicts 1
	if _, ok := c.Get(1); ok {
		t.Fatal("1 survived eviction")
	}
	if v, ok := c.Get(2); !ok || v != 20 {
		t.Fatal("2 lost")
	}
	if v, ok := c.Get(3); !ok || v != 30 {
		t.Fatal("3 lost")
	}
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d", c.Evictions())
	}
}

func TestGetPromotes(t *testing.T) {
	c := New[int, int](2)
	c.Add(1, 10)
	c.Add(2, 20)
	c.Get(1)     // promote 1; 2 is now LRU
	c.Add(3, 30) // evicts 2
	if _, ok := c.Get(2); ok {
		t.Fatal("promoted entry evicted instead of LRU")
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("promoted entry lost")
	}
}

func TestAddUpdatesAndPromotes(t *testing.T) {
	c := New[int, int](2)
	c.Add(1, 10)
	c.Add(2, 20)
	c.Add(1, 11) // update, promote; 2 is LRU
	c.Add(3, 30) // evicts 2
	if v, ok := c.Get(1); !ok || v != 11 {
		t.Fatalf("update lost: %v %v", v, ok)
	}
	if _, ok := c.Get(2); ok {
		t.Fatal("2 survived")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestCapacityOne(t *testing.T) {
	c := New[string, int](1)
	c.Add("a", 1)
	c.Add("b", 2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived in capacity-1 cache")
	}
	if v, ok := c.Get("b"); !ok || v != 2 {
		t.Fatal("b lost")
	}
}

func TestBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 accepted")
		}
	}()
	New[int, int](0)
}

// TestConcurrentMixedAccess exercises the internal locking under the
// race detector: many goroutines hammering overlapping keys must never
// corrupt the recency list or lose the capacity bound.
func TestConcurrentMixedAccess(t *testing.T) {
	c := New[int, int](16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*7 + i) % 40
				c.Add(k, k*10)
				if v, ok := c.Get(k); ok && v != k*10 {
					panic(fmt.Sprintf("key %d holds %d", k, v))
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("len %d exceeds capacity", c.Len())
	}
}

func TestSnapshotRecencyOrder(t *testing.T) {
	c := New[int, string](4)
	c.Add(1, "a")
	c.Add(2, "b")
	c.Add(3, "c")
	c.Get(1) // promote 1 to MRU
	keys, vals := c.Snapshot()
	wantKeys := []int{2, 3, 1} // LRU first
	if len(keys) != len(wantKeys) {
		t.Fatalf("snapshot has %d entries, want %d", len(keys), len(wantKeys))
	}
	for i, k := range wantKeys {
		if keys[i] != k {
			t.Fatalf("snapshot keys %v, want %v", keys, wantKeys)
		}
	}
	// Replaying a snapshot into an empty cache reproduces the recency
	// state: inserting one more entry must evict the same victim.
	replay := New[int, string](4)
	for i := range keys {
		replay.Add(keys[i], vals[i])
	}
	c.Add(9, "z")
	replay.Add(9, "z")
	c.Add(10, "y") // evicts 2 in both
	replay.Add(10, "y")
	if _, ok := replay.Get(2); ok {
		t.Fatal("replayed cache kept the victim the original evicted")
	}
	if _, ok := c.Get(2); ok {
		t.Fatal("original cache kept entry 2")
	}
	k2, _ := c.Snapshot()
	k3, _ := replay.Snapshot()
	for i := range k2 {
		if k2[i] != k3[i] {
			t.Fatalf("diverged after replay: %v vs %v", k2, k3)
		}
	}
}

func TestSnapshotEmpty(t *testing.T) {
	keys, vals := New[int, int](2).Snapshot()
	if len(keys) != 0 || len(vals) != 0 {
		t.Fatalf("empty snapshot returned %v / %v", keys, vals)
	}
}

// TestCarryMatchesFilteredReplay pins Carry to its definition: the
// successor equals an empty cache with Snapshot's accepted pairs
// re-added in order — same entries, same recency, same next victims —
// and it shares the lineage counters.
func TestCarryMatchesFilteredReplay(t *testing.T) {
	c := New[int, string](8)
	for k := 0; k < 8; k++ {
		c.Add(k, fmt.Sprint("v", k))
	}
	c.Get(2)
	c.Get(5)
	c.Get(0)
	keep := func(k int, _ string) bool { return k%3 != 1 }
	var seen []int
	c.Range(func(k int, _ string) { seen = append(seen, k) })
	carried := c.Carry(keep)
	replay := New[int, string](8)
	keys, vals := c.Snapshot()
	for i, k := range keys {
		if seen[len(seen)-1-i] != k {
			t.Fatalf("Range order %v is not Snapshot's %v reversed", seen, keys)
		}
		if keep(k, vals[i]) {
			replay.Add(k, vals[i])
		}
	}
	same := func(when string) {
		t.Helper()
		gk, gv := carried.Snapshot()
		wk, wv := replay.Snapshot()
		if fmt.Sprint(gk, gv) != fmt.Sprint(wk, wv) {
			t.Fatalf("%s: carried %v %v, replayed %v %v", when, gk, gv, wk, wv)
		}
	}
	same("after Carry")
	for k := 20; k < 26; k++ { // past capacity: both evict the same victims
		carried.Add(k, fmt.Sprint("w", k))
		replay.Add(k, fmt.Sprint("w", k))
		same(fmt.Sprintf("after adding %d", k))
	}
	carried.Get(20)
	replay.Get(20)
	same("after a promotion")
	if _, ok := c.Get(99); ok {
		t.Fatal("hit on a missing key")
	}
	h1, m1 := c.Counters()
	h2, m2 := carried.Counters()
	if h1 != h2 || m1 != m2 || c.Evictions() != carried.Evictions() || carried.Evictions() == 0 {
		t.Fatalf("counters not shared: %d/%d/%d vs %d/%d/%d", h1, m1, c.Evictions(), h2, m2, carried.Evictions())
	}
}

// TestContinueCounters: a fresh cache that continues another's lineage
// starts at its totals, and both record into them afterwards.
func TestContinueCounters(t *testing.T) {
	prev := New[int, int](1)
	prev.Add(1, 1)
	prev.Add(2, 2) // one eviction
	prev.Get(2)
	prev.Get(1)
	next := New[int, int](4)
	next.ContinueCounters(prev)
	if h, m := next.Counters(); h != 1 || m != 1 || next.Evictions() != 1 {
		t.Fatalf("continued cache starts at %d hits, %d misses, %d evictions; want 1, 1, 1", h, m, next.Evictions())
	}
	next.Get(7)
	if _, m := prev.Counters(); m != 2 {
		t.Fatalf("a miss on the continuing cache left the lineage at %d misses, want 2", m)
	}
}
