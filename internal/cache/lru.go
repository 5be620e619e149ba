// Package cache provides the bounded, concurrency-safe LRU used by the
// engine's shared row cache. The previous cache wiped its whole map
// whenever it filled up, so an all-pairs or single-source sweep that
// slightly exceeded the capacity thrashed: every reset threw away rows
// that were about to be reused. The LRU replaces the wholesale reset
// with bounded per-entry eviction — repeated queries against a warm
// working set stay warm.
//
// The cache is internally mutex-guarded so callers can share one
// instance across query goroutines without external locking. Values are
// returned as stored; callers that hand out slices or pointers must
// treat them as immutable.
package cache

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// entry is one node of the intrusive recency list.
type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// LRU is a fixed-capacity least-recently-used cache, safe for
// concurrent use. Get promotes, Add inserts or updates (also
// promoting), and inserting into a full cache evicts the
// least-recently-used entry.
type LRU[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	items    map[K]*entry[K, V]
	head     *entry[K, V] // most recently used
	tail     *entry[K, V] // least recently used
	ctr      *counters    // shared with every cache Carry derives from it
}

// counters are an LRU lineage's lifetime totals.
type counters struct {
	evictions, hits, misses atomic.Uint64
}

// New returns an empty LRU holding at most capacity entries. It panics
// if capacity < 1: a cache that cannot hold anything is a
// configuration error, not a degenerate mode.
func New[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity < 1 {
		panic(fmt.Sprintf("cache: capacity %d < 1", capacity))
	}
	return &LRU[K, V]{
		capacity: capacity,
		items:    make(map[K]*entry[K, V]),
		ctr:      new(counters),
	}
}

// Range calls f for every entry, from most to least recently used,
// under c's lock; f must not call back into c.
func (c *LRU[K, V]) Range(f func(K, V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.head; e != nil; e = e.next {
		f(e.key, e.val)
	}
}

// Carry returns c's successor: an LRU with c's capacity that holds the
// entries of c that keep accepts, in c's recency order, and continues
// c's lifetime counters (see ContinueCounters), so totals read from the
// newest cache of a lineage never drop when it replaces its
// predecessor. It equals re-inserting Snapshot's accepted pairs in
// order into an empty cache. It is built in one pass under c's lock:
// the carried entries share one slab and the index is sized up front.
// keep runs under the lock, once per entry from most to least recently
// used, and must not call back into c.
func (c *LRU[K, V]) Carry(keep func(K, V) bool) *LRU[K, V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	slab := make([]entry[K, V], 0, len(c.items))
	for e := c.head; e != nil; e = e.next {
		if keep(e.key, e.val) {
			slab = append(slab, entry[K, V]{key: e.key, val: e.val})
		}
	}
	succ := &LRU[K, V]{
		capacity: c.capacity,
		items:    make(map[K]*entry[K, V], len(slab)),
		ctr:      c.ctr,
	}
	for i := range slab {
		e := &slab[i]
		if i > 0 {
			e.prev, slab[i-1].next = &slab[i-1], e
		}
		succ.items[e.key] = e
	}
	if len(slab) > 0 {
		succ.head, succ.tail = &slab[0], &slab[len(slab)-1]
	}
	return succ
}

// ContinueCounters makes c's lifetime counters continue prev's: hits,
// misses and evictions recorded by either cache then show in both.
// Call it before c is shared.
func (c *LRU[K, V]) ContinueCounters(prev *LRU[K, V]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ctr = prev.ctr
}

// unlink removes e from the recency list.
func (c *LRU[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used entry.
func (c *LRU[K, V]) pushFront(e *entry[K, V]) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// Get returns the value stored under k and promotes the entry to most
// recently used.
func (c *LRU[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[k]
	if !ok {
		c.ctr.misses.Add(1)
		var zero V
		return zero, false
	}
	c.ctr.hits.Add(1)
	if c.head != e {
		c.unlink(e)
		c.pushFront(e)
	}
	return e.val, true
}

// Add stores v under k, promoting the entry. When the cache is full and
// k is new, the least-recently-used entry is evicted.
func (c *LRU[K, V]) Add(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[k]; ok {
		e.val = v
		if c.head != e {
			c.unlink(e)
			c.pushFront(e)
		}
		return
	}
	var e *entry[K, V]
	if len(c.items) >= c.capacity {
		// Reuse the evicted entry: it may sit in a slab built by Carry,
		// and overwriting it drops its reference to the evicted value.
		e = c.tail
		c.unlink(e)
		delete(c.items, e.key)
		c.ctr.evictions.Add(1)
		*e = entry[K, V]{key: k, val: v}
	} else {
		e = &entry[K, V]{key: k, val: v}
	}
	c.items[k] = e
	c.pushFront(e)
}

// Len returns the number of cached entries.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Cap returns the cache's capacity.
func (c *LRU[K, V]) Cap() int { return c.capacity }

// Snapshot returns the cache's entries in recency order, least recently
// used first. Re-inserting the returned pairs in order into an empty
// LRU reproduces the receiver's recency state exactly (Carry does the
// same for a filtered copy in one pass). The slices are fresh; the
// values are shared as stored.
func (c *LRU[K, V]) Snapshot() (keys []K, vals []V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys = make([]K, 0, len(c.items))
	vals = make([]V, 0, len(c.items))
	for e := c.tail; e != nil; e = e.prev {
		keys = append(keys, e.key)
		vals = append(vals, e.val)
	}
	return keys, vals
}

// Evictions returns the number of entries evicted so far, across the
// cache's lineage (see Carry and ContinueCounters) — the
// observable difference between bounded eviction and the old
// wipe-everything reset, and a cheap thrash metric for callers sizing
// RowCacheSize.
func (c *LRU[K, V]) Evictions() uint64 { return c.ctr.evictions.Load() }

// Counters returns the lineage's lifetime Get hit and miss counts — the
// effectiveness companion to Evictions' thrash metric. Adds are not
// counted: a warm working set shows hits climbing against flat misses.
func (c *LRU[K, V]) Counters() (hits, misses uint64) {
	return c.ctr.hits.Load(), c.ctr.misses.Load()
}
