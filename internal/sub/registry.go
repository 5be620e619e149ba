package sub

import (
	"sync"
	"sync/atomic"
	"time"

	"usimrank/internal/obs"
)

// AnyVertex is a sentinel watch entry: a subscription whose watch set
// contains AnyVertex is woken by every update batch whose invalidation
// set is non-empty, regardless of which vertices it touched. Shapes
// whose answer depends on every vertex's walk distribution — top-k of
// u and the unrestricted single-source vector — must watch AnyVertex:
// a changed v-side row can move any candidate's score even when the
// query's own source vertex is provably unaffected.
const AnyVertex int32 = -1

// Subscription is one client's standing interest in a query shape. It
// is created by Registry.Subscribe and owned by the goroutine serving
// the client's stream; the registry only ever touches its pending
// generation, so the wake path stays lock-free per subscription.
type Subscription struct {
	vertices  []int32
	staleness time.Duration

	// pending is the newest generation whose answer this subscription
	// still owes its client, 0 when clean. Serving generations start at
	// 1, so 0 is a safe sentinel. It only grows: a wake with an older
	// generation than the pending one is absorbed without effect.
	pending atomic.Uint64
	// wake carries the clean→dirty edge to the streaming goroutine.
	// Buffered by one: a wake never blocks the update path, and a
	// subscription that is already signalled needs no second token.
	wake chan struct{}
}

// Wait returns the channel signalled on the subscription's clean→dirty
// edge. After receiving, call Claim to learn the target generation.
func (s *Subscription) Wait() <-chan struct{} { return s.wake }

// Claim atomically takes the pending generation (0 when the
// subscription is clean), marking the subscription clean again. Wakes
// arriving after the claim re-signal, so no generation is ever lost.
func (s *Subscription) Claim() uint64 { return s.pending.Swap(0) }

// Pending returns the pending generation without claiming it.
func (s *Subscription) Pending() uint64 { return s.pending.Load() }

// Staleness is the subscription's negotiated staleness SLA: how long
// the streamer may sit on a wake-up collecting further generations
// before it must push.
func (s *Subscription) Staleness() time.Duration { return s.staleness }

// Vertices returns the watched vertex set (read-only).
func (s *Subscription) Vertices() []int32 { return s.vertices }

// offer marks gen pending. It reports whether this was a clean→dirty
// wake (the streamer got signalled) or a coalesce into an already
// pending push.
func (s *Subscription) offer(gen uint64) (woken, coalesced bool) {
	for {
		cur := s.pending.Load()
		if cur >= gen {
			// Already owes this generation or newer: the pending push
			// covers it.
			return false, true
		}
		if !s.pending.CompareAndSwap(cur, gen) {
			continue
		}
		if cur != 0 {
			return false, true
		}
		select {
		case s.wake <- struct{}{}:
		default:
		}
		return true, false
	}
}

// Stats is a snapshot of the registry's counters. The server's
// SubscriptionStats wire type converts from it, so the two field lists
// stay identical.
type Stats struct {
	// Active is the number of registered subscriptions.
	Active int64
	// Lookups counts inverted-index probes performed by Wake — exactly
	// one per touched vertex per batch, independent of how many
	// subscriptions exist.
	Lookups uint64
	// Wakeups counts clean→dirty subscription transitions; Coalesced
	// counts wake-ups absorbed into an already pending push.
	Wakeups   uint64
	Coalesced uint64
	// Pushes and Dropped are noted by the streaming side: answers
	// delivered, and subscriptions torn down while still owing one.
	Pushes  uint64
	Dropped uint64
}

// Registry indexes live subscriptions by watched vertex and fans
// update wake-ups out to exactly the affected ones. All methods are
// safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	byVertex map[int32]map[*Subscription]struct{}
	wildcard map[*Subscription]struct{} // watch sets containing AnyVertex
	all      map[*Subscription]struct{}
	closed   bool
	idle     chan struct{} // closed once Shutdown has run and Active is 0

	shutdown chan struct{}
	once     sync.Once

	active    atomic.Int64
	lookups   atomic.Uint64
	wakeups   atomic.Uint64
	coalesced atomic.Uint64
	pushes    atomic.Uint64
	dropped   atomic.Uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byVertex: make(map[int32]map[*Subscription]struct{}),
		wildcard: make(map[*Subscription]struct{}),
		all:      make(map[*Subscription]struct{}),
		idle:     make(chan struct{}),
		shutdown: make(chan struct{}),
	}
}

// Subscribe registers a subscription watching vertices (which may be
// empty for streams that only want lifecycle tracking, like the
// cluster coordinator's relays) with the given staleness SLA. A watch
// set containing AnyVertex registers in the wildcard bucket instead of
// the per-vertex index: every non-empty Wake reaches it. It returns
// nil when the registry is already shutting down — the caller must
// refuse the stream rather than serve one that will never see a
// terminal event.
func (r *Registry) Subscribe(vertices []int32, staleness time.Duration) *Subscription {
	s := &Subscription{
		vertices:  vertices,
		staleness: staleness,
		wake:      make(chan struct{}, 1),
	}
	any := false
	for _, v := range vertices {
		if v == AnyVertex {
			any = true
			break
		}
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.all[s] = struct{}{}
	if any {
		// The wildcard subsumes every per-vertex bucket; indexing the
		// rest of the watch set would only double-count wakes.
		r.wildcard[s] = struct{}{}
	} else {
		for _, v := range vertices {
			bucket := r.byVertex[v]
			if bucket == nil {
				bucket = make(map[*Subscription]struct{})
				r.byVertex[v] = bucket
			}
			bucket[s] = struct{}{}
		}
	}
	r.mu.Unlock()
	r.active.Add(1)
	return s
}

// Unsubscribe removes s from the index. Idempotent.
func (r *Registry) Unsubscribe(s *Subscription) {
	r.mu.Lock()
	if _, ok := r.all[s]; !ok {
		r.mu.Unlock()
		return
	}
	delete(r.all, s)
	delete(r.wildcard, s)
	for _, v := range s.vertices {
		if bucket := r.byVertex[v]; bucket != nil {
			delete(bucket, s)
			if len(bucket) == 0 {
				delete(r.byVertex, v)
			}
		}
	}
	closeIdle := r.closed && len(r.all) == 0
	r.mu.Unlock()
	r.active.Add(-1)
	if closeIdle {
		r.closeIdle()
	}
}

func (r *Registry) closeIdle() {
	// Guarded by the closed+empty transition happening at most once:
	// Subscribe refuses new entries after Shutdown, so the map can
	// never repopulate. The select keeps a racing double-call safe.
	select {
	case <-r.idle:
	default:
		close(r.idle)
	}
}

// Wake marks every subscription watching one of the touched vertices —
// plus every wildcard (AnyVertex) subscription — dirty for generation
// gen and reports how many clean subscriptions were signalled. Cost is
// one map lookup per touched vertex plus work proportional to the
// number of affected subscriptions — a million idle vertex-keyed
// subscriptions elsewhere cost nothing. Wildcard subscriptions pay
// O(1) each per non-empty batch, which is inherent: their answers
// depend on every vertex's walk distribution.
func (r *Registry) Wake(touched []int32, gen uint64) int {
	if len(touched) == 0 {
		return 0
	}
	r.lookups.Add(uint64(len(touched)))
	woken := 0
	var seen map[*Subscription]struct{}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, v := range touched {
		bucket := r.byVertex[v]
		if bucket == nil {
			continue
		}
		for s := range bucket {
			// A score subscription watches two vertices; an update batch
			// touching both must wake it once, not wake-then-coalesce.
			if _, dup := seen[s]; dup {
				continue
			}
			if seen == nil {
				seen = make(map[*Subscription]struct{})
			}
			seen[s] = struct{}{}
			if w, c := s.offer(gen); w {
				woken++
				r.wakeups.Add(1)
			} else if c {
				r.coalesced.Add(1)
			}
		}
	}
	for s := range r.wildcard {
		if w, c := s.offer(gen); w {
			woken++
			r.wakeups.Add(1)
		} else if c {
			r.coalesced.Add(1)
		}
	}
	return woken
}

// WakeAll marks every subscription dirty for gen — the reload path,
// where no invalidation set exists because everything may have changed.
func (r *Registry) WakeAll(gen uint64) int {
	woken := 0
	r.mu.Lock()
	defer r.mu.Unlock()
	for s := range r.all {
		if w, c := s.offer(gen); w {
			woken++
			r.wakeups.Add(1)
		} else if c {
			r.coalesced.Add(1)
		}
	}
	return woken
}

// Shutdown closes the broadcast channel every streamer selects on, so
// live streams send their terminal event and unsubscribe. Idempotent;
// Subscribe refuses new registrations afterwards.
func (r *Registry) Shutdown() {
	r.once.Do(func() {
		r.mu.Lock()
		r.closed = true
		empty := len(r.all) == 0
		r.mu.Unlock()
		close(r.shutdown)
		if empty {
			r.closeIdle()
		}
	})
}

// ShuttingDown returns the channel closed by Shutdown.
func (r *Registry) ShuttingDown() <-chan struct{} { return r.shutdown }

// AwaitIdle blocks until every subscription has unsubscribed after a
// Shutdown, or the timeout elapses; it reports which happened.
func (r *Registry) AwaitIdle(timeout time.Duration) bool {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-r.idle:
		return true
	case <-t.C:
		return false
	}
}

// NotePush and NoteDropped feed the streaming side's counters.
func (r *Registry) NotePush()    { r.pushes.Add(1) }
func (r *Registry) NoteDropped() { r.dropped.Add(1) }

// Snapshot returns the current counter values. Each line that reads a
// counter declares its Prometheus family and writes it when pw is
// non-nil: a node's /v1/subscribe streams and a coordinator's relays
// of them expose the same families from here.
func (r *Registry) Snapshot(pw *obs.PromWriter) Stats {
	return Stats{
		Active:    obs.Gauge(pw, "usimrank_subscriptions_active", "Open /v1/subscribe streams.", r.active.Load()),
		Wakeups:   obs.Counter(pw, "usimrank_sub_wakeups_total", "Subscriptions woken by admin mutations (clean-to-dirty transitions).", r.wakeups.Load()),
		Pushes:    obs.Counter(pw, "usimrank_sub_pushes_total", "Update events delivered to subscribers (snapshots excluded).", r.pushes.Load()),
		Coalesced: obs.Counter(pw, "usimrank_sub_coalesced_total", "Subscription wake-ups folded into an already-pending push.", r.coalesced.Load()),
		Dropped:   obs.Counter(pw, "usimrank_sub_dropped_total", "Subscription streams ended by a failed push, or by a terminal error or gone event.", r.dropped.Load()),
		Lookups:   r.lookups.Load(),
	}
}
