package sub

import (
	"bufio"
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestWakeTouchesOnlyWatchers(t *testing.T) {
	r := NewRegistry()
	a := r.Subscribe([]int32{1}, 0)
	b := r.Subscribe([]int32{2}, 0)
	c := r.Subscribe([]int32{3}, 0)

	if woken := r.Wake([]int32{1, 2}, 7); woken != 2 {
		t.Fatalf("Wake woke %d subscriptions, want 2", woken)
	}
	if got := a.Claim(); got != 7 {
		t.Fatalf("a claimed generation %d, want 7", got)
	}
	if got := b.Pending(); got != 7 {
		t.Fatalf("b pending generation %d, want 7", got)
	}
	if got := c.Pending(); got != 0 {
		t.Fatalf("c pending generation %d, want clean (0)", got)
	}
	select {
	case <-c.Wait():
		t.Fatal("unwatched subscription was signalled")
	default:
	}
	select {
	case <-a.Wait():
	default:
		t.Fatal("woken subscription was not signalled")
	}
}

// TestWakeCostIsPerTouchedVertex pins the idle-cost model: a batch
// touching k vertices performs exactly k inverted-index lookups no
// matter how many subscriptions are registered.
func TestWakeCostIsPerTouchedVertex(t *testing.T) {
	r := NewRegistry()
	for v := int32(0); v < 1000; v++ {
		r.Subscribe([]int32{v}, 0)
	}
	before := r.Snapshot(nil).Lookups
	touched := []int32{5, 9, 1003} // 1003 watches nobody
	if woken := r.Wake(touched, 2); woken != 2 {
		t.Fatalf("woke %d, want 2", woken)
	}
	if got := r.Snapshot(nil).Lookups - before; got != uint64(len(touched)) {
		t.Fatalf("wake performed %d lookups for %d touched vertices", got, len(touched))
	}
}

func TestWakeCoalescesGenerations(t *testing.T) {
	r := NewRegistry()
	s := r.Subscribe([]int32{4}, 0)

	if woken := r.Wake([]int32{4}, 2); woken != 1 {
		t.Fatal("first wake should signal")
	}
	// Two more generations before the streamer claims: both coalesce,
	// and the claim sees only the newest.
	if woken := r.Wake([]int32{4}, 3); woken != 0 {
		t.Fatal("second wake must coalesce, not re-signal")
	}
	if woken := r.Wake([]int32{4}, 4); woken != 0 {
		t.Fatal("third wake must coalesce, not re-signal")
	}
	st := r.Snapshot(nil)
	if st.Wakeups != 1 || st.Coalesced != 2 {
		t.Fatalf("wakeups=%d coalesced=%d, want 1 and 2", st.Wakeups, st.Coalesced)
	}
	if got := s.Claim(); got != 4 {
		t.Fatalf("claimed generation %d, want the newest (4)", got)
	}
	if got := s.Claim(); got != 0 {
		t.Fatalf("second claim got %d, want clean (0)", got)
	}
	// A stale wake (generation already covered) is absorbed silently.
	s.offer(5)
	if woken, coalesced := s.offer(5); woken || !coalesced {
		t.Fatalf("duplicate-generation offer: woken=%v coalesced=%v", woken, coalesced)
	}
}

// TestScoreShapeWakesOnceForBothEndpoints: a subscription watching two
// vertices (a score shape) is woken exactly once when a batch touches
// both, with no phantom coalesce.
func TestScoreShapeWakesOnceForBothEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Subscribe([]int32{1, 2}, 0)
	if woken := r.Wake([]int32{1, 2}, 9); woken != 1 {
		t.Fatalf("woke %d, want exactly 1", woken)
	}
	st := r.Snapshot(nil)
	if st.Wakeups != 1 || st.Coalesced != 0 {
		t.Fatalf("wakeups=%d coalesced=%d, want 1 and 0", st.Wakeups, st.Coalesced)
	}
}

func TestWakeAllAndUnsubscribe(t *testing.T) {
	r := NewRegistry()
	a := r.Subscribe([]int32{1}, 0)
	b := r.Subscribe([]int32{2}, 0)
	r.Unsubscribe(a)
	r.Unsubscribe(a) // idempotent
	if woken := r.WakeAll(3); woken != 1 {
		t.Fatalf("WakeAll woke %d, want 1", woken)
	}
	if a.Pending() != 0 {
		t.Fatal("unsubscribed subscription was woken")
	}
	if b.Pending() != 3 {
		t.Fatal("live subscription missed WakeAll")
	}
	if got := r.Snapshot(nil).Active; got != 1 {
		t.Fatalf("active=%d, want 1", got)
	}
}

func TestShutdownBroadcastAndAwaitIdle(t *testing.T) {
	r := NewRegistry()
	s := r.Subscribe([]int32{1}, 0)

	if r.AwaitIdle(time.Millisecond) {
		t.Fatal("AwaitIdle reported idle before Shutdown")
	}
	done := make(chan struct{})
	go func() {
		<-r.ShuttingDown()
		r.Unsubscribe(s)
		close(done)
	}()
	r.Shutdown()
	r.Shutdown() // idempotent
	if !r.AwaitIdle(5 * time.Second) {
		t.Fatal("AwaitIdle timed out after the last unsubscribe")
	}
	<-done
	if got := r.Subscribe([]int32{2}, 0); got != nil {
		t.Fatal("Subscribe succeeded after Shutdown")
	}
}

func TestShutdownWithNoSubscribersIsImmediatelyIdle(t *testing.T) {
	r := NewRegistry()
	r.Shutdown()
	if !r.AwaitIdle(time.Second) {
		t.Fatal("empty registry not idle after Shutdown")
	}
}

// TestConcurrentWakeAndChurn exercises the registry under the race
// detector: wakes racing subscribe/unsubscribe churn and claims.
func TestConcurrentWakeAndChurn(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int32) {
			defer wg.Done()
			gen := uint64(1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				gen++
				r.Wake([]int32{seed, seed + 1}, gen)
			}
		}(int32(w))
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(v int32) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := r.Subscribe([]int32{v, v + 1}, 0)
				s.Claim()
				r.Unsubscribe(s)
			}
		}(int32(w))
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if got := r.Snapshot(nil).Active; got != 0 {
		t.Fatalf("active=%d after churn, want 0", got)
	}
}

func TestEventFramingRoundTrip(t *testing.T) {
	payload := []byte("{\n  \"score\": 0.25\n}\n")
	var buf bytes.Buffer
	if err := WriteEvent(&buf, "update", 7, payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteComment(&buf, "heartbeat"); err != nil {
		t.Fatal(err)
	}
	if err := WriteEvent(&buf, "shutdown", 0, []byte("bye")); err != nil {
		t.Fatal(err)
	}

	br := bufio.NewReader(&buf)
	f, err := ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "update" || f.ID() != 7 {
		t.Fatalf("frame name=%q id=%d, want update/7", f.Name(), f.ID())
	}
	if got := f.Data(); !bytes.Equal(got, payload) {
		t.Fatalf("payload did not round-trip:\n got %q\nwant %q", got, payload)
	}
	// A relayed frame is byte-identical to the original wire form.
	var relay bytes.Buffer
	if err := f.Forward(&relay); err != nil {
		t.Fatal(err)
	}
	if want := "event: update\nid: 7\ndata: {\ndata:   \"score\": 0.25\ndata: }\n\n"; relay.String() != want {
		t.Fatalf("relayed frame %q, want %q", relay.String(), want)
	}

	hb, err := ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if !hb.Comment() || hb.Name() != "" || hb.Data() != nil {
		t.Fatalf("heartbeat parsed as %+v", hb)
	}

	bye, err := ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if bye.Name() != "shutdown" || bye.ID() != 0 || string(bye.Data()) != "bye\n" {
		t.Fatalf("terminal frame parsed as name=%q id=%d data=%q", bye.Name(), bye.ID(), bye.Data())
	}
	if _, err := ReadFrame(br); err == nil {
		t.Fatal("expected EOF after the last frame")
	}
}

func TestReadFrameMidFrameEOF(t *testing.T) {
	br := bufio.NewReader(strings.NewReader("event: update\nid: 3\n"))
	if _, err := ReadFrame(br); err == nil {
		t.Fatal("expected an error for a truncated frame")
	}
}

// TestSubscriptionAccessors pins the read-only accessors the serving
// plane relies on for vertex-range re-checks and stats.
func TestSubscriptionAccessors(t *testing.T) {
	r := NewRegistry()
	su := r.Subscribe([]int32{4, 9}, 25*time.Millisecond)
	if got := su.Vertices(); len(got) != 2 || got[0] != 4 || got[1] != 9 {
		t.Fatalf("Vertices() = %v, want [4 9]", got)
	}
	if su.Staleness() != 25*time.Millisecond {
		t.Fatalf("Staleness() = %v", su.Staleness())
	}
	r.NoteDropped()
	if st := r.Snapshot(nil); st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
}

// TestWildcardSubscription pins AnyVertex semantics: a wildcard
// subscription is woken by every non-empty Wake regardless of which
// vertices were touched, absorbs repeat wakes into the pending push,
// never fires on an empty invalidation set, and unregisters cleanly.
func TestWildcardSubscription(t *testing.T) {
	r := NewRegistry()
	wild := r.Subscribe([]int32{AnyVertex}, 0)
	keyed := r.Subscribe([]int32{7}, 0)

	if woken := r.Wake(nil, 2); woken != 0 {
		t.Fatalf("empty touched set woke %d subscriptions, want 0", woken)
	}
	if wild.Pending() != 0 {
		t.Fatal("wildcard marked dirty by an empty invalidation set")
	}

	// A touched vertex nobody watches by key still reaches the wildcard.
	if woken := r.Wake([]int32{3}, 2); woken != 1 {
		t.Fatalf("Wake({3}) woke %d, want 1 (the wildcard)", woken)
	}
	if wild.Pending() != 2 {
		t.Fatalf("wildcard pending %d, want 2", wild.Pending())
	}
	if keyed.Pending() != 0 {
		t.Fatal("vertex-keyed subscription woken by an unwatched vertex")
	}

	// A second batch before the claim coalesces, carrying the newest
	// generation.
	if woken := r.Wake([]int32{9}, 3); woken != 0 {
		t.Fatalf("Wake before claim woke %d, want 0 (coalesce)", woken)
	}
	if got := wild.Claim(); got != 3 {
		t.Fatalf("claimed generation %d, want 3", got)
	}
	ss := r.Snapshot(nil)
	if ss.Wakeups != 1 || ss.Coalesced != 1 {
		t.Fatalf("wakeups=%d coalesced=%d, want 1 and 1", ss.Wakeups, ss.Coalesced)
	}

	r.Unsubscribe(wild)
	if woken := r.Wake([]int32{3}, 4); woken != 0 {
		t.Fatalf("unsubscribed wildcard still woken (%d)", woken)
	}
}
