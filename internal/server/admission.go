package server

import (
	"context"
	"time"
)

// Admission is the bounded in-flight-query semaphore. It sits above
// the engine's Options.Parallelism bound: Parallelism caps how many
// worker goroutines one engine spends, Admission caps how many queries
// are allowed to contend for them at all. Beyond the bound, requests
// wait at most the configured grace and are then rejected (HTTP 429)
// instead of queuing unboundedly.
//
// The semaphore is split into two tiers: a general pool every query
// may use, and an optional reserve only cheap queries (adaptive
// eps-bearing requests, which stop sampling early) may fall back to.
// The reserve keeps a saturating flood of full-budget queries from
// starving the approximate tier whose whole point is to degrade
// gracefully under load. With reserve 0 (the default) it is a plain
// single-pool semaphore.
type Admission struct {
	general  chan struct{} // every query contends here first
	reserved chan struct{} // cheap-tier fallback; nil when reserve == 0
	wait     time.Duration
}

// NewTieredAdmission splits maxInFlight total slots into a general
// pool of maxInFlight−reserve and a cheap-only reserve. The reserve is
// clamped so at least one general slot always exists (a server that
// admits only cheap queries would deadlock every exact query).
func NewTieredAdmission(maxInFlight, reserve int, wait time.Duration) *Admission {
	if reserve < 0 {
		reserve = 0
	}
	if reserve > maxInFlight-1 {
		reserve = maxInFlight - 1
	}
	a := &Admission{
		general: make(chan struct{}, maxInFlight-reserve),
		wait:    wait,
	}
	if reserve > 0 {
		a.reserved = make(chan struct{}, reserve)
	}
	return a
}

// AcquireTier claims a slot for a query of the given tier, waiting up
// to the Admission grace (bounded by the request context). It returns
// a release func that frees exactly the slot claimed, or nil when the
// request must be rejected.
// Cheap queries try the general pool first so the reserve stays free
// as long as possible. The fast path — a free slot — never allocates
// a timer.
func (a *Admission) AcquireTier(ctx context.Context, cheap bool) func() {
	select {
	case a.general <- struct{}{}:
		return a.releaseGeneral
	default:
	}
	if cheap && a.reserved != nil {
		select {
		case a.reserved <- struct{}{}:
			return a.releaseReserved
		default:
		}
	}
	if a.wait <= 0 {
		return nil
	}
	t := time.NewTimer(a.wait)
	defer t.Stop()
	if cheap && a.reserved != nil {
		select {
		case a.general <- struct{}{}:
			return a.releaseGeneral
		case a.reserved <- struct{}{}:
			return a.releaseReserved
		case <-t.C:
			return nil
		case <-ctx.Done():
			return nil
		}
	}
	select {
	case a.general <- struct{}{}:
		return a.releaseGeneral
	case <-t.C:
		return nil
	case <-ctx.Done():
		return nil
	}
}

func (a *Admission) releaseGeneral()  { <-a.general }
func (a *Admission) releaseReserved() { <-a.reserved }

// Wait is the admission grace: how long a request may block for a slot
// before being rejected. Handlers derive the 429 Retry-After hint from
// it — after one grace period a slot has either freed or the client
// should back off at least that long.
func (a *Admission) Wait() time.Duration { return a.wait }
