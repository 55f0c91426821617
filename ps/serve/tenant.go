package serve

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// tenant is one traffic source's admission state: a token bucket for
// rate quota and an in-flight count for the backpressure bound.
// Tenants are identified by the request's tenant field (or the
// X-PS-Tenant header); unidentified traffic shares the "default"
// tenant.
type tenant struct {
	name string

	mu     sync.Mutex
	tokens float64
	last   time.Time
	// rejected counts quota rejections since the last admitted request.
	// Each rejected client is presumed to retry, so the next arrival
	// needs the bucket to accrue one token per client ahead of it plus
	// its own — the Retry-After hint scales with the backlog instead of
	// always quoting the sub-second single-token refill.
	rejected int

	// queued counts requests admitted but not yet answered, running or
	// waiting for a run slot. It is the /metrics queue-depth gauge and
	// the value bounded by Config.QueueDepth.
	queued atomic.Int64
}

// takeToken consumes one quota token, refilling the bucket first.
// rate <= 0 disables the quota. When the bucket is empty it reports
// how long until the caller's token accrues — the Retry-After hint.
// The hint accounts for every client already turned away since the
// last admission: a drained bucket under contention quotes the time
// for the whole backlog to clear, not just one token's refill.
func (t *tenant) takeToken(rate float64, burst int, now time.Time) (ok bool, retryAfter time.Duration) {
	if rate <= 0 {
		return true, 0
	}
	if burst < 1 {
		burst = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.last.IsZero() {
		t.tokens = float64(burst)
	} else {
		t.tokens += now.Sub(t.last).Seconds() * rate
		if t.tokens > float64(burst) {
			t.tokens = float64(burst)
		}
	}
	t.last = now
	if t.tokens >= 1 {
		t.tokens--
		t.rejected = 0
		return true, 0
	}
	deficit := (1 - t.tokens) + float64(t.rejected)
	t.rejected++
	return false, time.Duration(math.Ceil(deficit/rate*1000)) * time.Millisecond
}

// tryEnqueue reserves one slot under the per-tenant bound; the handler
// releases it once the request is answered. depth <= 0 disables the
// bound.
func (t *tenant) tryEnqueue(depth int) bool {
	if depth <= 0 {
		t.queued.Add(1)
		return true
	}
	for {
		q := t.queued.Load()
		if q >= int64(depth) {
			return false
		}
		if t.queued.CompareAndSwap(q, q+1) {
			return true
		}
	}
}

// release returns a slot taken by tryEnqueue.
func (t *tenant) release() { t.queued.Add(-1) }
