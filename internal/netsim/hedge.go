package netsim

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"seccloud/internal/wire"
)

// LatencyTracker keeps a ring of recent round-trip latencies so hedging
// can derive its launch delay from the observed tail (classically the
// p95: hedge only the slowest ~5% of requests, bounding the duplicate
// traffic a hedge adds). Safe for concurrent use; the zero value is not
// useful, use NewLatencyTracker.
type LatencyTracker struct {
	mu     sync.Mutex
	ring   []time.Duration
	next   int
	filled int
}

// NewLatencyTracker tracks the most recent window observations (minimum
// 8).
func NewLatencyTracker(window int) *LatencyTracker {
	if window < 8 {
		window = 8
	}
	return &LatencyTracker{ring: make([]time.Duration, window)}
}

// Observe records one completed round trip.
func (t *LatencyTracker) Observe(d time.Duration) {
	t.mu.Lock()
	t.ring[t.next] = d
	t.next = (t.next + 1) % len(t.ring)
	if t.filled < len(t.ring) {
		t.filled++
	}
	t.mu.Unlock()
}

// Quantile returns the q-quantile (0 < q ≤ 1) of the window, or 0 when
// nothing has been observed yet.
func (t *LatencyTracker) Quantile(q float64) time.Duration {
	t.mu.Lock()
	n := t.filled
	buf := make([]time.Duration, n)
	copy(buf, t.ring[:n])
	t.mu.Unlock()
	if n == 0 {
		return 0
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	idx := int(q*float64(n)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return buf[idx]
}

// P95 is Quantile(0.95).
func (t *LatencyTracker) P95() time.Duration { return t.Quantile(0.95) }

// HedgeStats counts hedging activity.
type HedgeStats struct {
	// Launched counts secondary requests actually sent.
	Launched int64
	// Wins counts hedges whose secondary answered first.
	Wins int64
}

// hedgeResult carries one leg's outcome.
type hedgeResult struct {
	resp   wire.Message
	err    error
	hedged bool // true for the secondary leg
}

// HedgedRoundTrip sends m to primary and, if no reply has arrived after
// delay, duplicates it to secondary; the first success wins and the
// losing leg's context is cancelled. Requests must be idempotent — in
// SecCloud they are: audits are reads and compute submissions are
// deduplicated server-side by idempotency digest, so a duplicate yields
// a byte-identical reply.
//
// The second return value reports whether the winning reply (or, when
// both legs fail, the returned error) came from the secondary. A primary
// failure before the hedge launches returns immediately — fast failure
// is the failover path's job, hedging only attacks slow responses. When
// both legs fail the primary's error is preferred, so callers classify
// the canonical replica's fate. stats may be nil.
func HedgedRoundTrip(ctx context.Context, primary, secondary Client, delay time.Duration,
	m wire.Message, stats *HedgeStats) (wire.Message, bool, error) {
	if secondary == nil {
		resp, err := primary.RoundTripContext(ctx, m)
		return resp, false, err
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan hedgeResult, 2)
	go func() {
		resp, err := primary.RoundTripContext(hctx, m)
		ch <- hedgeResult{resp: resp, err: err}
	}()
	timer := time.NewTimer(delay)
	defer timer.Stop()

	launched := false
	var primaryErr error
	pending := 1
	for {
		select {
		case r := <-ch:
			pending--
			if r.err == nil {
				if r.hedged && stats != nil {
					atomic.AddInt64(&stats.Wins, 1)
				}
				return r.resp, r.hedged, nil
			}
			if !r.hedged {
				primaryErr = r.err
				if !launched {
					// Fast primary failure before the hedge fired: let the
					// retry/failover machinery handle it.
					return nil, false, r.err
				}
			}
			if pending > 0 {
				continue // the other leg may still succeed
			}
			if primaryErr != nil {
				return nil, false, primaryErr
			}
			return nil, true, r.err
		case <-timer.C:
			if !launched {
				launched = true
				pending++
				if stats != nil {
					atomic.AddInt64(&stats.Launched, 1)
				}
				go func() {
					resp, err := secondary.RoundTripContext(hctx, m)
					ch <- hedgeResult{resp: resp, err: err, hedged: true}
				}()
			}
		}
	}
}
