package netsim

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"seccloud/internal/transport"
	"seccloud/internal/wire"
)

func TestAdmissionShedsBeyondQueue(t *testing.T) {
	a := transport.NewAdmission(transport.AdmissionConfig{MaxInflight: 1, MaxQueue: 0, RetryAfter: 250 * time.Millisecond})
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	err := a.Acquire(context.Background())
	if !transport.IsOverloaded(err) {
		t.Fatalf("second Acquire = %v, want overloaded", err)
	}
	if transport.IsRetryable(err) || transport.IsTimeout(err) {
		t.Fatalf("overload classified retryable=%v timeout=%v, want neither", transport.IsRetryable(err), transport.IsTimeout(err))
	}
	var oe *transport.OverloadedError
	if !errors.As(err, &oe) || oe.RetryAfter != 250*time.Millisecond {
		t.Fatalf("retry-after hint lost: %v", err)
	}
	a.Release()
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatalf("Acquire after Release: %v", err)
	}
	s := a.Snapshot()
	if s.Shed != 1 || s.Admitted != 2 {
		t.Fatalf("stats = %+v, want 1 shed / 2 admitted", s)
	}
}

// TestAdmissionBoundedDrainsLIFO pins adaptive LIFO: under overload the
// newest waiter — whose client is least likely to have given up — gets
// the freed slot first.
func TestAdmissionBoundedDrainsLIFO(t *testing.T) {
	a := transport.NewAdmission(transport.AdmissionConfig{MaxInflight: 1, MaxQueue: 4})
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.Acquire(context.Background()); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			a.Release()
		}()
		// Deterministic queue order: wait until waiter i is enqueued.
		for {
			if _, q := a.Depth(); q == i+1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	a.Release()
	wg.Wait()
	if len(order) != 3 || order[0] != 2 {
		t.Fatalf("drain order = %v, want newest (2) first", order)
	}
}

// TestAdmissionUnboundedDrainsFIFO pins the unprotected baseline: an
// unbounded queue never sheds and serves oldest-first.
func TestAdmissionUnboundedDrainsFIFO(t *testing.T) {
	a := transport.NewAdmission(transport.AdmissionConfig{MaxInflight: 1, MaxQueue: -1})
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.Acquire(context.Background()); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			a.Release()
		}()
		for {
			if _, q := a.Depth(); q == i+1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	a.Release()
	wg.Wait()
	if len(order) != 3 || order[0] != 0 || order[2] != 2 {
		t.Fatalf("drain order = %v, want FIFO", order)
	}
	if s := a.Snapshot(); s.Shed != 0 {
		t.Fatalf("unbounded queue shed %d requests", s.Shed)
	}
}

func TestAdmissionAcquireHonorsContext(t *testing.T) {
	a := transport.NewAdmission(transport.AdmissionConfig{MaxInflight: 1, MaxQueue: 2})
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := a.Acquire(ctx)
	if !transport.IsTimeout(err) {
		t.Fatalf("queued Acquire under expired ctx = %v, want timeout", err)
	}
	if _, q := a.Depth(); q != 0 {
		t.Fatalf("cancelled waiter leaked: queue depth %d", q)
	}
	// The slot must still be releasable and reusable.
	a.Release()
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatalf("Acquire after cancel: %v", err)
	}
}

// TestLoopbackAdmissionSheds drives the full wire path: a busy gate turns
// into an encoded OverloadResponse frame which the client surfaces as a
// typed, non-retryable error — and the Retrier does not burn attempts on
// it.
func TestLoopbackAdmissionSheds(t *testing.T) {
	gate := transport.NewAdmission(transport.AdmissionConfig{MaxInflight: 1, MaxQueue: 0, RetryAfter: 100 * time.Millisecond})
	if err := gate.Acquire(context.Background()); err != nil { // occupy the only slot
		t.Fatalf("Acquire: %v", err)
	}
	l := NewLoopback(echoHandler{}, LinkConfig{}).WithAdmission(gate)

	_, err := l.RoundTripContext(context.Background(), &wire.StoreRequest{UserID: "alice"})
	if !transport.IsOverloaded(err) {
		t.Fatalf("RoundTrip under full gate = %v, want overloaded", err)
	}
	var oe *transport.OverloadedError
	if !errors.As(err, &oe) || oe.RetryAfter != 100*time.Millisecond {
		t.Fatalf("retry-after hint did not survive the wire: %v", err)
	}

	clock := &fakeClock{}
	r := newTestRetrier(clock)
	calls := 0
	rerr := r.Do(context.Background(), func(ctx context.Context) error {
		calls++
		_, err := l.RoundTripContext(ctx, &wire.StoreRequest{UserID: "alice"})
		return err
	})
	if !transport.IsOverloaded(rerr) {
		t.Fatalf("retried overload = %v, want overloaded passthrough", rerr)
	}
	if calls != 1 || len(clock.slept) != 0 {
		t.Fatalf("retrier ran %d attempts (%d sleeps) on a shed, want 1 and 0", calls, len(clock.slept))
	}

	gate.Release()
	if _, err := l.RoundTripContext(context.Background(), &wire.StoreRequest{UserID: "alice"}); err != nil {
		t.Fatalf("RoundTrip after release: %v", err)
	}
}

// TestSubMillisecondRetryAfterSurvivesWire is the regression for the
// encode-side truncation bug: a sub-millisecond RetryAfter hint used to
// truncate to RetryAfterMillis=0 — "no hint" — stripping the backoff
// signal exactly when the server most wanted the client to pause. The
// encoder now rounds up to 1ms.
func TestSubMillisecondRetryAfterSurvivesWire(t *testing.T) {
	cases := []struct {
		hint time.Duration
		want time.Duration
	}{
		{500 * time.Microsecond, time.Millisecond}, // rounds up, not to zero
		{time.Millisecond, time.Millisecond},       // exact stays exact
		{1500 * time.Microsecond, 2 * time.Millisecond},
		{0, 0}, // genuinely no hint stays no hint
	}
	for _, tc := range cases {
		gate := transport.NewAdmission(transport.AdmissionConfig{MaxInflight: 1, MaxQueue: 0, RetryAfter: tc.hint})
		if err := gate.Acquire(context.Background()); err != nil {
			t.Fatalf("Acquire: %v", err)
		}
		l := NewLoopback(echoHandler{}, LinkConfig{}).WithAdmission(gate)
		_, err := l.RoundTripContext(context.Background(), &wire.StoreRequest{UserID: "alice"})
		var oe *transport.OverloadedError
		if !errors.As(err, &oe) {
			t.Fatalf("hint %v: got %v, want OverloadedError", tc.hint, err)
		}
		if oe.RetryAfter != tc.want {
			t.Fatalf("hint %v came back as %v after the wire, want %v", tc.hint, oe.RetryAfter, tc.want)
		}
	}
}

func TestRetryAfterToMillis(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int64
	}{
		{0, 0},
		{-time.Millisecond, 0},
		{time.Microsecond, 1},
		{999 * time.Microsecond, 1},
		{time.Millisecond, 1},
		{1001 * time.Microsecond, 2},
		{250 * time.Millisecond, 250},
	}
	for _, tc := range cases {
		if got := transport.RetryAfterMillis(tc.d); got != tc.want {
			t.Fatalf("RetryAfterMillis(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

func TestRetryBudgetStopsAmplification(t *testing.T) {
	clock := &fakeClock{}
	r := newTestRetrier(clock)
	r.MaxAttempts = 10
	r.Budget = transport.NewRetryBudget(2, 0)
	calls := 0
	err := r.Do(context.Background(), func(context.Context) error {
		calls++
		return &transport.FaultError{Kind: transport.FaultDrop}
	})
	var ex *transport.ExhaustedError
	if !errors.As(err, &ex) || !ex.BudgetDenied {
		t.Fatalf("err = %v, want budget-denied exhaustion", err)
	}
	// First attempt is free; the 2-token budget allows exactly 2 retries.
	if calls != 3 {
		t.Fatalf("op ran %d times, want 3 (budget of 2 retries)", calls)
	}
	if got := r.Budget.Denied(); got != 1 {
		t.Fatalf("Denied() = %d, want 1", got)
	}
	// Still retryable-classified underneath: callers can tell what failed.
	if !transport.IsRetryable(err) {
		t.Fatal("budget exhaustion lost the underlying taxonomy")
	}
}

func TestRetryBudgetRefundsOnSuccess(t *testing.T) {
	b := transport.NewRetryBudget(1, 1) // full refund per success
	clock := &fakeClock{}
	r := newTestRetrier(clock)
	r.MaxAttempts = 2
	r.Budget = b
	fail := true
	op := func(context.Context) error {
		if fail {
			fail = false
			return &transport.FaultError{Kind: transport.FaultDrop}
		}
		return nil
	}
	for i := 0; i < 5; i++ {
		fail = true
		if err := r.Do(context.Background(), op); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if got := b.Denied(); got != 0 {
		t.Fatalf("refunded budget denied %d retries", got)
	}
	if got := b.Spent(); got != 5 {
		t.Fatalf("Spent() = %d, want 5", got)
	}
}

// slowClient delays the wrapped client's replies until released, letting
// hedge tests make "slow primary" deterministic.
type slowClient struct {
	inner   transport.Client
	release chan struct{}
}

func (s *slowClient) RoundTripContext(ctx context.Context, m wire.Message) (wire.Message, error) {
	select {
	case <-s.release:
	case <-ctx.Done():
		return nil, transport.Wrap("roundtrip", ctx.Err())
	}
	return s.inner.RoundTripContext(ctx, m)
}

func (s *slowClient) Stats() transport.StatsSnapshot { return s.inner.Stats() }
func (s *slowClient) Close() error                   { return s.inner.Close() }

func TestHedgedRoundTripSecondaryWins(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	primary := &slowClient{inner: NewLoopback(echoHandler{}, LinkConfig{}), release: release}
	secondary := NewLoopback(echoHandler{}, LinkConfig{})
	var stats transport.HedgeStats
	resp, hedged, err := transport.HedgedRoundTrip(context.Background(), primary, secondary,
		time.Millisecond, &wire.StoreRequest{UserID: "a"}, &stats)
	if err != nil {
		t.Fatalf("HedgedRoundTrip: %v", err)
	}
	if !hedged {
		t.Fatal("fast secondary did not win against a stuck primary")
	}
	if _, ok := resp.(*wire.StoreResponse); !ok {
		t.Fatalf("unexpected response %T", resp)
	}
	if stats.Launched != 1 || stats.Wins != 1 {
		t.Fatalf("stats = %+v, want 1 launched / 1 win", stats)
	}
}

func TestHedgedRoundTripPrimaryFastPath(t *testing.T) {
	primary := NewLoopback(echoHandler{}, LinkConfig{})
	secondary := NewLoopback(echoHandler{}, LinkConfig{})
	var stats transport.HedgeStats
	_, hedged, err := transport.HedgedRoundTrip(context.Background(), primary, secondary,
		time.Hour, &wire.StoreRequest{UserID: "a"}, &stats)
	if err != nil {
		t.Fatalf("HedgedRoundTrip: %v", err)
	}
	if hedged || stats.Launched != 0 {
		t.Fatalf("hedge launched (%+v) despite a fast primary", stats)
	}
	if sec := secondary.Stats(); sec.Calls != 0 {
		t.Fatalf("secondary saw %d calls, want 0", sec.Calls)
	}
}

// TestHedgedDuplicatesAreIdempotent pins the dedup contract hedging
// leans on: firing the same request at two replicas of the same state
// yields byte-identical replies, so which leg wins cannot change the
// audit outcome.
func TestHedgedDuplicatesAreIdempotent(t *testing.T) {
	h := echoHandler{}
	req := &wire.StoreRequest{UserID: "alice", Positions: []uint64{1, 2}}
	a, err := wire.Encode(h.Handle(req))
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	b, err := wire.Encode(h.Handle(req))
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("duplicate requests produced different reply bytes")
	}
}

func TestLatencyTrackerQuantile(t *testing.T) {
	tr := transport.NewLatencyTracker(100)
	if got := tr.P95(); got != 0 {
		t.Fatalf("empty tracker p95 = %v", got)
	}
	for i := 1; i <= 100; i++ {
		tr.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := tr.P95(); got != 95*time.Millisecond {
		t.Fatalf("p95 = %v, want 95ms", got)
	}
	if got := tr.Quantile(0.5); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v, want 50ms", got)
	}
}
