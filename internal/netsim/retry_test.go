package netsim

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"seccloud/internal/wire"
)

// fakeClock records requested sleeps without ever actually sleeping, so
// retry tests run in microseconds.
type fakeClock struct {
	slept []time.Duration
}

func (f *fakeClock) sleep(ctx context.Context, d time.Duration) error {
	f.slept = append(f.slept, d)
	return ctx.Err()
}

func newTestRetrier(clock *fakeClock) *Retrier {
	r := NewRetrier(42)
	r.Sleep = clock.sleep
	return r
}

func TestRetrierRetriesTransportErrors(t *testing.T) {
	clock := &fakeClock{}
	r := newTestRetrier(clock)
	calls := 0
	err := r.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return &FaultError{Kind: FaultDrop, Op: "request"}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Fatalf("op ran %d times, want 3", calls)
	}
	if len(clock.slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(clock.slept))
	}
}

func TestRetrierBackoffGrowsAndCaps(t *testing.T) {
	clock := &fakeClock{}
	r := newTestRetrier(clock)
	r.MaxAttempts = 8
	r.Jitter = 0 // exact values
	err := r.Do(context.Background(), func(context.Context) error {
		return &FaultError{Kind: FaultDrop}
	})
	var ex *ExhaustedError
	if !errors.As(err, &ex) || ex.Attempts != 8 {
		t.Fatalf("want ExhaustedError after 8 attempts, got %v", err)
	}
	want := []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, 1600 * time.Millisecond,
		2 * time.Second, // capped at MaxDelay
	}
	if len(clock.slept) != len(want) {
		t.Fatalf("slept %d times, want %d", len(clock.slept), len(want))
	}
	for i, d := range want {
		if clock.slept[i] != d {
			t.Fatalf("backoff %d = %v, want %v", i, clock.slept[i], d)
		}
	}
}

func TestRetrierJitterStaysBounded(t *testing.T) {
	clock := &fakeClock{}
	r := newTestRetrier(clock)
	r.MaxAttempts = 20
	r.Jitter = 0.2
	_ = r.Do(context.Background(), func(context.Context) error {
		return &FaultError{Kind: FaultDrop}
	})
	if len(clock.slept) != 19 {
		t.Fatalf("slept %d times", len(clock.slept))
	}
	for i, d := range clock.slept {
		// Every jittered backoff stays within ±20% of the cap ceiling.
		if d <= 0 || d > time.Duration(float64(r.MaxDelay)*1.2) {
			t.Fatalf("backoff %d = %v escapes the jitter bounds", i, d)
		}
	}
}

func TestRetrierJitterDeterministic(t *testing.T) {
	run := func() []time.Duration {
		clock := &fakeClock{}
		r := newTestRetrier(clock)
		r.MaxAttempts = 6
		_ = r.Do(context.Background(), func(context.Context) error {
			return &FaultError{Kind: FaultDrop}
		})
		return clock.slept
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("runs differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different backoffs: %v vs %v", a, b)
		}
	}
}

func TestRetrierTerminalErrorNotRetried(t *testing.T) {
	clock := &fakeClock{}
	r := newTestRetrier(clock)
	terminal := fmt.Errorf("protocol: bad proof")
	calls := 0
	err := r.Do(context.Background(), func(context.Context) error {
		calls++
		return terminal
	})
	if !errors.Is(err, terminal) {
		t.Fatalf("got %v, want terminal error", err)
	}
	if calls != 1 || len(clock.slept) != 0 {
		t.Fatalf("terminal error was retried: calls=%d sleeps=%d", calls, len(clock.slept))
	}
}

func TestRetrierContextCancelStops(t *testing.T) {
	clock := &fakeClock{}
	r := newTestRetrier(clock)
	r.MaxAttempts = 100
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := r.Do(ctx, func(context.Context) error {
		calls++
		if calls == 2 {
			cancel()
		}
		return &FaultError{Kind: FaultDrop}
	})
	if err == nil {
		t.Fatal("cancelled retry loop returned nil")
	}
	if calls > 3 {
		t.Fatalf("op kept running after cancel: %d calls", calls)
	}
}

func TestErrorTaxonomy(t *testing.T) {
	cases := []struct {
		err       error
		retryable bool
		timeout   bool
	}{
		{&FaultError{Kind: FaultDrop, Op: "request"}, true, false},
		{&TransportError{Op: "read", Err: errors.New("conn reset")}, true, false},
		{&TransportError{Op: "roundtrip", Timeout: true, Err: context.DeadlineExceeded}, true, true},
		{fmt.Errorf("wrap: %w", &FaultError{Kind: FaultCorrupt}), true, false},
		{fmt.Errorf("decode: %w", wire.ErrCorrupt), true, false},
		{fmt.Errorf("read: %w", wire.ErrTruncated), true, false},
		{errors.New("protocol: server refused"), false, false},
		{&ExhaustedError{Attempts: 3, Err: &FaultError{Kind: FaultDrop}}, true, false},
		{&ExhaustedError{Attempts: 3, Err: &TransportError{Timeout: true, Err: context.DeadlineExceeded}}, true, true},
	}
	for i, tc := range cases {
		if got := IsRetryable(tc.err); got != tc.retryable {
			t.Errorf("case %d (%v): IsRetryable=%v, want %v", i, tc.err, got, tc.retryable)
		}
		if got := IsTimeout(tc.err); got != tc.timeout {
			t.Errorf("case %d (%v): IsTimeout=%v, want %v", i, tc.err, got, tc.timeout)
		}
	}
}

func TestRetryClientTransparentRecovery(t *testing.T) {
	inner := NewLoopback(echoHandler{}, LinkConfig{}).WithFaults(FaultConfig{
		Seed:     7,
		DropRate: 0.5,
	})
	clock := &fakeClock{}
	r := newTestRetrier(clock)
	r.MaxAttempts = 10
	client := NewRetryClient(inner, r)
	for i := 0; i < 50; i++ {
		if _, err := client.RoundTripContext(context.Background(), &wire.StoreResponse{OK: true}); err != nil {
			t.Fatalf("round trip %d failed through retry client: %v", i, err)
		}
	}
	if inner.Stats().Faults.Drops == 0 {
		t.Fatal("fault injector never fired; test is vacuous")
	}
}
