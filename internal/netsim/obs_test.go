package netsim

import (
	"context"
	"testing"
	"time"

	"seccloud/internal/obs"
	"seccloud/internal/transport"
	"seccloud/internal/wire"
)

// TestLoopbackObs checks the transport instruments: every round trip
// counts, modeled latency lands in the histogram, and injected faults
// are classified by kind.
func TestLoopbackObs(t *testing.T) {
	hub := obs.NewHub()
	echo := transport.HandlerFunc(func(m wire.Message) wire.Message { return m })
	lb := NewLoopback(echo, LinkConfig{RTT: 20 * time.Millisecond}).WithObs(hub)

	msg := &wire.ChallengeRequest{JobID: "j", Indices: []uint64{1}}
	for i := 0; i < 3; i++ {
		if _, err := lb.RoundTripContext(context.Background(), msg); err != nil {
			t.Fatal(err)
		}
	}

	s := hub.Registry().Snapshot()
	if v, _ := s.Value("rpc_requests_total", map[string]string{"transport": "loopback"}); v != 3 {
		t.Fatalf("rpc_requests_total = %v, want 3", v)
	}
	var hist obs.HistogramPoint
	for _, hp := range s.Histograms {
		if hp.Name == "rpc_latency_seconds" {
			hist = hp
		}
	}
	if hist.Count != 3 {
		t.Fatalf("latency observations = %d, want 3", hist.Count)
	}
	// 20ms modeled RTT must not land in the lowest (sub-millisecond)
	// bucket.
	if hist.Buckets[0].Count != 0 {
		t.Fatalf("20ms RTT counted into %s bucket", hist.Buckets[0].LE)
	}

	// Fault classification: a drop-everything link counts drops.
	lossy := NewLoopback(echo, LinkConfig{}).
		WithFaults(FaultConfig{DropRate: 1, Seed: 7}).
		WithObs(hub)
	if _, err := lossy.RoundTripContext(context.Background(), msg); err == nil {
		t.Fatal("expected injected drop")
	}
	s = hub.Registry().Snapshot()
	if v := s.Total("rpc_faults_total", map[string]string{"fault": "drop"}); v != 1 {
		t.Fatalf("rpc_faults_total{fault=drop} = %v, want 1", v)
	}
}

func TestRetryHookCounts(t *testing.T) {
	hub := obs.NewHub()
	echo := transport.HandlerFunc(func(m wire.Message) wire.Message { return m })
	flaky := NewLoopback(echo, LinkConfig{}).WithFaults(FaultConfig{DropRate: 1, Seed: 3})

	r := &transport.Retrier{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond,
		Sleep:   func(context.Context, time.Duration) error { return nil },
		OnRetry: transport.RetryHook(hub)}
	_, err := transport.NewRetryClient(flaky, r).RoundTripContext(context.Background(), &wire.ChallengeRequest{JobID: "j"})
	if err == nil {
		t.Fatal("expected exhaustion on an always-drop link")
	}
	if v := hub.Registry().Snapshot().Total("rpc_retries_total", nil); v < 1 {
		t.Fatalf("rpc_retries_total = %v, want >= 1", v)
	}

	if transport.RetryHook(nil) != nil {
		t.Fatal("RetryHook(nil) must be nil so transport.Retrier skips it")
	}
}
