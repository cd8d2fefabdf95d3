package netsim

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"seccloud/internal/transport"
	"seccloud/internal/wire"
)

// countingHandler records how many requests actually executed.
type countingHandler struct {
	served atomic.Int64
}

func (h *countingHandler) Handle(m wire.Message) wire.Message {
	h.served.Add(1)
	return &wire.ErrorResponse{Code: "ok"}
}

func ping() wire.Message { return &wire.ErrorResponse{Code: "ping"} }

func TestPartitionDirectional(t *testing.T) {
	h := &countingHandler{}
	part := NewPartition()
	c := PartitionClient(NewLoopback(h, LinkConfig{}), part, "da", "s0")

	if _, err := c.RoundTripContext(context.Background(), ping()); err != nil {
		t.Fatalf("healed partition blocked traffic: %v", err)
	}

	// Request leg blocked: the server must never see the call.
	part.CutOneWay([]string{"da"}, []string{"s0"})
	before := h.served.Load()
	_, err := c.RoundTripContext(context.Background(), ping())
	var fe *transport.FaultError
	if !errors.As(err, &fe) || fe.Kind != transport.FaultPartition {
		t.Fatalf("blocked request leg returned %v, want FaultPartition", err)
	}
	if !transport.IsRetryable(err) {
		t.Fatal("partition fault must be retryable (it is not an accusation)")
	}
	if h.served.Load() != before {
		t.Fatal("server executed a request the partition should have eaten")
	}

	// Asymmetry: the reverse direction still flows.
	part.Heal()
	part.CutOneWay([]string{"s0"}, []string{"da"})
	before = h.served.Load()
	_, err = c.RoundTripContext(context.Background(), ping())
	if !errors.As(err, &fe) || fe.Kind != transport.FaultPartition || fe.Op != "response" {
		t.Fatalf("blocked response leg returned %v, want transport.FaultPartition on response", err)
	}
	if h.served.Load() != before+1 {
		t.Fatal("blocked response leg must still execute the request server-side")
	}

	part.Heal()
	if _, err := c.RoundTripContext(context.Background(), ping()); err != nil {
		t.Fatalf("healed partition still blocking: %v", err)
	}
	if part.Drops() != 2 {
		t.Fatalf("partition counted %d drops, want 2", part.Drops())
	}
}

func TestPartitionGroupCut(t *testing.T) {
	part := NewPartition()
	part.Cut([]string{"da", "csp"}, []string{"s1", "s2"})
	for _, pair := range [][2]string{{"da", "s1"}, {"da", "s2"}, {"csp", "s1"}, {"s2", "da"}, {"s1", "csp"}} {
		if !part.Blocked(pair[0], pair[1]) {
			t.Fatalf("%s → %s should be blocked", pair[0], pair[1])
		}
	}
	for _, pair := range [][2]string{{"da", "csp"}, {"s1", "s2"}} {
		if part.Blocked(pair[0], pair[1]) {
			t.Fatalf("%s → %s blocked but is on the same side", pair[0], pair[1])
		}
	}
}

func TestLoopbackSetFaultsAtRuntime(t *testing.T) {
	h := &countingHandler{}
	l := NewLoopback(h, LinkConfig{})
	if _, err := l.RoundTripContext(context.Background(), ping()); err != nil {
		t.Fatalf("fault-free: %v", err)
	}
	l.SetFaults(FaultConfig{Seed: 7, DropRate: 1})
	if _, err := l.RoundTripContext(context.Background(), ping()); err == nil {
		t.Fatal("DropRate=1 delivered a message")
	}
	dropped := l.FaultCounts().Drops
	if dropped == 0 {
		t.Fatal("drop not counted")
	}
	// Healing must keep the historical counters.
	l.SetFaults(FaultConfig{})
	if _, err := l.RoundTripContext(context.Background(), ping()); err != nil {
		t.Fatalf("healed link failed: %v", err)
	}
	if got := l.FaultCounts().Drops; got != dropped {
		t.Fatalf("fault counters reset on heal: %d, want %d", got, dropped)
	}
}

func TestLoopbackClockSkewFeedsDeadline(t *testing.T) {
	h := &countingHandler{}
	clk := NewClock()
	l := NewLoopback(h, LinkConfig{RTT: 50 * time.Millisecond}).WithClock(clk)

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := l.RoundTripContext(ctx, ping()); err != nil {
		t.Fatalf("unskewed call failed: %v", err)
	}

	// A fast-by-2s clock believes the 1s budget is already spent: the
	// modeled 50ms reply "arrives too late".
	clk.SetSkew(2 * time.Second)
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	_, err := l.RoundTripContext(ctx2, ping())
	if err == nil {
		t.Fatal("skewed clock did not expire the deadline")
	}
	if !transport.IsTimeout(err) {
		t.Fatalf("skew surfaced as %v, want a timeout", err)
	}

	clk.SetSkew(0)
	ctx3, cancel3 := context.WithTimeout(context.Background(), time.Second)
	defer cancel3()
	if _, err := l.RoundTripContext(ctx3, ping()); err != nil {
		t.Fatalf("restored clock still failing: %v", err)
	}
}
