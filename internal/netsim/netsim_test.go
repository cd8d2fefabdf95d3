package netsim

import (
	"context"
	"sync"
	"testing"
	"time"

	"seccloud/internal/transport"
	"seccloud/internal/wire"
)

// echoHandler answers every message with a canned StoreResponse carrying
// the request kind, so tests can confirm delivery.
type echoHandler struct{}

func (echoHandler) Handle(m wire.Message) wire.Message {
	return &wire.StoreResponse{OK: true, Error: m.Kind()}
}

func TestLoopbackRoundTrip(t *testing.T) {
	l := NewLoopback(echoHandler{}, LinkConfig{})
	resp, err := l.RoundTripContext(context.Background(), &wire.ComputeRequest{UserID: "u", JobID: "j"})
	if err != nil {
		t.Fatalf("RoundTrip: %v", err)
	}
	sr, ok := resp.(*wire.StoreResponse)
	if !ok || sr.Error != "compute_req" {
		t.Fatalf("unexpected response %#v", resp)
	}
	st := l.Stats()
	if st.Calls != 1 || st.BytesSent == 0 || st.BytesRecv == 0 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestLoopbackLatencyAccounting(t *testing.T) {
	l := NewLoopback(echoHandler{}, LinkConfig{
		RTT:            5 * time.Millisecond,
		BytesPerSecond: 1000, // 1 KB/s: every byte costs 1ms
	})
	if _, err := l.RoundTripContext(context.Background(), &wire.StoreResponse{OK: true}); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	wantMin := 5*time.Millisecond + time.Duration(st.TotalBytes())*time.Millisecond
	if l.SimLatency() < wantMin {
		t.Fatalf("simulated latency %v, want at least %v", l.SimLatency(), wantMin)
	}
	l.Stats() // idempotent snapshot
}

func TestStatsReset(t *testing.T) {
	l := NewLoopback(echoHandler{}, LinkConfig{})
	if _, err := l.RoundTripContext(context.Background(), &wire.StoreResponse{OK: true}); err != nil {
		t.Fatal(err)
	}
	l.stats.Reset()
	if st := l.Stats(); st.Calls != 0 || st.TotalBytes() != 0 {
		t.Fatalf("reset did not zero stats: %+v", st)
	}
}

func TestHandlerFunc(t *testing.T) {
	h := transport.HandlerFunc(func(m wire.Message) wire.Message {
		return &wire.ErrorResponse{Code: "x", Msg: m.Kind()}
	})
	resp := h.Handle(&wire.StoreResponse{})
	if er, ok := resp.(*wire.ErrorResponse); !ok || er.Msg != "store_resp" {
		t.Fatalf("HandlerFunc broken: %#v", resp)
	}
}

func TestStatsConcurrentRecording(t *testing.T) {
	var s Stats
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.record(1, 2, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.Calls != 8000 || snap.BytesSent != 8000 || snap.BytesRecv != 16000 {
		t.Fatalf("lost updates: %+v", snap)
	}
}
