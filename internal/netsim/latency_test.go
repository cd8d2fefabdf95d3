package netsim

import (
	"context"
	"errors"
	"testing"
	"time"

	"seccloud/internal/wire"
)

func TestLatentClientSleepsRTT(t *testing.T) {
	inner := NewLoopback(echoHandler{}, LinkConfig{})
	defer inner.Close()
	c := NewLatentClient(inner, 40*time.Millisecond)

	start := time.Now()
	resp, err := c.RoundTripContext(context.Background(), &wire.ChallengeRequest{JobID: "j"})
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := resp.(*wire.StoreResponse); !ok || !r.OK {
		t.Fatalf("echo came back as %T", resp)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("round trip took %v, want >= 40ms", elapsed)
	}
}

func TestLatentClientHonorsContext(t *testing.T) {
	inner := NewLoopback(echoHandler{}, LinkConfig{})
	defer inner.Close()
	c := NewLatentClient(inner, 10*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.RoundTripContext(ctx, &wire.ChallengeRequest{JobID: "j"})
	if err == nil {
		t.Fatal("expected timeout error")
	}
	var te *TransportError
	if !errors.As(err, &te) || !te.Timeout {
		t.Fatalf("want timeout-classified TransportError, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, sleep was not interrupted", elapsed)
	}
}

func TestLatentClientOverlaps(t *testing.T) {
	inner := NewLoopback(echoHandler{}, LinkConfig{})
	defer inner.Close()
	c := NewLatentClient(inner, 50*time.Millisecond)

	const n = 4
	start := time.Now()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := c.RoundTripContext(context.Background(), &wire.ChallengeRequest{JobID: "j"})
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Sequential would take n*50ms; concurrent trips sleep independently.
	if elapsed := time.Since(start); elapsed > time.Duration(n)*50*time.Millisecond {
		t.Fatalf("%d concurrent trips took %v, did not overlap", n, elapsed)
	}
}
