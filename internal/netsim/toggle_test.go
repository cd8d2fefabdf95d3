package netsim

import (
	"context"
	"testing"

	"seccloud/internal/transport"
	"seccloud/internal/wire"
)

func TestDownableHandler(t *testing.T) {
	echo := transport.HandlerFunc(func(m wire.Message) wire.Message {
		return m
	})
	dh := NewDownableHandler(echo)
	client := NewLoopback(dh, LinkConfig{})

	if _, err := client.RoundTripContext(context.Background(), &wire.ErrorResponse{Msg: "ping"}); err != nil {
		t.Fatalf("round trip while up: %v", err)
	}

	dh.SetDown(true)
	if !dh.Down() {
		t.Fatal("Down() = false after SetDown(true)")
	}
	_, err := client.RoundTripContext(context.Background(), &wire.ErrorResponse{Msg: "ping"})
	if err == nil {
		t.Fatal("round trip while down succeeded")
	}
	// A downed server must look like a dead process — a retryable
	// transport fault — not a protocol error the caller could blame on
	// the peer's logic.
	if !transport.IsRetryable(err) {
		t.Fatalf("down error not retryable: %v", err)
	}

	dh.SetDown(false)
	if _, err := client.RoundTripContext(context.Background(), &wire.ErrorResponse{Msg: "ping"}); err != nil {
		t.Fatalf("round trip after revive: %v", err)
	}
}
