// Package transport is the contract SecCloud parties talk over and the
// policies every link runs, whether the link is a real socket
// (internal/daemon) or the in-process simulator (internal/netsim).
//
// The contract is Client (request/response round trips to one peer) and
// Handler (what serves them). The policies are the error taxonomy that
// separates a lost message from a wrong answer (IsRetryable, IsTimeout,
// OverloadedError), retries with backoff under a shared RetryBudget,
// the server-side Admission gate with its typed shed reply, hedged round
// trips, the rpc_* instruments (RPCObs) and the SwappableHandler slot a
// restart swaps a process behind.
package transport

import (
	"context"

	"seccloud/internal/wire"
)

// Handler processes a single request and produces a response. A Handler
// must be safe for concurrent use; a socket server invokes it from
// per-connection goroutines.
//
// A nil response means the handling process died mid-request (e.g. an
// injected crash point fired): transports treat it as a connection death
// — the caller sees a retryable transport error, never a reply — exactly
// what a SIGKILL between receiving a request and writing its response
// looks like from the outside.
type Handler interface {
	Handle(m wire.Message) wire.Message
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(m wire.Message) wire.Message

// Handle calls f(m).
func (f HandlerFunc) Handle(m wire.Message) wire.Message { return f(m) }

// Client performs request/response round trips against one peer.
type Client interface {
	// RoundTripContext sends m and waits for the peer's reply, with
	// cancellation and a per-request deadline taken from ctx (pass
	// context.Background() for none beyond the transport's own).
	// Failures are classified by the package's error taxonomy:
	// transport-class errors satisfy IsRetryable.
	RoundTripContext(ctx context.Context, m wire.Message) (wire.Message, error)
	// Stats returns a snapshot of the link's traffic counters.
	Stats() StatsSnapshot
	// Close releases the client's resources.
	Close() error
}

// StatsSnapshot is an immutable copy of a link's traffic counters.
type StatsSnapshot struct {
	// Calls is the number of round trips completed.
	Calls int64
	// BytesSent counts request bytes (client → server).
	BytesSent int64
	// BytesRecv counts response bytes (server → client).
	BytesRecv int64
}

// TotalBytes is the sum of both directions.
func (s StatsSnapshot) TotalBytes() int64 { return s.BytesSent + s.BytesRecv }
