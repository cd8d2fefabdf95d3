package netsim

import (
	"sync/atomic"

	"seccloud/internal/wire"
)

// DownableHandler wraps a Handler with a kill switch. While down, Handle
// returns nil — transports treat that as the process dying mid-request
// (connection drop), so callers see a retryable transport fault, never an
// error reply. This models a crashed or partitioned server behind a
// stable address: the fleet schedules against it, requests to it fail at
// the transport layer, and flipping the switch back "reboots" it with its
// state intact.
//
// Unlike killing a real listener, the toggle is free of OS resources, so
// epoch simulations can down and revive servers every epoch without
// bind/port churn.
type DownableHandler struct {
	inner Handler
	down  atomic.Bool
}

// NewDownableHandler wraps h, initially up.
func NewDownableHandler(h Handler) *DownableHandler {
	return &DownableHandler{inner: h}
}

// Handle forwards to the wrapped handler, or drops the request (nil
// reply → transport-level disconnect) while down.
func (d *DownableHandler) Handle(m wire.Message) wire.Message {
	if d.down.Load() {
		return nil
	}
	return d.inner.Handle(m)
}

// SetDown flips the kill switch.
func (d *DownableHandler) SetDown(down bool) { d.down.Store(down) }

// Down reports whether the handler is currently dropping requests.
func (d *DownableHandler) Down() bool { return d.down.Load() }
