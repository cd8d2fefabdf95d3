package netsim

import (
	"context"
	"time"

	"seccloud/internal/transport"
	"seccloud/internal/wire"
)

// LatentClient decorates a Client with *real* (slept) round-trip latency,
// unlike Loopback's virtual latency which is only charged to the stats.
// It exists to exercise and benchmark pipelines that overlap network wait
// with CPU work — with virtual latency, concurrent rounds cost the same as
// sequential ones and a scheduling win is invisible. Safe for concurrent
// use when the wrapped client is; concurrent round trips sleep
// independently, so in-flight requests genuinely overlap.
type LatentClient struct {
	inner transport.Client
	rtt   time.Duration
}

var _ transport.Client = (*LatentClient)(nil)

// NewLatentClient wraps inner, sleeping rtt on every round trip (half
// before delivery, half after — the two legs of the trip).
func NewLatentClient(inner transport.Client, rtt time.Duration) *LatentClient {
	return &LatentClient{inner: inner, rtt: rtt}
}

// RoundTripContext delivers m after the request leg's delay and returns
// the reply after the response leg's. A deadline or cancellation during
// either leg's sleep aborts with a timeout-classified transport
// error, matching how a socket read deadline would surface.
func (c *LatentClient) RoundTripContext(ctx context.Context, m wire.Message) (wire.Message, error) {
	if err := c.sleep(ctx, c.rtt/2); err != nil {
		return nil, err
	}
	resp, err := c.inner.RoundTripContext(ctx, m)
	if err != nil {
		return nil, err
	}
	if err := c.sleep(ctx, c.rtt-c.rtt/2); err != nil {
		return nil, err
	}
	return resp, nil
}

func (c *LatentClient) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return &transport.TransportError{Op: "roundtrip", Timeout: true, Err: ctx.Err()}
	}
}

// Stats returns the wrapped client's counters.
func (c *LatentClient) Stats() transport.StatsSnapshot { return c.inner.Stats() }

// Close closes the wrapped client.
func (c *LatentClient) Close() error { return c.inner.Close() }
