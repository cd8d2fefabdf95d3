package daemon

import (
	"context"
	"errors"
	"sync"
	"time"

	"seccloud/internal/obs"
	"seccloud/internal/transport"
	"seccloud/internal/wire"
)

// ClientConfig shapes the pooled daemon client.
type ClientConfig struct {
	// Timeout bounds each round trip when ctx carries no deadline; 0
	// means no per-call deadline.
	Timeout time.Duration
	// Obs instruments the client under transport="daemon" with the
	// rpc_* instrument set every link records through, so a fault is
	// labelled as on any other link.
	Obs *obs.Hub
}

// Client is a transport.Client over a connection pool: concurrent round
// trips ride separate pooled conns, which is what lets an audit's
// streamed challenge rounds genuinely overlap on a real link — a single
// TCP conn serializes on its request/response framing.
type Client struct {
	pool *Pool
	cfg  ClientConfig
	met  *transport.RPCObs

	mu     sync.Mutex
	closed bool
	calls  int64
	sent   int64
	recvd  int64
}

var _ transport.Client = (*Client)(nil)

// NewClient wraps pool in a Client. The Client owns the pool: Close
// closes it.
func NewClient(pool *Pool, cfg ClientConfig) *Client {
	return &Client{
		pool: pool,
		cfg:  cfg,
		met:  transport.NewRPCObs(cfg.Obs, "daemon"),
	}
}

// Pool exposes the client's pool (stats, warming).
func (c *Client) Pool() *Pool { return c.pool }

// RoundTripContext sends m on a pooled conn under ctx's deadline (or the
// configured Timeout). Transport failures evict the conn from the pool:
// the next trip gets a fresh or verified-healthy one.
func (c *Client) RoundTripContext(ctx context.Context, m wire.Message) (wire.Message, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("daemon: client closed")
	}
	c.mu.Unlock()
	start := time.Now()
	resp, err := c.roundTrip(ctx, m)
	c.met.Observe(time.Since(start), err)
	return resp, err
}

func (c *Client) roundTrip(ctx context.Context, m wire.Message) (wire.Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, transport.Wrap("roundtrip", err)
	}
	deadline, hasDeadline := ctx.Deadline()
	if !hasDeadline && c.cfg.Timeout > 0 {
		deadline, hasDeadline = time.Now().Add(c.cfg.Timeout), true
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}

	conn, err := c.pool.Get(ctx)
	if err != nil {
		return nil, err
	}
	if hasDeadline {
		_ = conn.nc.SetDeadline(deadline)
	} else {
		_ = conn.nc.SetDeadline(time.Time{})
	}

	data, err := wire.Encode(m)
	if err != nil {
		// Encode failures happen before any bytes flow; the conn is
		// untouched and goes back to the pool.
		c.pool.Put(conn)
		return nil, err
	}
	sent, err := wire.WriteFrame(conn.nc, data)
	if err != nil {
		c.pool.Discard(conn)
		return nil, transport.Wrap("write", err)
	}
	resp, recvd, err := wire.ReadMessage(conn.nc)
	if err != nil {
		c.pool.Discard(conn)
		return nil, transport.Wrap("read", err)
	}
	c.pool.Put(conn)
	c.mu.Lock()
	c.calls++
	c.sent += int64(sent)
	c.recvd += int64(recvd)
	c.mu.Unlock()
	// A typed shed surfaces as a non-retryable *OverloadedError, never as
	// a normal reply.
	return transport.CheckOverload("roundtrip", resp)
}

// Stats returns the link counters.
func (c *Client) Stats() transport.StatsSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return transport.StatsSnapshot{
		Calls:     c.calls,
		BytesSent: c.sent,
		BytesRecv: c.recvd,
	}
}

// Close closes the client and its pool.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.pool.Close()
}
