package daemon

import (
	"context"
	"errors"
	"sync"
	"time"

	"seccloud/internal/netsim"
	"seccloud/internal/obs"
	"seccloud/internal/wire"
)

// ClientConfig shapes the pooled daemon client.
type ClientConfig struct {
	// Timeout bounds each round trip when ctx carries no deadline; 0
	// means no per-call deadline.
	Timeout time.Duration
	// Faults injects deterministic client-side network faults through
	// the same seeded injector the simulator uses.
	Faults netsim.FaultConfig
	// Obs instruments the client under transport="daemon" with netsim's
	// rpc_* instrument set, so a fault is labelled as on any other link.
	Obs *obs.Hub
}

// Client is a netsim.Client over a connection pool: concurrent round
// trips ride separate pooled conns, which is what lets an audit's
// streamed challenge rounds genuinely overlap on a real link — a single
// TCP conn serializes on its request/response framing.
type Client struct {
	pool *Pool
	cfg  ClientConfig
	inj  *netsim.Injector
	met  *netsim.RPCObs

	mu     sync.Mutex
	closed bool
	calls  int64
	sent   int64
	recvd  int64
}

var _ netsim.Client = (*Client)(nil)

// NewClient wraps pool in a Client. The Client owns the pool: Close
// closes it.
func NewClient(pool *Pool, cfg ClientConfig) *Client {
	return &Client{
		pool: pool,
		cfg:  cfg,
		inj:  netsim.NewInjector(cfg.Faults),
		met:  netsim.NewRPCObs(cfg.Obs, "daemon"),
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
		return nil, &netsim.TransportError{Op: "roundtrip", Timeout: errors.Is(err, context.DeadlineExceeded), Err: err}
	}
	deadline, hasDeadline := ctx.Deadline()
	if !hasDeadline && c.cfg.Timeout > 0 {
		deadline, hasDeadline = time.Now().Add(c.cfg.Timeout), true
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}

	plan := c.inj.Plan(true)
	if plan.Drop {
		// A lost request: an injected network fault.
		return nil, &netsim.FaultError{Kind: netsim.FaultDrop, Op: "request"}
	}
	if plan.Delay > 0 {
		t := time.NewTimer(plan.Delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, &netsim.TransportError{Op: "roundtrip", Timeout: errors.Is(ctx.Err(), context.DeadlineExceeded), Err: ctx.Err()}
		case <-t.C:
		}
	}

	conn, err := c.pool.Get(ctx)
	if err != nil {
		return nil, err
	}
	if plan.Disconnect {
		// Mid-exchange teardown: the conn the request would have used
		// dies and leaves the pool, exactly like a peer RST.
		c.pool.Discard(conn)
		return nil, &netsim.FaultError{Kind: netsim.FaultDisconnect, Op: "request"}
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
	if plan.Corrupt {
		data = append([]byte(nil), data...)
		c.inj.Corrupt(data)
	}
	writes := 1
	if plan.Duplicate {
		writes = 2
	}
	var sent int
	for i := 0; i < writes; i++ {
		n, err := wire.WriteFrame(conn.nc, data)
		sent += n
		if err != nil {
			c.pool.Discard(conn)
			return nil, wrapTransport("write", err)
		}
	}

	resp, recvd, err := wire.ReadMessage(conn.nc)
	if err != nil {
		// Includes the corrupted-request case: the server fails to
		// decode and drops the conn.
		c.pool.Discard(conn)
		if plan.Corrupt {
			return nil, &netsim.FaultError{Kind: netsim.FaultCorrupt, Op: "request", Err: err}
		}
		return nil, wrapTransport("read", err)
	}
	if plan.Duplicate {
		// Drain the duplicate's response to keep the stream in sync.
		if _, _, err := wire.ReadMessage(conn.nc); err != nil {
			c.pool.Discard(conn)
			return nil, wrapTransport("read", err)
		}
	}
	c.pool.Put(conn)
	c.mu.Lock()
	c.calls++
	c.sent += int64(sent)
	c.recvd += int64(recvd)
	c.mu.Unlock()
	// A typed shed surfaces as a non-retryable *OverloadedError, never as
	// a normal reply.
	return netsim.CheckOverload("roundtrip", resp)
}

func wrapTransport(op string, err error) error {
	timeout := errors.Is(err, context.DeadlineExceeded)
	type timeouter interface{ Timeout() bool }
	var te timeouter
	if errors.As(err, &te) && te.Timeout() {
		timeout = true
	}
	return &netsim.TransportError{Op: op, Timeout: timeout, Err: err}
}

// Stats returns the link counters.
func (c *Client) Stats() netsim.StatsSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return netsim.StatsSnapshot{
		Calls:     c.calls,
		BytesSent: c.sent,
		BytesRecv: c.recvd,
		Faults:    c.inj.Snapshot(),
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
