package daemon

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"syscall"
	"time"

	"seccloud/internal/transport"
	"seccloud/internal/wire"
)

// PoolConfig shapes one remote's connection pool.
type PoolConfig struct {
	// Addr is the remote daemon's socket address.
	Addr string
	// MaxIdle bounds parked conns kept for reuse; 0 means DefaultMaxIdle.
	MaxIdle int
	// MaxActive caps conns checked out at once; Get blocks (ctx-aware)
	// when the cap is reached — the client side of backpressure. 0 means
	// unlimited.
	MaxActive int
	// IdleTimeout retires a parked conn that has not been used this long;
	// 0 means DefaultIdleTimeout.
	IdleTimeout time.Duration
	// DialTimeout bounds connection establishment (TCP + TLS + protocol
	// handshake); 0 means DefaultDialTimeout.
	DialTimeout time.Duration
	// TLS, when set, dials TLS (use LoadClientTLS).
	TLS *tls.Config
}

// Pool defaults.
const (
	DefaultMaxIdle     = 4
	DefaultIdleTimeout = 90 * time.Second
	DefaultDialTimeout = 10 * time.Second
)

func (c PoolConfig) maxIdle() int {
	if c.MaxIdle <= 0 {
		return DefaultMaxIdle
	}
	return c.MaxIdle
}

func (c PoolConfig) idleTimeout() time.Duration {
	if c.IdleTimeout <= 0 {
		return DefaultIdleTimeout
	}
	return c.IdleTimeout
}

func (c PoolConfig) dialTimeout() time.Duration {
	if c.DialTimeout <= 0 {
		return DefaultDialTimeout
	}
	return c.DialTimeout
}

// PoolConn is one pooled connection with its negotiated protocol version.
type PoolConn struct {
	nc        net.Conn
	version   uint16
	idleSince time.Time
}

// Version is the protocol version negotiated on this conn.
func (c *PoolConn) Version() uint16 { return c.version }

// PoolStats is a snapshot of pool activity.
type PoolStats struct {
	// Dials counts fresh connections established.
	Dials int64
	// Reuses counts Gets served from the idle set.
	Reuses int64
	// Evictions counts conns discarded (health-check failure, idle
	// expiry, transport error, or idle-set overflow).
	Evictions int64
	// Waits counts Gets that blocked on the MaxActive cap.
	Waits int64
	// Idle is the current parked-conn count.
	Idle int
}

// Pool is a bounded, health-checked connection pool for one remote. Idle
// conns are reused LIFO (the most recently parked conn is the most likely
// to still be alive); every reuse is preceded by a liveness probe so a
// conn the server closed while parked is evicted instead of handed out.
type Pool struct {
	cfg PoolConfig
	sem chan struct{} // MaxActive slots; nil = unlimited

	mu     sync.Mutex
	idle   []*PoolConn // LIFO: append/pop at the tail
	closed bool
	stats  PoolStats
}

// ErrPoolClosed is returned by Get after Close.
var ErrPoolClosed = errors.New("daemon: pool closed")

// NewPool builds a pool; no conns are dialed until Get (or Warm).
func NewPool(cfg PoolConfig) *Pool {
	p := &Pool{cfg: cfg}
	if cfg.MaxActive > 0 {
		p.sem = make(chan struct{}, cfg.MaxActive)
	}
	return p
}

// Get checks out a connection: a healthy idle conn if one exists, a
// fresh dial otherwise. With MaxActive set, Get blocks until a slot
// frees or ctx expires. Every Get must be paired with exactly one Put or
// Discard.
func (p *Pool) Get(ctx context.Context) (*PoolConn, error) {
	if p.sem != nil {
		select {
		case p.sem <- struct{}{}:
		default:
			p.mu.Lock()
			p.stats.Waits++
			p.mu.Unlock()
			select {
			case p.sem <- struct{}{}:
			case <-ctx.Done():
				return nil, &transport.TransportError{Op: "pool", Timeout: true, Err: ctx.Err()}
			}
		}
	}
	conn, err := p.get(ctx)
	if err != nil && p.sem != nil {
		<-p.sem
	}
	return conn, err
}

func (p *Pool) get(ctx context.Context) (*PoolConn, error) {
	now := time.Now()
	idleTimeout := p.cfg.idleTimeout()
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, ErrPoolClosed
		}
		if n := len(p.idle); n > 0 {
			conn := p.idle[n-1]
			p.idle = p.idle[:n-1]
			if now.Sub(conn.idleSince) > idleTimeout || !connAlive(conn.nc) {
				p.stats.Evictions++
				p.mu.Unlock()
				_ = conn.nc.Close()
				continue
			}
			p.stats.Reuses++
			p.mu.Unlock()
			return conn, nil
		}
		p.mu.Unlock()
		return p.dial(ctx)
	}
}

func (p *Pool) dial(ctx context.Context) (*PoolConn, error) {
	dctx, cancel := context.WithTimeout(ctx, p.cfg.dialTimeout())
	defer cancel()
	var d net.Dialer
	nc, err := d.DialContext(dctx, "tcp", p.cfg.Addr)
	if err != nil {
		return nil, &transport.TransportError{Op: "dial", Timeout: errors.Is(err, context.DeadlineExceeded), Err: err}
	}
	if p.cfg.TLS != nil {
		tc := tls.Client(nc, p.cfg.TLS)
		if err := tc.HandshakeContext(dctx); err != nil {
			_ = nc.Close()
			return nil, &transport.TransportError{Op: "tls", Err: err}
		}
		nc = tc
	}
	if deadline, ok := dctx.Deadline(); ok {
		_ = nc.SetDeadline(deadline)
	}
	version, err := wire.Handshake(nc, wire.MinProto, wire.MaxProto)
	if err != nil {
		_ = nc.Close()
		return nil, fmt.Errorf("daemon: handshake with %s: %w", p.cfg.Addr, err)
	}
	_ = nc.SetDeadline(time.Time{})
	p.mu.Lock()
	p.stats.Dials++
	p.mu.Unlock()
	return &PoolConn{nc: nc, version: version}, nil
}

// Put parks a healthy conn for reuse (closing it instead if the idle set
// is full or the pool is closed) and releases its MaxActive slot.
func (p *Pool) Put(conn *PoolConn) {
	if p.sem != nil {
		<-p.sem
	}
	conn.idleSince = time.Now()
	p.mu.Lock()
	if p.closed || len(p.idle) >= p.cfg.maxIdle() {
		p.stats.Evictions++
		p.mu.Unlock()
		_ = conn.nc.Close()
		return
	}
	p.idle = append(p.idle, conn)
	p.mu.Unlock()
}

// Discard closes a conn that suffered a transport error (it must never
// be reused — the request/response stream is desynced) and releases its
// MaxActive slot.
func (p *Pool) Discard(conn *PoolConn) {
	if p.sem != nil {
		<-p.sem
	}
	p.mu.Lock()
	p.stats.Evictions++
	p.mu.Unlock()
	_ = conn.nc.Close()
}

// Warm pre-dials n conns and parks them, so a burst (or a drain test)
// starts with live grandfathered conns instead of racing fresh dials.
func (p *Pool) Warm(ctx context.Context, n int) error {
	conns := make([]*PoolConn, 0, n)
	for i := 0; i < n; i++ {
		conn, err := p.Get(ctx)
		if err != nil {
			for _, c := range conns {
				p.Put(c)
			}
			return err
		}
		conns = append(conns, conn)
	}
	for _, c := range conns {
		p.Put(c)
	}
	return nil
}

// Stats snapshots pool activity.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Idle = len(p.idle)
	return s
}

// Close retires every idle conn and fails future Gets. Checked-out conns
// are unaffected until returned.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, c := range idle {
		_ = c.nc.Close()
	}
	return nil
}

// connAlive probes a parked conn without consuming protocol bytes: a
// non-blocking MSG_PEEK on the raw socket. No pending data means the
// conn is parked and healthy; EOF or an error means the server closed it
// while idle; pending data on an idle request/response conn means the
// stream is desynced. TLS conns are probed on their underlying TCP conn
// (a close_notify shows up as pending raw bytes → evicted, which is the
// right call). Conns that expose no raw socket are assumed alive and
// left to the idle timeout.
func connAlive(nc net.Conn) bool {
	raw := nc
	if tc, ok := nc.(*tls.Conn); ok {
		raw = tc.NetConn()
	}
	sc, ok := raw.(syscall.Conn)
	if !ok {
		return true
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return true
	}
	alive := true
	probeErr := rc.Read(func(fd uintptr) bool {
		var buf [1]byte
		n, _, rerr := syscall.Recvfrom(int(fd), buf[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		switch {
		case errors.Is(rerr, syscall.EAGAIN):
			alive = true
		case rerr != nil:
			alive = false
		case n == 0:
			alive = false // orderly EOF from the peer
		default:
			alive = false // unsolicited bytes on an idle conn: desynced
		}
		return true
	})
	if probeErr != nil {
		return true
	}
	return alive
}
