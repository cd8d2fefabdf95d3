package netsim

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"seccloud/internal/obs"
	"seccloud/internal/wire"
)

// TCPServerConfig shapes the socket server's robustness behaviour. The
// zero value picks conservative defaults.
type TCPServerConfig struct {
	// ReadTimeout bounds the wait for the next request on a connection;
	// a stalled or silent peer is disconnected after this long. Zero
	// means DefaultReadTimeout; negative disables the deadline.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response write. Zero means
	// DefaultWriteTimeout; negative disables the deadline.
	WriteTimeout time.Duration
	// MaxConns caps concurrently served connections; surplus dials are
	// answered with a typed overload frame and closed, so clients can
	// classify the refusal instead of seeing a silent drop. Zero means
	// unlimited.
	MaxConns int
	// Admission, when set, gates request execution: requests beyond the
	// gate's inflight and queue bounds receive a typed overload response.
	// Connections waiting at the gate serve nothing else meanwhile — the
	// strict request/response framing is the per-conn backpressure.
	Admission *Admission
}

// Default socket deadlines.
const (
	DefaultReadTimeout  = 2 * time.Minute
	DefaultWriteTimeout = 30 * time.Second
)

// refuseReadTimeout bounds the wait for a refused conn's first request,
// whatever ReadTimeout says: a dialer over MaxConns that sends nothing
// must not hold a goroutine and a descriptor the cap was meant to bound.
const refuseReadTimeout = 2 * time.Second

func (c TCPServerConfig) readTimeout() time.Duration {
	if c.ReadTimeout == 0 {
		return DefaultReadTimeout
	}
	if c.ReadTimeout < 0 {
		return 0
	}
	return c.ReadTimeout
}

func (c TCPServerConfig) writeTimeout() time.Duration {
	if c.WriteTimeout == 0 {
		return DefaultWriteTimeout
	}
	if c.WriteTimeout < 0 {
		return 0
	}
	return c.WriteTimeout
}

// TCPServer serves a Handler over real sockets with the wire framing.
// Connections are handled concurrently under per-message read/write
// deadlines; Close tears connections down immediately, Shutdown drains
// in-flight requests first. Both join every per-connection goroutine
// before returning.
type TCPServer struct {
	handler  Handler
	listener net.Listener
	cfg      TCPServerConfig

	mu       sync.Mutex
	closed   bool
	draining bool
	conns    map[net.Conn]struct{} // served and refused conns alike
	serving  int                   // conns counted against MaxConns
	refused  int64
	wg       sync.WaitGroup
}

// NewTCPServer starts listening on addr (e.g. "127.0.0.1:0") and serving
// handler in background goroutines with default robustness settings.
func NewTCPServer(addr string, handler Handler) (*TCPServer, error) {
	return NewTCPServerConfig(addr, handler, TCPServerConfig{})
}

// NewTCPServerConfig is NewTCPServer with explicit robustness settings.
func NewTCPServerConfig(addr string, handler Handler, cfg TCPServerConfig) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netsim: listen %s: %w", addr, err)
	}
	s := &TCPServer{
		handler:  handler,
		listener: ln,
		cfg:      cfg,
		conns:    make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *TCPServer) Addr() string { return s.listener.Addr().String() }

// RefusedConns reports how many dials the MaxConns guard turned away.
func (s *TCPServer) RefusedConns() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refused
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed || s.draining {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		// Refused conns sit in s.conns too, so Close and Shutdown reach
		// them, but only served ones count against MaxConns.
		refuse := s.cfg.MaxConns > 0 && s.serving >= s.cfg.MaxConns
		if refuse {
			s.refused++
		} else {
			s.serving++
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		if refuse {
			go s.refuseConn(conn)
		} else {
			go s.serveConn(conn)
		}
	}
}

// release forgets a conn on its way out and closes it.
func (s *TCPServer) release(conn net.Conn, served bool) {
	s.mu.Lock()
	delete(s.conns, conn)
	if served {
		s.serving--
	}
	s.mu.Unlock()
	_ = conn.Close()
}

// refuseConn answers a dial over the MaxConns cap with the typed
// overload frame before closing, so the client backs off (or fails over)
// instead of burning retries on what used to be a silent drop. It reads
// the client's first request before answering, as daemon.Server's shed
// path does: a close with that request unread resets the connection, and
// the client would see a broken pipe instead of the overload frame.
func (s *TCPServer) refuseConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.release(conn, false)
	// Deadline first, stop-check second, as in serveConn.
	rt := refuseReadTimeout
	if crt := s.cfg.readTimeout(); crt > 0 && crt < rt {
		rt = crt
	}
	_ = conn.SetReadDeadline(time.Now().Add(rt))
	if s.stopping() {
		return
	}
	if _, _, err := wire.ReadMessage(conn); err != nil {
		return
	}
	if wt := s.cfg.writeTimeout(); wt > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(wt))
	}
	_, _ = wire.WriteMessage(conn, &wire.OverloadResponse{RetryAfterMillis: s.retryAfterMillis()})
}

func (s *TCPServer) retryAfterMillis() int64 {
	if s.cfg.Admission != nil {
		return retryAfterToMillis(s.cfg.Admission.RetryAfter())
	}
	return 0
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.release(conn, true)
	readTimeout := s.cfg.readTimeout()
	writeTimeout := s.cfg.writeTimeout()
	for {
		// Deadline first, stop-check second — this order is load-bearing.
		// Shutdown flips draining and then stamps an immediate read
		// deadline on every live conn; re-arming the deadline AFTER the
		// stop check opens a race where this loop passes the check, then
		// overwrites the drain deadline with a fresh full-length one and
		// parks in ReadMessage until it expires, stalling graceful drain
		// for up to ReadTimeout. With this order, whichever side writes
		// the deadline last, the loop either observes draining here or
		// wakes immediately from the expired read.
		if readTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(readTimeout))
		}
		if s.stopping() {
			return
		}
		req, _, err := wire.ReadMessage(conn)
		if err != nil {
			return // peer closed, stalled past deadline, or sent garbage
		}
		var resp wire.Message
		if gate := s.cfg.Admission; gate != nil {
			if aerr := gate.Acquire(context.Background()); aerr != nil {
				resp = &wire.OverloadResponse{RetryAfterMillis: s.retryAfterMillis()}
			} else {
				resp = s.handler.Handle(req)
				gate.Release()
			}
		} else {
			resp = s.handler.Handle(req)
		}
		if resp == nil {
			// Handler "process" died mid-request: drop the connection
			// without a reply, as a killed process would.
			return
		}
		if writeTimeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		}
		if _, err := wire.WriteMessage(conn, resp); err != nil {
			return
		}
	}
}

func (s *TCPServer) stopping() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed || s.draining
}

// Shutdown gracefully stops the server: it refuses new connections,
// unblocks idle readers, lets in-flight requests finish their response
// writes, and joins every goroutine. If ctx expires first, remaining
// connections are torn down hard (as Close does) before returning
// ctx.Err().
func (s *TCPServer) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	err := s.listener.Close()
	// Idle connections are parked in ReadMessage; an immediate read
	// deadline unblocks them. A connection mid-Handle is unaffected: its
	// response write has its own deadline and completes the drain.
	for conn := range s.conns {
		_ = conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		return err
	case <-ctx.Done():
		s.mu.Lock()
		s.closed = true
		for conn := range s.conns {
			_ = conn.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close shuts the listener, closes live connections, and waits for the
// serving goroutines to exit.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.listener.Close()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// TCPClientConfig shapes a TCP client's robustness behaviour.
type TCPClientConfig struct {
	// Timeout bounds each round trip when the caller's context carries no
	// deadline; zero means no per-call deadline.
	Timeout time.Duration
	// Redial re-establishes the connection on the next round trip after a
	// transport failure broke it.
	Redial bool
	// Faults injects deterministic client-side network faults.
	Faults FaultConfig
	// Obs attaches observability instruments (wall-clock latency
	// histogram, request and fault counters under transport="tcp"); nil
	// leaves the client uninstrumented with zero overhead.
	Obs *obs.Hub
}

// TCPClient is a Client over one TCP connection. Round trips are
// serialized with a mutex: the protocol is strictly request/response.
type TCPClient struct {
	addr string
	cfg  TCPClientConfig

	mu     sync.Mutex
	conn   net.Conn
	broken bool
	closed bool
	stats  Stats
	faults *faultInjector
	obs    *rpcObs
}

var _ Client = (*TCPClient)(nil)

// DialTCP connects to a TCPServer with default client settings.
func DialTCP(addr string) (*TCPClient, error) {
	return DialTCPConfig(addr, TCPClientConfig{})
}

// DialTCPConfig is DialTCP with explicit robustness settings.
func DialTCPConfig(addr string, cfg TCPClientConfig) (*TCPClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, &TransportError{Op: "dial", Err: fmt.Errorf("netsim: dial %s: %w", addr, err)}
	}
	return &TCPClient{
		addr:   addr,
		cfg:    cfg,
		conn:   conn,
		faults: newFaultInjector(cfg.Faults),
		obs:    newRPCObs(cfg.Obs, "tcp"),
	}, nil
}

// RoundTrip sends m and waits for the reply.
func (c *TCPClient) RoundTrip(m wire.Message) (wire.Message, error) {
	return c.RoundTripContext(context.Background(), m)
}

// RoundTripContext sends m and waits for the reply under the context's
// deadline (or the configured Timeout). Transport failures mark the
// connection broken; with Redial enabled the next call reconnects.
func (c *TCPClient) RoundTripContext(ctx context.Context, m wire.Message) (wire.Message, error) {
	if c.obs == nil {
		return c.roundTripContext(ctx, m)
	}
	start := time.Now()
	resp, err := c.roundTripContext(ctx, m)
	c.obs.observe(time.Since(start), err)
	return resp, err
}

func (c *TCPClient) roundTripContext(ctx context.Context, m wire.Message) (wire.Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("netsim: client closed")
	}
	if err := ctx.Err(); err != nil {
		return nil, transportErr("roundtrip", err)
	}
	if c.broken {
		if !c.cfg.Redial {
			return nil, &TransportError{Op: "roundtrip", Err: errors.New("netsim: connection broken (redial disabled)")}
		}
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return nil, &TransportError{Op: "dial", Err: err}
		}
		c.conn = conn
		c.broken = false
	}

	deadline, hasDeadline := ctx.Deadline()
	if !hasDeadline && c.cfg.Timeout > 0 {
		deadline, hasDeadline = time.Now().Add(c.cfg.Timeout), true
	}
	if hasDeadline {
		_ = c.conn.SetDeadline(deadline)
	} else {
		_ = c.conn.SetDeadline(time.Time{})
	}

	plan := c.faults.plan(true)
	if plan.disconnect {
		c.breakConn()
		return nil, &FaultError{Kind: FaultDisconnect, Op: "request"}
	}
	if plan.drop {
		// A lost request: nothing reaches the server, the caller's wait
		// is the timeout it would have burned on a silent socket.
		return nil, &FaultError{Kind: FaultDrop, Op: "request"}
	}
	if plan.delay > 0 {
		t := time.NewTimer(plan.delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, transportErr("roundtrip", ctx.Err())
		case <-t.C:
		}
	}

	data, err := wire.Encode(m)
	if err != nil {
		return nil, err
	}
	if plan.corrupt {
		data = append([]byte(nil), data...)
		c.faults.corruptFrame(data)
	}
	writes := 1
	if plan.duplicate {
		writes = 2
	}
	var sent int
	for i := 0; i < writes; i++ {
		n, err := wire.WriteFrame(c.conn, data)
		sent += n
		if err != nil {
			c.breakConn()
			return nil, transportErr("write", err)
		}
	}

	resp, recvd, err := wire.ReadMessage(c.conn)
	if err != nil {
		// Includes the corrupted-request case: the server fails to decode
		// and drops the connection, so the read returns an error.
		c.breakConn()
		if plan.corrupt {
			return nil, &FaultError{Kind: FaultCorrupt, Op: "request", Err: err}
		}
		return nil, transportErr("read", err)
	}
	if plan.duplicate {
		// Drain the duplicate's response to keep the stream in sync.
		if _, _, err := wire.ReadMessage(c.conn); err != nil {
			c.breakConn()
			return nil, transportErr("read", err)
		}
	}
	c.stats.record(sent, recvd, 0)
	// A typed shed surfaces as a non-retryable *OverloadedError, never as
	// a normal reply.
	return overloadResponse("roundtrip", resp)
}

// breakConn closes the live connection and marks it for redial. Callers
// must hold c.mu.
func (c *TCPClient) breakConn() {
	if c.conn != nil {
		_ = c.conn.Close()
	}
	c.broken = true
}

// Stats returns the link counters.
func (c *TCPClient) Stats() StatsSnapshot {
	snap := c.stats.Snapshot()
	snap.Faults = c.faults.snapshot()
	return snap
}

// Close closes the underlying connection.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.broken {
		return nil
	}
	return c.conn.Close()
}
