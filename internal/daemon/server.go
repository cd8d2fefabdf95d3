package daemon

import (
	"context"
	"crypto/tls"
	"errors"
	"net"
	"sync"
	"time"

	"seccloud/internal/netsim"
	"seccloud/internal/obs"
	"seccloud/internal/wire"
)

// ServerConfig shapes the daemon's public protocol socket.
type ServerConfig struct {
	// Handler serves decoded requests. It is always wrapped in a
	// netsim.SwappableHandler slot (see Server.Slot), so a nemesis can
	// kill and revive the "process" behind the socket.
	Handler netsim.Handler
	// TLS, when set, wraps every accepted conn (use LoadServerTLS).
	TLS *tls.Config
	// Identities, when set with TLS, requires every verified peer cert
	// to resolve to a registered principal; unknown peers are dropped
	// after the TLS handshake.
	Identities *IdentityMap
	// ReadTimeout / WriteTimeout bound socket operations; zero picks
	// DefaultReadTimeout / DefaultWriteTimeout, negative disables.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// DrainIdle is how long a connection may sit idle once draining
	// before it is closed; zero means DefaultDrainIdle. Streamed audit
	// rounds arrive far faster than this, so in-flight audits keep their
	// conns; abandoned idle conns stop holding the drain open.
	DrainIdle time.Duration
	// MaxConns caps concurrently served conns; surplus dials receive the
	// typed overload frame after the protocol handshake. 0 = unlimited.
	MaxConns int
	// Admission gates request execution (per-conn backpressure: a conn
	// waiting at the gate serves nothing else meanwhile).
	Admission *netsim.Admission
	// Obs instruments the server; nil is zero-overhead uninstrumented.
	Obs *obs.Hub
}

// Socket defaults.
const (
	// DefaultReadTimeout bounds the wait for a conn's next request.
	DefaultReadTimeout = 2 * time.Minute
	// DefaultWriteTimeout bounds each response write.
	DefaultWriteTimeout = 30 * time.Second
	// DefaultDrainIdle bounds how long an idle conn can stall a drain.
	DefaultDrainIdle = 2 * time.Second
)

func (c ServerConfig) readTimeout() time.Duration {
	if c.ReadTimeout == 0 {
		return DefaultReadTimeout
	}
	if c.ReadTimeout < 0 {
		return 0
	}
	return c.ReadTimeout
}

func (c ServerConfig) writeTimeout() time.Duration {
	if c.WriteTimeout == 0 {
		return DefaultWriteTimeout
	}
	if c.WriteTimeout < 0 {
		return 0
	}
	return c.WriteTimeout
}

func (c ServerConfig) drainIdle() time.Duration {
	if c.DrainIdle <= 0 {
		return DefaultDrainIdle
	}
	return c.DrainIdle
}

// Server is the daemon's public protocol listener — the one socket server
// in the tree: version-negotiated framing, optional mTLS identity,
// admission backpressure, graceful drain, and a swappable handler slot
// for chaos schedules.
type Server struct {
	cfg  ServerConfig
	slot *netsim.SwappableHandler
	ln   net.Listener
	met  *serverObs

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	serving  int // conns in s.conns that are genuinely served (not shed)
	draining bool
	closed   bool
	refused  int64

	wg sync.WaitGroup
}

// Listen starts serving cfg.Handler on addr (e.g. "127.0.0.1:0").
func Listen(addr string, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		slot:  netsim.NewSwappableHandler(cfg.Handler),
		ln:    ln,
		met:   newServerObs(cfg.Obs),
		conns: make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr is the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Slot is the swappable handler behind the socket — the nemesis target:
// Swap in a dead handler and every request drops its conn, exactly as a
// killed process would; swap the live handler back to revive.
func (s *Server) Slot() *netsim.SwappableHandler { return s.slot }

// Draining reports whether a graceful drain is in progress.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// RefusedConns counts dials turned away with the typed overload frame
// (MaxConns pressure or drain).
func (s *Server) RefusedConns() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refused
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			continue
		}
		// Drain and MaxConns pressure share the refusal path: the conn
		// still gets the protocol handshake, then its first request is
		// answered with the typed overload frame and closed.
		// Only genuinely served conns count against MaxConns: shed conns
		// linger in s.conns just long enough to receive their overload
		// frame, and must not push the server into refusing capacity it
		// actually has.
		shed := s.draining
		if !shed && s.cfg.MaxConns > 0 && s.serving >= s.cfg.MaxConns {
			shed = true
		}
		if shed {
			s.refused++
		} else {
			s.serving++
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn, shed)
	}
}

func (s *Server) serveConn(raw net.Conn, shed bool) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, raw)
		if !shed {
			s.serving--
		}
		s.mu.Unlock()
		_ = raw.Close()
	}()
	s.met.connOpened()
	defer s.met.connClosed()

	readTimeout := s.cfg.readTimeout()
	writeTimeout := s.cfg.writeTimeout()
	drainIdle := s.cfg.drainIdle()
	// Refused conns get one bounded exchange, never the full (or a
	// disabled) read timeout: a shed dialer that sends nothing must not
	// hold a descriptor the cap was meant to bound, nor the drain open.
	if shed && (readTimeout == 0 || readTimeout > drainIdle) {
		readTimeout = drainIdle
	}

	conn := net.Conn(raw)
	if s.cfg.TLS != nil {
		tc := tls.Server(raw, s.cfg.TLS)
		if readTimeout > 0 {
			_ = tc.SetReadDeadline(time.Now().Add(readTimeout))
		}
		if err := tc.Handshake(); err != nil {
			s.met.refuse("tls")
			return
		}
		if s.cfg.Identities != nil {
			state := tc.ConnectionState()
			principal := ""
			ok := false
			if len(state.PeerCertificates) > 0 {
				principal, ok = s.cfg.Identities.Principal(state.PeerCertificates[0])
			}
			if !ok {
				// Authenticated by the CA but not a registered principal:
				// drop before any protocol bytes flow.
				s.met.refuse("unknown-principal")
				return
			}
			_ = principal // reserved for per-principal authorization
		}
		conn = tc
	}

	// The hello comes first, always: a peer that opens with anything else
	// (a bare frame included) is refused without a reply.
	if readTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(readTimeout))
	}
	hello, err := wire.ReadClientHello(conn)
	if err != nil {
		if errors.Is(err, wire.ErrBadHandshake) {
			s.met.refuse("bad-handshake")
		}
		return
	}
	v, err := wire.Negotiate(wire.MinProto, wire.MaxProto, hello)
	if writeTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	}
	if err != nil {
		// Version 0 in the ServerHello is the explicit refusal.
		_ = wire.WriteServerHello(conn, wire.ServerHello{Version: 0})
		s.met.refuse("version-mismatch")
		return
	}
	if err := wire.WriteServerHello(conn, wire.ServerHello{Version: v}); err != nil {
		return
	}
	s.met.handshake(v)

	for {
		// Deadline first, stop-check second — this order is load-bearing:
		// whichever side arms the deadline last, the loop either observes
		// the stop flag or wakes from an expired read instead of parking
		// the drain for ReadTimeout.
		if readTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(readTimeout))
		}
		s.mu.Lock()
		closed, draining := s.closed, s.draining
		s.mu.Unlock()
		if closed {
			return
		}
		if draining && !shed {
			// Grandfathered conn: keep serving the in-flight audit, but
			// only survive drain while requests keep arriving.
			if drainIdle < readTimeout || readTimeout == 0 {
				_ = conn.SetReadDeadline(time.Now().Add(drainIdle))
			}
		}
		req, _, err := wire.ReadMessage(conn)
		if err != nil {
			return
		}
		if shed {
			if writeTimeout > 0 {
				_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			}
			_, _ = wire.WriteMessage(conn, &wire.OverloadResponse{RetryAfterMillis: s.retryAfterMillis()})
			return
		}
		s.met.request()
		var resp wire.Message
		if gate := s.cfg.Admission; gate != nil {
			if aerr := gate.Acquire(context.Background()); aerr != nil {
				resp = &wire.OverloadResponse{RetryAfterMillis: s.retryAfterMillis()}
			} else {
				resp = s.slot.Handle(req)
				gate.Release()
			}
		} else {
			resp = s.slot.Handle(req)
		}
		if resp == nil {
			// The handler "process" is dead (nemesis kill): drop the conn
			// without a reply, exactly like the simulator.
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

func (s *Server) retryAfterMillis() int64 {
	if s.cfg.Admission != nil {
		return netsim.RetryAfterMillis(s.cfg.Admission.RetryAfter())
	}
	return 0
}

// Shutdown drains gracefully: the listener stays open so new dials get
// the typed overload refusal, grandfathered conns keep serving their
// in-flight audits until they go idle for DrainIdle, and Shutdown
// returns once every conn has retired (then the listener closes). If ctx
// expires first, remaining conns are torn down hard and ctx.Err()
// returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	if !s.draining {
		s.draining = true
		// Kick parked readers into the drain-idle regime; their serve
		// loops re-arm with DrainIdle from here on.
		kick := time.Now().Add(s.cfg.drainIdle())
		for conn := range s.conns {
			_ = conn.SetReadDeadline(kick)
		}
	}
	s.mu.Unlock()

	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == 0 {
			return s.finish(nil)
		}
		select {
		case <-ctx.Done():
			return s.finish(ctx.Err())
		case <-tick.C:
		}
	}
}

// finish closes the listener and joins every goroutine; forceErr != nil
// means the drain deadline expired and live conns are torn down hard.
func (s *Server) finish(forceErr error) error {
	s.mu.Lock()
	s.closed = true
	if forceErr != nil {
		for conn := range s.conns {
			_ = conn.Close()
		}
	}
	err := s.ln.Close()
	s.mu.Unlock()
	s.wg.Wait()
	if forceErr != nil {
		return forceErr
	}
	return err
}

// Close tears everything down immediately.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// serverObs is the daemon server's instrument set; nil-safe throughout.
type serverObs struct {
	conns      *obs.Gauge
	requests   *obs.Counter
	handshakes *obs.CounterVec
	refusals   *obs.CounterVec
}

func newServerObs(h *obs.Hub) *serverObs {
	if h == nil {
		return nil
	}
	return &serverObs{
		conns:      h.Gauge("daemon_conns").With(),
		requests:   h.Counter("daemon_requests_total").With(),
		handshakes: h.Counter("daemon_handshakes_total", "version"),
		refusals:   h.Counter("daemon_refusals_total", "reason"),
	}
}

func (o *serverObs) connOpened() {
	if o != nil {
		o.conns.Add(1)
	}
}

func (o *serverObs) connClosed() {
	if o != nil {
		o.conns.Add(-1)
	}
}

func (o *serverObs) request() {
	if o != nil {
		o.requests.Inc()
	}
}

func (o *serverObs) handshake(version uint16) {
	if o != nil {
		o.handshakes.With(versionLabel(version)).Inc()
	}
}

func (o *serverObs) refuse(reason string) {
	if o != nil {
		o.refusals.With(reason).Inc()
	}
}

func versionLabel(v uint16) string {
	switch v {
	case wire.ProtoV2:
		return "v2"
	default:
		return "unknown"
	}
}
