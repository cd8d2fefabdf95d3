package netsim_test

// The transports' contracts over a real socket. The one socket stack is
// internal/daemon (Listen, Pool, Client); these tests drive it with the
// same echo handler and fault configurations the in-process Loopback
// tests use, from an external test package so netsim's tests can import
// the daemon that imports netsim.

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seccloud/internal/daemon"
	"seccloud/internal/netsim"
	"seccloud/internal/wire"
)

// echo answers every message with a canned StoreResponse carrying the
// request kind, so tests can confirm delivery.
var echo = netsim.HandlerFunc(func(m wire.Message) wire.Message {
	return &wire.StoreResponse{OK: true, Error: m.Kind()}
})

// listen serves h on an ephemeral localhost port; mutate adjusts the
// config first. The server is closed when the test ends.
func listen(t *testing.T, h netsim.Handler, mutate func(*daemon.ServerConfig)) *daemon.Server {
	t.Helper()
	cfg := daemon.ServerConfig{Handler: h}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := daemon.Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// dial builds a pooled client to addr. Like every pooled client it dials
// lazily and redials after a transport failure.
func dial(addr string, cfg daemon.ClientConfig) *daemon.Client {
	return daemon.NewClient(daemon.NewPool(daemon.PoolConfig{Addr: addr, DialTimeout: 5 * time.Second}), cfg)
}

// dialed is dial plus one warmed conn, so an unreachable addr fails here.
func dialed(t *testing.T, addr string, cfg daemon.ClientConfig) *daemon.Client {
	t.Helper()
	c := dial(addr, cfg)
	if err := c.Pool().Warm(context.Background(), 1); err != nil {
		_ = c.Close()
		t.Fatalf("dial %s: %v", addr, err)
	}
	return c
}

// waitNoServerGoroutines polls until the goroutine count is back to the
// baseline, then asserts no daemon.Server frame is left on any stack.
func waitNoServerGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before {
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	if strings.Contains(stacks, "daemon.(*Server)") {
		t.Fatalf("leaked server goroutines:\n%s", stacks)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	srv := listen(t, echo, nil)
	client := dialed(t, srv.Addr(), daemon.ClientConfig{})
	defer func() {
		if err := client.Close(); err != nil {
			t.Errorf("closing client: %v", err)
		}
	}()

	for i := 0; i < 5; i++ {
		resp, err := client.RoundTripContext(context.Background(), &wire.ChallengeRequest{JobID: "j"})
		if err != nil {
			t.Fatalf("RoundTrip %d: %v", i, err)
		}
		if sr, ok := resp.(*wire.StoreResponse); !ok || sr.Error != "challenge_req" {
			t.Fatalf("unexpected response %#v", resp)
		}
	}
	st := client.Stats()
	if st.Calls != 5 || st.TotalBytes() == 0 {
		t.Fatalf("TCP stats wrong: %+v", st)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("closing server: %v", err)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	srv := listen(t, echo, nil)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := dial(srv.Addr(), daemon.ClientConfig{})
			defer func() { _ = client.Close() }()
			for i := 0; i < 10; i++ {
				if _, err := client.RoundTripContext(context.Background(), &wire.StoreResponse{OK: true}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent client error: %v", err)
	}
}

func TestTCPClientClosedErrors(t *testing.T) {
	srv := listen(t, echo, nil)
	client := dialed(t, srv.Addr(), daemon.ClientConfig{})
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatalf("double close should be nil, got %v", err)
	}
	if _, err := client.RoundTripContext(context.Background(), &wire.StoreResponse{}); err == nil {
		t.Fatal("round trip on closed client succeeded")
	}
}

func TestTCPServerCloseIsIdempotent(t *testing.T) {
	srv := listen(t, echo, nil)
	if err := srv.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	c := dial(srv.Addr(), daemon.ClientConfig{})
	defer func() { _ = c.Close() }()
	if err := c.Pool().Warm(context.Background(), 1); err == nil {
		t.Fatal("dial after close succeeded")
	}
}

func TestTCPClientFaultsAndRedial(t *testing.T) {
	srv := listen(t, echo, nil)
	client := dial(srv.Addr(), daemon.ClientConfig{
		Timeout: 5 * time.Second,
		Faults:  netsim.FaultConfig{Seed: 17, DropRate: 0.2, CorruptRate: 0.1, DisconnectRate: 0.1},
	})
	defer func() { _ = client.Close() }()

	ok, faults := 0, 0
	for i := 0; i < 60; i++ {
		_, err := client.RoundTripContext(context.Background(), &wire.StoreResponse{OK: true})
		switch {
		case err == nil:
			ok++
		case netsim.IsRetryable(err):
			faults++
		default:
			t.Fatalf("round trip %d: non-retryable error %v", i, err)
		}
	}
	if ok == 0 || faults == 0 {
		t.Fatalf("want a mix of successes and faults, got ok=%d faults=%d", ok, faults)
	}
	if client.Stats().Faults.Total() == 0 {
		t.Fatal("fault counters empty")
	}
	// Every disconnect and corruption broke a conn; later trips succeeded,
	// so the pool redialed.
	if st := client.Pool().Stats(); st.Dials < 2 {
		t.Fatalf("broken conns never redialed: %+v", st)
	}
}

func TestTCPClientRetryClientOverFaultyLink(t *testing.T) {
	srv := listen(t, echo, nil)
	inner := dial(srv.Addr(), daemon.ClientConfig{
		Timeout: 5 * time.Second,
		Faults:  netsim.FaultConfig{Seed: 29, DropRate: 0.3},
	})
	r := netsim.NewRetrier(1)
	r.MaxAttempts = 10
	r.Sleep = func(ctx context.Context, d time.Duration) error { return ctx.Err() }
	client := netsim.NewRetryClient(inner, r)
	defer func() { _ = client.Close() }()

	for i := 0; i < 30; i++ {
		if _, err := client.RoundTripContext(context.Background(), &wire.ChallengeRequest{JobID: "j"}); err != nil {
			t.Fatalf("retrying client failed over 30%% lossy TCP link: %v", err)
		}
	}
	if inner.Stats().Faults.Drops == 0 {
		t.Fatal("no drops injected; test is vacuous")
	}
}

func TestTCPServerGracefulShutdownNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	// Idle conns retire DrainIdle after the drain starts.
	srv := listen(t, echo, func(cfg *daemon.ServerConfig) { cfg.DrainIdle = 50 * time.Millisecond })
	// A few clients gone idle mid-session, so their server-side readers
	// are parked in ReadMessage when Shutdown fires.
	clients := make([]*daemon.Client, 4)
	for i := range clients {
		clients[i] = dial(srv.Addr(), daemon.ClientConfig{})
		if _, err := clients[i].RoundTripContext(context.Background(), &wire.StoreResponse{OK: true}); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, c := range clients {
		_ = c.Close()
	}
	waitNoServerGoroutines(t, before)
}

func TestTCPServerShutdownIdempotentWithClose(t *testing.T) {
	srv := listen(t, echo, nil)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close after Shutdown: %v", err)
	}
}

func TestTCPServerMaxConns(t *testing.T) {
	srv := listen(t, echo, func(cfg *daemon.ServerConfig) { cfg.MaxConns = 1 })

	c1 := dial(srv.Addr(), daemon.ClientConfig{Timeout: 2 * time.Second})
	defer func() { _ = c1.Close() }()
	if _, err := c1.RoundTripContext(context.Background(), &wire.StoreResponse{OK: true}); err != nil {
		t.Fatalf("first client should be served: %v", err)
	}

	c2 := dial(srv.Addr(), daemon.ClientConfig{Timeout: 2 * time.Second})
	defer func() { _ = c2.Close() }()
	if _, err := c2.RoundTripContext(context.Background(), &wire.StoreResponse{OK: true}); err == nil {
		t.Fatal("second client served despite MaxConns=1")
	}
	if srv.RefusedConns() == 0 {
		t.Fatal("refused connection not counted")
	}
}

func TestTCPServerReadTimeoutDisconnectsStalledPeer(t *testing.T) {
	srv := listen(t, echo, func(cfg *daemon.ServerConfig) { cfg.ReadTimeout = 50 * time.Millisecond })

	client := dial(srv.Addr(), daemon.ClientConfig{Timeout: 2 * time.Second})
	defer func() { _ = client.Close() }()
	if _, err := client.RoundTripContext(context.Background(), &wire.StoreResponse{OK: true}); err != nil {
		t.Fatal(err)
	}
	// Stall past the server's read deadline; the server must hang up. The
	// pool's liveness probe sees the hang-up, so the stalled conn is
	// evicted rather than reused and the next trip rides a fresh dial.
	time.Sleep(150 * time.Millisecond)
	if _, err := client.RoundTripContext(context.Background(), &wire.StoreResponse{OK: true}); err != nil {
		t.Fatalf("trip after the server hung up a stalled conn: %v", err)
	}
	if st := client.Pool().Stats(); st.Evictions != 1 || st.Dials != 2 || st.Reuses != 0 {
		t.Fatalf("server kept a stalled connection alive past ReadTimeout: %+v, want 1 eviction, 2 dials, 0 reuses", st)
	}
}

// TestTCPMaxConnsReturnsTypedOverload: a dial over MaxConns gets the typed
// overload frame, not a silent close.
func TestTCPMaxConnsReturnsTypedOverload(t *testing.T) {
	srv := listen(t, echo, func(cfg *daemon.ServerConfig) {
		cfg.MaxConns = 1
		cfg.Admission = netsim.NewAdmission(netsim.AdmissionConfig{MaxInflight: 1, RetryAfter: 50 * time.Millisecond})
	})

	c1 := dial(srv.Addr(), daemon.ClientConfig{})
	defer c1.Close()
	// One round trip proves c1 is registered and holding the only slot.
	if _, err := c1.RoundTripContext(context.Background(), &wire.StoreRequest{UserID: "a"}); err != nil {
		t.Fatalf("round trip 1: %v", err)
	}

	c2 := dial(srv.Addr(), daemon.ClientConfig{})
	defer c2.Close()
	_, rerr := c2.RoundTripContext(context.Background(), &wire.StoreRequest{UserID: "b"})
	if !netsim.IsOverloaded(rerr) {
		t.Fatalf("refused conn round trip = %v, want typed overload", rerr)
	}
	var oe *netsim.OverloadedError
	if !errors.As(rerr, &oe) || oe.RetryAfter != 50*time.Millisecond {
		t.Fatalf("refusal lost the retry-after hint: %v", rerr)
	}
	if got := srv.RefusedConns(); got != 1 {
		t.Fatalf("RefusedConns = %d, want 1", got)
	}
}

// TestTCPMaxConnsClosesSilentRefusedConn: a dialer over MaxConns that
// never sends a byte is closed after DrainIdle, not held for the (here
// disabled) ReadTimeout.
func TestTCPMaxConnsClosesSilentRefusedConn(t *testing.T) {
	const drainIdle = 200 * time.Millisecond
	srv := listen(t, echo, func(cfg *daemon.ServerConfig) {
		cfg.MaxConns = 1
		cfg.ReadTimeout = -1
		cfg.DrainIdle = drainIdle
	})

	c1 := dial(srv.Addr(), daemon.ClientConfig{})
	defer c1.Close()
	if _, err := c1.RoundTripContext(context.Background(), &wire.StoreRequest{UserID: "a"}); err != nil {
		t.Fatalf("round trip 1: %v", err)
	}

	silent, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial 2: %v", err)
	}
	defer silent.Close()
	start := time.Now()
	_ = silent.SetReadDeadline(start.Add(25 * drainIdle))
	_, rerr := silent.Read(make([]byte, 1))
	var ne net.Error
	if errors.As(rerr, &ne) && ne.Timeout() {
		t.Fatalf("silent refused conn still open after %v", time.Since(start))
	}
	if rerr == nil {
		t.Fatal("silent refused conn got a reply to a hello it never sent")
	}
	if got := srv.RefusedConns(); got != 1 {
		t.Fatalf("RefusedConns = %d, want 1", got)
	}
}

// TestTCPAdmissionSheds drives the gate through real sockets.
func TestTCPAdmissionSheds(t *testing.T) {
	gate := netsim.NewAdmission(netsim.AdmissionConfig{MaxInflight: 1, MaxQueue: 0, RetryAfter: 25 * time.Millisecond})
	if err := gate.Acquire(context.Background()); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	srv := listen(t, echo, func(cfg *daemon.ServerConfig) { cfg.Admission = gate })
	c := dial(srv.Addr(), daemon.ClientConfig{})
	defer c.Close()
	if _, err := c.RoundTripContext(context.Background(), &wire.StoreRequest{UserID: "a"}); !netsim.IsOverloaded(err) {
		t.Fatalf("round trip under full gate = %v, want overloaded", err)
	}
	gate.Release()
	if _, err := c.RoundTripContext(context.Background(), &wire.StoreRequest{UserID: "a"}); err != nil {
		t.Fatalf("round trip after release: %v", err)
	}
}

// slowAuditHandler simulates a server verifying an audit challenge: it
// signals entry, works for a while, then answers.
type slowAuditHandler struct {
	entered chan struct{}
	work    time.Duration
}

func (h *slowAuditHandler) Handle(m wire.Message) wire.Message {
	if req, ok := m.(*wire.ChallengeRequest); ok {
		select {
		case h.entered <- struct{}{}:
		default:
		}
		time.Sleep(h.work)
		return &wire.ChallengeResponse{JobID: req.JobID}
	}
	return &wire.StoreResponse{OK: true}
}

func TestTCPServerShutdownDrainsInFlightAuditRound(t *testing.T) {
	before := runtime.NumGoroutine()

	h := &slowAuditHandler{entered: make(chan struct{}, 1), work: 300 * time.Millisecond}
	srv := listen(t, h, func(cfg *daemon.ServerConfig) { cfg.DrainIdle = 50 * time.Millisecond })
	client := dial(srv.Addr(), daemon.ClientConfig{Timeout: 5 * time.Second})

	// Launch an audit challenge round trip, then shut the server down while
	// the challenge is mid-verification.
	type result struct {
		resp wire.Message
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := client.RoundTripContext(context.Background(), &wire.ChallengeRequest{JobID: "drain-job"})
		done <- result{resp, err}
	}()
	select {
	case <-h.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("challenge never reached the handler")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// The in-flight audit round must have completed, not been cut off:
	// graceful drain means the DA records a verdict for this round, not a
	// network fault.
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight challenge failed during drain: %v", r.err)
	}
	ch, ok := r.resp.(*wire.ChallengeResponse)
	if !ok || ch.JobID != "drain-job" {
		t.Fatalf("unexpected drain response: %#v", r.resp)
	}

	// After the drain the server is gone: the next round trip surfaces a
	// retryable transport error (the DA counts it as a network fault and
	// moves on — it never accuses).
	if _, err := client.RoundTripContext(context.Background(), &wire.ChallengeRequest{JobID: "drain-job"}); err == nil {
		t.Fatal("round trip after Shutdown succeeded")
	} else if !netsim.IsRetryable(err) {
		t.Fatalf("post-shutdown error is not retryable: %v", err)
	}
	_ = client.Close()
	waitNoServerGoroutines(t, before)
}

// drainCountHandler tallies every request that enters the handler — the
// server-side definition of "in flight" the drain contract protects.
type drainCountHandler struct {
	entered atomic.Int64
}

func (h *drainCountHandler) Handle(m wire.Message) wire.Message {
	h.entered.Add(1)
	return &wire.StoreResponse{OK: true}
}

// Shutdown under concurrent streamed rounds must (a) complete promptly
// once the streams stop — with a check-then-arm ordering in the serve
// loop, a conn could overwrite the drain deadline with a fresh
// full-length one and stall the drain for up to ReadTimeout — (b) drop
// zero in-flight requests (every round that entered the handler gets its
// response back to the client), and (c) leak no goroutines.
func TestTCPServerShutdownStreamedRoundsNoDropNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	handler := &drainCountHandler{}
	// The default (2-minute) ReadTimeout is the point: if drain depends on
	// read deadlines expiring naturally, this test times out.
	srv := listen(t, handler, nil)

	const streams = 8
	var (
		wg        sync.WaitGroup
		succeeded atomic.Int64
		stop      = make(chan struct{})
	)
	for i := 0; i < streams; i++ {
		c := dialed(t, srv.Addr(), daemon.ClientConfig{})
		wg.Add(1)
		go func(c *daemon.Client) {
			defer wg.Done()
			defer func() { _ = c.Close() }()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := c.RoundTripContext(context.Background(), &wire.ChallengeRequest{JobID: "drain"})
				if err != nil {
					// The conn died at the read stage during drain: the
					// request never entered the handler, and the error is
					// a classifiable transport fault — never a success
					// that went missing.
					if !netsim.IsRetryable(err) && !netsim.IsTimeout(err) {
						t.Errorf("drain produced a non-transport error: %v", err)
					}
					return
				}
				succeeded.Add(1)
			}
		}(c)
	}

	// Let the streams reach a steady request/response rhythm so Shutdown
	// lands in every phase of the serve loop across the 8 conns.
	for handler.entered.Load() < streams*4 {
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	shutdown := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdown <- srv.Shutdown(ctx)
	}()
	// Grandfathered conns keep serving their streams while draining; the
	// streams end their audits, and the drain must then finish promptly.
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if err := <-shutdown; err != nil {
		t.Fatalf("Shutdown did not drain gracefully: %v", err)
	}
	if drainTook := time.Since(start); drainTook > 10*time.Second {
		t.Fatalf("graceful drain of idle-or-active conns took %v; drain deadline race is back", drainTook)
	}

	// Zero dropped in-flight: every entered request's response write
	// completes before its conn closes.
	entered, ok := handler.entered.Load(), succeeded.Load()
	if entered != ok {
		t.Fatalf("drain dropped in-flight requests: handler entered %d, clients completed %d", entered, ok)
	}

	// New dials after drain must be refused, not accepted and wedged.
	late := dial(srv.Addr(), daemon.ClientConfig{})
	defer func() { _ = late.Close() }()
	if err := late.Pool().Warm(context.Background(), 1); err == nil {
		t.Fatal("dial succeeded after Shutdown")
	}
	waitNoServerGoroutines(t, before)
}

// A conn parked mid-read when Shutdown fires must wake within DrainIdle
// even though its read deadline was freshly re-armed moments earlier.
func TestTCPServerShutdownWakesFreshlyArmedReader(t *testing.T) {
	srv := listen(t, echo, func(cfg *daemon.ServerConfig) {
		cfg.ReadTimeout = time.Hour // drain must not wait for this
	})
	c := dial(srv.Addr(), daemon.ClientConfig{})
	defer func() { _ = c.Close() }()
	// One round trip parks the server-side reader with a fresh 1h deadline.
	if _, err := c.RoundTripContext(context.Background(), &wire.StoreResponse{OK: true}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("drain of one idle conn took %v", took)
	}
	if _, err := c.RoundTripContext(context.Background(), &wire.StoreResponse{OK: true}); err == nil {
		t.Fatal("round trip succeeded on a drained server")
	} else if !netsim.IsRetryable(err) && !netsim.IsTimeout(err) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("post-drain round trip error is not a classifiable transport fault: %v", err)
	}
}

// relisten binds addr again for a restarted incarnation. It retries
// briefly: after a kill from inside a handler the old listener's close
// may still be in flight.
func relisten(t *testing.T, addr string, h netsim.Handler) *daemon.Server {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s, err := daemon.Listen(addr, daemon.ServerConfig{Handler: h})
		if err == nil {
			t.Cleanup(func() { _ = s.Close() })
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A server process killed and restarted on the same address: the trip
// that meets the dead process fails retryably, the restart rebuilds the
// handler (recovery), and the pooled client redials transparently.
func TestRestartableServerKillRestartRedial(t *testing.T) {
	var incarnations atomic.Int32
	recoverHandler := func() netsim.Handler {
		incarnations.Add(1)
		return echo
	}
	srv := listen(t, recoverHandler(), nil)
	addr := srv.Addr()
	client := dialed(t, addr, daemon.ClientConfig{Timeout: 5 * time.Second})
	defer func() { _ = client.Close() }()

	if _, err := client.RoundTripContext(context.Background(), &wire.StoreResponse{OK: true}); err != nil {
		t.Fatalf("round trip before crash: %v", err)
	}

	// SIGKILL the incarnation: the next call must fail retryably — the
	// client must not be told anything that looks like a protocol verdict.
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := client.RoundTripContext(context.Background(), &wire.StoreResponse{OK: true}); err == nil {
		t.Fatal("round trip against a dead server succeeded")
	} else if !netsim.IsRetryable(err) {
		t.Fatalf("dead-server error is not retryable: %v", err)
	}

	relisten(t, addr, recoverHandler())
	if _, err := client.RoundTripContext(context.Background(), &wire.StoreResponse{OK: true}); err != nil {
		t.Fatalf("round trip after restart: %v", err)
	}
	if got := incarnations.Load(); got != 2 {
		t.Fatalf("handler built %d times, want 2", got)
	}
	if st := client.Pool().Stats(); st.Dials < 2 {
		t.Fatalf("client never redialed the restarted server: %+v", st)
	}
}

// killOnChallenge dies "inside" the request handler, the way a
// store.Crasher hook does: it kills the server it is serving under and
// returns nil, so no response ever leaves the dying process.
type killOnChallenge struct {
	srv   atomic.Pointer[daemon.Server]
	armed atomic.Bool
}

func (h *killOnChallenge) Handle(m wire.Message) wire.Message {
	if _, ok := m.(*wire.ChallengeRequest); ok && h.armed.CompareAndSwap(true, false) {
		// Close joins every serving goroutine, this one included, so a
		// kill from inside a handler tears down on its own goroutine.
		srv := h.srv.Load()
		go func() { _ = srv.Close() }()
		return nil
	}
	return &wire.StoreResponse{OK: true, Error: m.Kind()}
}

func TestRestartableServerInHandlerKill(t *testing.T) {
	h := &killOnChallenge{}
	srv := listen(t, h, nil)
	h.srv.Store(srv)
	addr := srv.Addr()
	client := dialed(t, addr, daemon.ClientConfig{Timeout: 5 * time.Second})
	defer func() { _ = client.Close() }()

	h.armed.Store(true)
	if _, err := client.RoundTripContext(context.Background(), &wire.ChallengeRequest{JobID: "j"}); err == nil {
		t.Fatal("round trip survived an in-handler crash")
	} else if !netsim.IsRetryable(err) {
		t.Fatalf("in-handler crash error is not retryable: %v", err)
	}
	h.srv.Store(relisten(t, addr, h))
	if _, err := client.RoundTripContext(context.Background(), &wire.ChallengeRequest{JobID: "j"}); err != nil {
		t.Fatalf("round trip after restart: %v", err)
	}
}
