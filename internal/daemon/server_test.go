package daemon

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"seccloud/internal/core"
	"seccloud/internal/netsim"
	"seccloud/internal/obs"
	"seccloud/internal/pairing"
	"seccloud/internal/wire"
)

// Shared fixture shape: a small dataset so pairing work stays cheap while
// audits still span several challenge rounds.
const (
	testBlocks    = 48
	testBlockSize = 64
	testSample    = 12
	testRounds    = 4
)

func newTestUniverse(t testing.TB, seed int64) *Universe {
	t.Helper()
	u, err := NewUniverse(pairing.InsecureTest256(), seed)
	if err != nil {
		t.Fatalf("NewUniverse: %v", err)
	}
	return u
}

// newSeededServer builds the cloud server "cs:<name>" and seeds the demo
// dataset into it.
func newSeededServer(t testing.TB, u *Universe, name string, cfg core.ServerConfig) *core.Server {
	t.Helper()
	srv, err := u.NewServer(name, cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if err := u.SeedDataset(srv, name, testBlocks, testBlockSize); err != nil {
		t.Fatalf("SeedDataset: %v", err)
	}
	return srv
}

func startDaemon(t testing.TB, h netsim.Handler, mutate func(*ServerConfig)) *Server {
	t.Helper()
	cfg := ServerConfig{
		Handler:      h,
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 10 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func testAuditConfig(stream int) core.AuditConfig {
	return core.AuditConfig{
		DatasetSize:     testBlocks,
		SampleSize:      testSample,
		Rounds:          testRounds,
		BatchSignatures: true,
		Workers:         stream,
	}
}

func runAudit(t testing.TB, u *Universe, client netsim.Client, seed int64, cfg core.AuditConfig) *core.AuditReport {
	t.Helper()
	warrant, err := u.Warrant(time.Now().Add(time.Hour))
	if err != nil {
		t.Fatalf("Warrant: %v", err)
	}
	report, err := u.StorageAudit(client, warrant, seed, cfg)
	if err != nil {
		t.Fatalf("StorageAudit: %v", err)
	}
	return report
}

func falseFlags(r *core.AuditReport) int {
	n := 0
	for _, rr := range r.Rounds {
		if rr.Outcome.Accusatory() {
			n++
		}
	}
	return n
}

// TestDaemonEndToEndAudit drives a full storage audit of an honest server
// over a real TCP socket with the v2 negotiated protocol.
func TestDaemonEndToEndAudit(t *testing.T) {
	u := newTestUniverse(t, 1)
	s := startDaemon(t, newSeededServer(t, u, "0", core.ServerConfig{}), nil)

	tr := NewTCPTransport(TCPTransportConfig{Timeout: 10 * time.Second})
	defer tr.Close()
	client, err := tr.Dial(s.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}

	report := runAudit(t, u, client, 42, testAuditConfig(2))
	if !report.Valid() {
		t.Fatalf("honest server flagged over daemon transport: %+v", report.Failures)
	}
	if ff := falseFlags(report); ff != 0 {
		t.Fatalf("false flags over clean TCP: %d", ff)
	}
	if report.EffectiveSampleSize != testSample {
		t.Fatalf("effective sample %d, want %d (no rounds should be lost on a clean link)",
			report.EffectiveSampleSize, testSample)
	}
	dc := client.(*Client)
	if stats := dc.Pool().Stats(); stats.Dials == 0 {
		t.Fatalf("audit completed without dialing? stats=%+v", stats)
	}
}

// TestDaemonPoolNegotiatesV2 checks the pool's conns carry the negotiated
// protocol version.
func TestDaemonPoolNegotiatesV2(t *testing.T) {
	u := newTestUniverse(t, 2)
	s := startDaemon(t, newSeededServer(t, u, "0", core.ServerConfig{}), nil)

	pool := NewPool(PoolConfig{Addr: s.Addr()})
	defer pool.Close()
	conn, err := pool.Get(context.Background())
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	defer pool.Put(conn)
	if conn.Version() != wire.ProtoV2 {
		t.Fatalf("negotiated version %d, want %d", conn.Version(), wire.ProtoV2)
	}
}

// TestDaemonRefusesBareFrame: a peer that skips the hello and opens with
// a bare length-prefixed frame is refused, not served — no reply frame,
// the conn closed, and the refusal counted as a bad handshake.
func TestDaemonRefusesBareFrame(t *testing.T) {
	u := newTestUniverse(t, 3)
	hub := obs.NewHub()
	s := startDaemon(t, newSeededServer(t, u, "0", core.ServerConfig{}), func(cfg *ServerConfig) {
		cfg.Obs = hub
	})

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := wire.WriteMessage(conn, &wire.StorageAuditRequest{UserID: u.User.ID()}); err != nil {
		t.Fatalf("writing bare frame: %v", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := io.ReadFull(conn, make([]byte, 4))
	if n != 0 {
		t.Fatalf("daemon answered a bare frame with %d byte(s)", n)
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("daemon held the conn of a peer that sent no hello")
	}

	bad := map[string]string{"reason": "bad-handshake"}
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, _ := hub.Registry().Snapshot().Value("daemon_refusals_total", bad)
		if v == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon_refusals_total{reason=bad-handshake} = %v, want 1", v)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDaemonRefusesOverMaxConns: surplus dials are not dropped — they get
// the typed overload frame after a full protocol handshake, so clients
// classify the refusal as a shed, never as evidence.
func TestDaemonRefusesOverMaxConns(t *testing.T) {
	u := newTestUniverse(t, 4)
	s := startDaemon(t, newSeededServer(t, u, "0", core.ServerConfig{}), func(cfg *ServerConfig) {
		cfg.MaxConns = 1
	})

	hold := NewPool(PoolConfig{Addr: s.Addr()})
	defer hold.Close()
	conn, err := hold.Get(context.Background())
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	defer hold.Put(conn)

	over := NewClient(NewPool(PoolConfig{Addr: s.Addr()}), ClientConfig{Timeout: 5 * time.Second})
	defer over.Close()
	_, err = over.RoundTripContext(context.Background(), &wire.StorageAuditRequest{UserID: u.User.ID()})
	if !netsim.IsOverloaded(err) {
		t.Fatalf("surplus conn got %v, want typed overload", err)
	}
	if got := s.RefusedConns(); got != 1 {
		t.Fatalf("RefusedConns = %d, want 1", got)
	}
}

// TestDaemonShedConnsDoNotConsumeCapacity: a shed conn lingers in the
// server's table only long enough to receive its overload frame, and
// must not count toward MaxConns — otherwise a burst of refused dials
// pushes the server into shedding conns it could actually serve until
// the shed conns' read timeouts expire.
func TestDaemonShedConnsDoNotConsumeCapacity(t *testing.T) {
	u := newTestUniverse(t, 6)
	s := startDaemon(t, newSeededServer(t, u, "0", core.ServerConfig{}), func(cfg *ServerConfig) {
		cfg.MaxConns = 1
		// Keep shed conns parked server-side for the whole test window.
		cfg.DrainIdle = 5 * time.Second
	})
	req := &wire.StorageAuditRequest{UserID: u.User.ID()}

	// Occupy the single serving slot with a parked-but-open conn.
	holder := NewClient(NewPool(PoolConfig{Addr: s.Addr()}), ClientConfig{Timeout: 5 * time.Second})
	if _, err := holder.RoundTripContext(context.Background(), req); err != nil {
		t.Fatalf("holder trip: %v", err)
	}

	// A burst of surplus dials: each handshakes, is marked shed at accept
	// time, and sits in the server's conn table awaiting its first request.
	burst := NewPool(PoolConfig{Addr: s.Addr(), MaxIdle: 3})
	defer burst.Close()
	if err := burst.Warm(context.Background(), 3); err != nil {
		t.Fatalf("Warm: %v", err)
	}
	if got := s.RefusedConns(); got != 3 {
		t.Fatalf("RefusedConns = %d, want 3", got)
	}

	// Free the serving slot. The three lingering shed conns must not keep
	// the server refusing a conn it now has capacity for.
	_ = holder.Close()
	fresh := NewClient(NewPool(PoolConfig{Addr: s.Addr()}), ClientConfig{Timeout: 5 * time.Second})
	defer fresh.Close()
	deadline := time.Now().Add(3 * time.Second)
	for {
		_, err := fresh.RoundTripContext(context.Background(), req)
		if err == nil {
			break
		}
		if !netsim.IsOverloaded(err) {
			t.Fatalf("fresh trip after slot freed: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("server kept shedding after its slot freed: shed conns consumed MaxConns capacity")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDaemonGracefulDrain is the tentpole lifecycle guarantee: Shutdown
// overlapping a streamed audit lets every in-flight round finish on its
// grandfathered conns (zero lost rounds, zero false flags), refuses new
// dials with the typed overload frame while draining, and leaves no
// server goroutines behind.
func TestDaemonGracefulDrain(t *testing.T) {
	u := newTestUniverse(t, 5)
	s := startDaemon(t, newSeededServer(t, u, "0", core.ServerConfig{}), func(cfg *ServerConfig) {
		cfg.DrainIdle = 2 * time.Second
	})

	before := runtime.NumGoroutine()

	// Warm both streaming conns so the whole audit is grandfathered when
	// the drain starts (a conn dialed mid-drain is new work and is
	// legitimately shed).
	pool := NewPool(PoolConfig{Addr: s.Addr(), MaxIdle: 2})
	client := NewClient(pool, ClientConfig{Timeout: 10 * time.Second})
	defer client.Close()
	if err := pool.Warm(context.Background(), 2); err != nil {
		t.Fatalf("Warm: %v", err)
	}
	// 30 ms of simulated RTT keeps the audit in flight long enough for the
	// drain to genuinely overlap it.
	latent := netsim.NewLatentClient(client, 30*time.Millisecond)

	type result struct {
		report *core.AuditReport
		err    error
	}
	audit := make(chan result, 1)
	go func() {
		warrant, err := u.Warrant(time.Now().Add(time.Hour))
		if err != nil {
			audit <- result{nil, err}
			return
		}
		report, err := u.StorageAudit(latent, warrant, 11, testAuditConfig(2))
		audit <- result{report, err}
	}()

	time.Sleep(40 * time.Millisecond) // audit is mid-flight
	shutdown := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdown <- s.Shutdown(ctx)
	}()

	// While draining, a fresh dial must be refused with the typed frame.
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	fresh := NewClient(NewPool(PoolConfig{Addr: s.Addr()}), ClientConfig{Timeout: 5 * time.Second})
	_, err := fresh.RoundTripContext(context.Background(), &wire.StorageAuditRequest{UserID: u.User.ID()})
	_ = fresh.Close()
	if err == nil {
		t.Fatal("fresh dial succeeded during drain")
	}

	res := <-audit
	if res.err != nil {
		t.Fatalf("in-flight audit failed during drain: %v", res.err)
	}
	if !res.report.Valid() || falseFlags(res.report) != 0 {
		t.Fatalf("drain produced a false verdict: valid=%t flags=%d", res.report.Valid(), falseFlags(res.report))
	}
	if lost := res.report.NetworkFaultRounds() + res.report.ShedRounds(); lost != 0 {
		t.Fatalf("drain dropped %d in-flight rounds", lost)
	}
	if err := <-shutdown; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// The listener is closed now: dialing must fail outright.
	if _, err := NewPool(PoolConfig{Addr: s.Addr(), DialTimeout: time.Second}).Get(context.Background()); err == nil {
		t.Fatal("dial succeeded after drain completed")
	}

	waitNoServerGoroutines(t, before)
}

// waitNoServerGoroutines polls until the goroutine count returns to the
// baseline, then asserts no daemon.Server frames remain on any stack.
func waitNoServerGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	if strings.Contains(stacks, "daemon.(*Server)") {
		t.Fatalf("leaked daemon server goroutines:\n%s", stacks)
	}
}

// TestDaemonRestartRecoversFromWAL is what a seccloudd restart looks like
// from the agency's side: the listener dies with the process, a new
// core.Server recovers the old one's state from its WAL, Listen binds the
// same address again, and the pooled client's next round trip succeeds —
// after a retryable error for the trip that met the dead process, never
// an accusation.
func TestDaemonRestartRecoversFromWAL(t *testing.T) {
	u := newTestUniverse(t, 7)
	durable := core.ServerConfig{Durability: &core.DurabilityConfig{Dir: t.TempDir(), NoSync: true}}
	first := newSeededServer(t, u, "0", durable)
	s := startDaemon(t, first, nil)
	addr := s.Addr()

	client := NewClient(NewPool(PoolConfig{Addr: addr}), ClientConfig{Timeout: 5 * time.Second})
	defer client.Close()
	req := &wire.StorageAuditRequest{UserID: u.User.ID()}
	if _, err := client.RoundTripContext(context.Background(), req); err != nil {
		t.Fatalf("trip before the crash: %v", err)
	}

	// SIGKILL: the socket goes away with the process and its WAL handle.
	first.Crash()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := client.RoundTripContext(context.Background(), req); !netsim.IsRetryable(err) {
		t.Fatalf("trip against the dead daemon = %v, want a retryable transport error", err)
	}

	recovered, err := u.NewServer("0", durable)
	if err != nil {
		t.Fatalf("recovering from the WAL: %v", err)
	}
	defer recovered.Close()
	if rec := recovered.Recovery(); !rec.Recovered || rec.Users != 1 {
		t.Fatalf("recovery = %+v, want the seeded user back", rec)
	}
	restarted, err := Listen(addr, ServerConfig{Handler: recovered})
	if err != nil {
		t.Fatalf("Listen on %s again: %v", addr, err)
	}
	defer restarted.Close()

	if _, err := client.RoundTripContext(context.Background(), req); err != nil {
		t.Fatalf("trip after the restart: %v", err)
	}
	report := runAudit(t, u, client, 1, testAuditConfig(2))
	if !report.Valid() || falseFlags(report) != 0 || report.EffectiveSampleSize != testSample {
		t.Fatalf("audit of the recovered daemon: valid=%t flags=%d sample=%d", report.Valid(), falseFlags(report), report.EffectiveSampleSize)
	}
	if st := client.Pool().Stats(); st.Dials < 2 {
		t.Fatalf("client never redialed the restarted daemon: %+v", st)
	}
}

// TestClientShedCountsOverloadedFault: a shed seen through a daemon.Client
// lands in rpc_faults_total under the same fault label every other
// transport, and rpc_retries_total, use for it.
func TestClientShedCountsOverloadedFault(t *testing.T) {
	gate := netsim.NewAdmission(netsim.AdmissionConfig{MaxInflight: 1})
	if err := gate.Acquire(context.Background()); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer gate.Release()
	s := startDaemon(t, netsim.HandlerFunc(func(m wire.Message) wire.Message { return m }), func(cfg *ServerConfig) {
		cfg.Admission = gate
	})
	hub := obs.NewHub()
	client := NewClient(NewPool(PoolConfig{Addr: s.Addr()}), ClientConfig{Timeout: 5 * time.Second, Obs: hub})
	defer client.Close()
	if _, err := client.RoundTripContext(context.Background(), &wire.StoreResponse{OK: true}); !netsim.IsOverloaded(err) {
		t.Fatalf("trip through a full gate = %v, want a shed", err)
	}
	shed := map[string]string{"transport": "daemon", "fault": "overloaded"}
	if v, _ := hub.Registry().Snapshot().Value("rpc_faults_total", shed); v != 1 {
		t.Fatalf("rpc_faults_total{transport=daemon,fault=overloaded} = %v, want 1", v)
	}
}
