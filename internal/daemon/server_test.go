package daemon

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"seccloud/internal/core"
	"seccloud/internal/netsim"
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

// TestDaemonServesLegacyV1Client is the back-compat direction the wire
// format guarantees: a pre-handshake bare-frame client (netsim.TCPClient)
// audits a daemon server successfully.
func TestDaemonServesLegacyV1Client(t *testing.T) {
	u := newTestUniverse(t, 3)
	s := startDaemon(t, newSeededServer(t, u, "0", core.ServerConfig{}), nil)

	client, err := netsim.DialTCP(s.Addr())
	if err != nil {
		t.Fatalf("DialTCP: %v", err)
	}
	defer client.Close()

	report := runAudit(t, u, client, 7, testAuditConfig(1))
	if !report.Valid() || falseFlags(report) != 0 {
		t.Fatalf("legacy v1 client audit failed: valid=%t flags=%d", report.Valid(), falseFlags(report))
	}
}

// TestDaemonRefusesOverMaxConns: surplus dials are not dropped — they get
// the typed overload frame after a full protocol handshake, so both v1
// and v2 clients classify the refusal as a shed, never as evidence.
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
	_, err = over.RoundTrip(&wire.StorageAuditRequest{UserID: u.User.ID()})
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
	if _, err := holder.RoundTrip(req); err != nil {
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
		_, err := fresh.RoundTrip(req)
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
	_, err := fresh.RoundTrip(&wire.StorageAuditRequest{UserID: u.User.ID()})
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
