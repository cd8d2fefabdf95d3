package daemon

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seccloud/internal/core"
	"seccloud/internal/netsim"
	"seccloud/internal/wire"
)

// TestPoolReusesIdleConn: serial round trips ride one conn.
func TestPoolReusesIdleConn(t *testing.T) {
	u := newTestUniverse(t, 20)
	s := startDaemon(t, newSeededServer(t, u, "0", core.ServerConfig{}), nil)

	client := NewClient(NewPool(PoolConfig{Addr: s.Addr()}), ClientConfig{Timeout: 5 * time.Second})
	defer client.Close()
	req := &wire.StorageAuditRequest{UserID: u.User.ID()}
	for i := 0; i < 3; i++ {
		if _, err := client.RoundTrip(req); err != nil {
			t.Fatalf("round trip %d: %v", i, err)
		}
	}
	stats := client.Pool().Stats()
	if stats.Dials != 1 || stats.Reuses != 2 {
		t.Fatalf("serial trips: dials=%d reuses=%d, want 1/2", stats.Dials, stats.Reuses)
	}
}

// TestPoolExpiresIdleConn: a conn parked longer than IdleTimeout is
// evicted, not handed out.
func TestPoolExpiresIdleConn(t *testing.T) {
	u := newTestUniverse(t, 21)
	s := startDaemon(t, newSeededServer(t, u, "0", core.ServerConfig{}), nil)

	pool := NewPool(PoolConfig{Addr: s.Addr(), IdleTimeout: 10 * time.Millisecond})
	defer pool.Close()
	conn, err := pool.Get(context.Background())
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	pool.Put(conn)
	time.Sleep(30 * time.Millisecond)
	conn2, err := pool.Get(context.Background())
	if err != nil {
		t.Fatalf("Get after expiry: %v", err)
	}
	pool.Put(conn2)
	stats := pool.Stats()
	if stats.Evictions != 1 || stats.Dials != 2 || stats.Reuses != 0 {
		t.Fatalf("expiry: %+v, want 1 eviction, 2 dials, 0 reuses", stats)
	}
}

// TestPoolEvictsServerClosedConn: the liveness probe catches a conn the
// server closed while it was parked; the next Get dials fresh instead of
// handing out a dead conn.
func TestPoolEvictsServerClosedConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	var mu sync.Mutex
	var accepted []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			// Answer the hello, as a daemon would, then just hold the conn.
			if _, err := wire.ReadClientHello(c); err == nil {
				_ = wire.WriteServerHello(c, wire.ServerHello{Version: wire.ProtoV2})
			}
			mu.Lock()
			accepted = append(accepted, c)
			mu.Unlock()
		}
	}()

	pool := NewPool(PoolConfig{Addr: ln.Addr().String(), DialTimeout: 5 * time.Second})
	defer pool.Close()
	conn, err := pool.Get(context.Background())
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	pool.Put(conn)

	// Get returns once the dial completes, which can be before the accept
	// goroutine has recorded the conn; closing "every accepted conn" too
	// early closes none and the pooled conn stays live.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		n := len(accepted)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("listener never accepted the pooled conn")
		}
	}
	mu.Lock()
	for _, c := range accepted {
		_ = c.Close() // server-side close while the conn is parked
	}
	mu.Unlock()
	time.Sleep(20 * time.Millisecond) // let the FIN arrive

	conn2, err := pool.Get(context.Background())
	if err != nil {
		t.Fatalf("Get after server close: %v", err)
	}
	pool.Put(conn2)
	stats := pool.Stats()
	if stats.Evictions != 1 || stats.Dials != 2 || stats.Reuses != 0 {
		t.Fatalf("dead-conn probe: %+v, want 1 eviction, 2 dials, 0 reuses", stats)
	}
}

// TestPoolMaxActiveBackpressure: Get blocks at the MaxActive cap and
// fails with a timeout-classified transport error when ctx expires first.
func TestPoolMaxActiveBackpressure(t *testing.T) {
	u := newTestUniverse(t, 22)
	s := startDaemon(t, newSeededServer(t, u, "0", core.ServerConfig{}), nil)

	pool := NewPool(PoolConfig{Addr: s.Addr(), MaxActive: 1})
	defer pool.Close()
	conn, err := pool.Get(context.Background())
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := pool.Get(ctx); !netsim.IsTimeout(err) {
		t.Fatalf("capped Get got %v, want timeout-classified error", err)
	}
	pool.Put(conn)
	if stats := pool.Stats(); stats.Waits != 1 {
		t.Fatalf("Waits = %d, want 1", stats.Waits)
	}
}

// TestPoolDisconnectMidStreamEvictsAndRetriesFresh is the satellite
// contract: a mid-stream disconnect (server drops the conn between
// request and response) evicts the pooled conn, the next trip dials
// fresh, and the breaker Report hook is fed exactly once per round trip
// that reached the network.
func TestPoolDisconnectMidStreamEvictsAndRetriesFresh(t *testing.T) {
	u := newTestUniverse(t, 23)
	s := startDaemon(t, newSeededServer(t, u, "0", core.ServerConfig{}), nil)
	nemesis := NewNemesis(s)

	breaker := core.NewBreaker(core.BreakerConfig{FailThreshold: 3})
	var reports, failures atomic.Int64
	client := NewClient(NewPool(PoolConfig{Addr: s.Addr()}), ClientConfig{
		Timeout: 5 * time.Second,
		Allow:   breaker.Allow,
		Report: func(ok bool) {
			reports.Add(1)
			if !ok {
				failures.Add(1)
			}
			breaker.Report(ok)
		},
	})
	defer client.Close()
	req := &wire.StorageAuditRequest{UserID: u.User.ID()}

	if _, err := client.RoundTrip(req); err != nil {
		t.Fatalf("healthy trip: %v", err)
	}

	// Kill the "process": the server reads the request, then drops the
	// conn without replying — a genuine mid-stream disconnect.
	nemesis.Kill()
	_, err := client.RoundTrip(req)
	if err == nil {
		t.Fatal("trip against killed server succeeded")
	}
	if !netsim.IsRetryable(err) || netsim.IsOverloaded(err) {
		t.Fatalf("mid-stream disconnect classified as %v; want retryable transport error", err)
	}

	nemesis.Revive()
	if _, err := client.RoundTrip(req); err != nil {
		t.Fatalf("trip after revive: %v", err)
	}

	stats := client.Pool().Stats()
	// Trip 1 dials; trip 2 reuses that conn and discards it on the
	// disconnect; trip 3 finds no idle conn and dials fresh.
	if stats.Dials != 2 || stats.Reuses != 1 || stats.Evictions != 1 {
		t.Fatalf("disconnect recovery: %+v, want dials=2 reuses=1 evictions=1", stats)
	}
	if got := reports.Load(); got != 3 {
		t.Fatalf("breaker fed %d times for 3 network round trips, want exactly 3", got)
	}
	if got := failures.Load(); got != 1 {
		t.Fatalf("breaker saw %d failures, want exactly 1 (one disconnect)", got)
	}
	if breaker.Trips() != 0 {
		t.Fatalf("one disconnect tripped the breaker (threshold 3)")
	}
}

// TestClientPreNetworkFailuresDoNotReport: trips that die before any
// network activity — ctx expired on entry, Get timing out at the
// MaxActive semaphore — must not feed the Report hook; a breaker wired
// to Report must never trip from purely client-local backpressure. A
// failed dial, by contrast, did reach the network and reports once.
func TestClientPreNetworkFailuresDoNotReport(t *testing.T) {
	u := newTestUniverse(t, 25)
	s := startDaemon(t, newSeededServer(t, u, "0", core.ServerConfig{}), nil)

	var reports, failures atomic.Int64
	report := func(ok bool) {
		reports.Add(1)
		if !ok {
			failures.Add(1)
		}
	}
	pool := NewPool(PoolConfig{Addr: s.Addr(), MaxActive: 1})
	client := NewClient(pool, ClientConfig{Report: report})
	defer client.Close()
	req := &wire.StorageAuditRequest{UserID: u.User.ID()}

	// ctx already expired on entry: nothing reaches the network.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.RoundTripContext(expired, req); err == nil {
		t.Fatal("trip with expired ctx succeeded")
	}
	if got := reports.Load(); got != 0 {
		t.Fatalf("expired-ctx trip fed Report %d times, want 0", got)
	}

	// Saturate MaxActive, then time out waiting for a slot: client-local
	// backpressure, still no network activity.
	held, err := pool.Get(context.Background())
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	waitCtx, cancelWait := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelWait()
	if _, err := client.RoundTripContext(waitCtx, req); !netsim.IsTimeout(err) {
		t.Fatalf("saturated trip got %v, want timeout-classified error", err)
	}
	if got := reports.Load(); got != 0 {
		t.Fatalf("MaxActive wait fed Report %d times, want 0 — breakers must not see local backpressure", got)
	}
	pool.Put(held)

	// A healthy trip reaches the network: exactly one ok report.
	if _, err := client.RoundTrip(req); err != nil {
		t.Fatalf("healthy trip: %v", err)
	}
	if got, bad := reports.Load(), failures.Load(); got != 1 || bad != 0 {
		t.Fatalf("healthy trip: reports=%d failures=%d, want 1/0", got, bad)
	}

	// A refused dial is network evidence about the peer: one failure report.
	dead := NewClient(NewPool(PoolConfig{Addr: "127.0.0.1:1", DialTimeout: time.Second}), ClientConfig{Report: report})
	defer dead.Close()
	if _, err := dead.RoundTrip(req); err == nil {
		t.Fatal("trip to dead addr succeeded")
	}
	if got, bad := reports.Load(), failures.Load(); got != 2 || bad != 1 {
		t.Fatalf("failed dial: reports=%d failures=%d, want 2/1", got, bad)
	}
}

// TestPoolInjectedDisconnectsOpenBreakerOnce: with the deterministic
// injector disconnecting every trip, the breaker opens after exactly
// FailThreshold reported failures, and breaker-open refusals never feed
// Report (the breaker must not count its own refusals).
func TestPoolInjectedDisconnectsOpenBreakerOnce(t *testing.T) {
	u := newTestUniverse(t, 24)
	s := startDaemon(t, newSeededServer(t, u, "0", core.ServerConfig{}), nil)

	breaker := core.NewBreaker(core.BreakerConfig{FailThreshold: 3, OpenCooldown: 100})
	var reports atomic.Int64
	client := NewClient(NewPool(PoolConfig{Addr: s.Addr()}), ClientConfig{
		Timeout: 5 * time.Second,
		Faults:  netsim.FaultConfig{Seed: 9, DisconnectRate: 1},
		Allow:   breaker.Allow,
		Report: func(ok bool) {
			reports.Add(1)
			breaker.Report(ok)
		},
	})
	defer client.Close()
	req := &wire.StorageAuditRequest{UserID: u.User.ID()}

	for i := 0; i < 3; i++ {
		var fe *netsim.FaultError
		if _, err := client.RoundTrip(req); !errors.As(err, &fe) || fe.Kind != netsim.FaultDisconnect {
			t.Fatalf("trip %d: %v, want injected disconnect", i, err)
		}
	}
	if breaker.Trips() != 1 {
		t.Fatalf("breaker tripped %d times after 3 failures (threshold 3), want 1", breaker.Trips())
	}
	_, err := client.RoundTrip(req)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("trip with open breaker got %v, want ErrBreakerOpen", err)
	}
	if got := reports.Load(); got != 3 {
		t.Fatalf("breaker fed %d times, want 3 — the open-breaker refusal must not report", got)
	}
	// Every disconnected trip consumed and evicted its own fresh conn.
	stats := client.Pool().Stats()
	if stats.Dials != 3 || stats.Evictions != 3 || stats.Idle != 0 {
		t.Fatalf("injected disconnects: %+v, want dials=3 evictions=3 idle=0", stats)
	}
}
