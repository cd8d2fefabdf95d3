package daemon

import (
	"context"
	"errors"
	"net"
	"sync"
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
		if _, err := client.RoundTripContext(context.Background(), req); err != nil {
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
// fresh, and the fleet breaker the client feeds counts the one failure
// without tripping.
func TestPoolDisconnectMidStreamEvictsAndRetriesFresh(t *testing.T) {
	u := newTestUniverse(t, 23)
	s := startDaemon(t, newSeededServer(t, u, "0", core.ServerConfig{}), nil)
	nemesis := NewNemesis(s)

	client := NewClient(NewPool(PoolConfig{Addr: s.Addr()}), ClientConfig{Timeout: 5 * time.Second})
	defer client.Close()
	fleet, breaker := fleetOf(t, client, core.BreakerConfig{FailThreshold: 3})
	ctx := context.Background()
	req := &wire.StorageAuditRequest{UserID: u.User.ID()}

	if _, err := fleet.RoundTripContext(ctx, req); err != nil {
		t.Fatalf("healthy trip: %v", err)
	}

	// Kill the "process": the server reads the request, then drops the
	// conn without replying — a genuine mid-stream disconnect.
	nemesis.Kill()
	_, err := fleet.RoundTripContext(ctx, req)
	if err == nil {
		t.Fatal("trip against killed server succeeded")
	}
	if !netsim.IsRetryable(err) || netsim.IsOverloaded(err) {
		t.Fatalf("mid-stream disconnect classified as %v; want retryable transport error", err)
	}

	nemesis.Revive()
	if _, err := fleet.RoundTripContext(ctx, req); err != nil {
		t.Fatalf("trip after revive: %v", err)
	}

	stats := client.Pool().Stats()
	// Trip 1 dials; trip 2 reuses that conn and discards it on the
	// disconnect; trip 3 finds no idle conn and dials fresh.
	if stats.Dials != 2 || stats.Reuses != 1 || stats.Evictions != 1 {
		t.Fatalf("disconnect recovery: %+v, want dials=2 reuses=1 evictions=1", stats)
	}
	if breaker.Trips() != 0 || breaker.State() != core.StateClosed {
		t.Fatalf("one disconnect tripped the breaker (threshold 3): state=%v trips=%d", breaker.State(), breaker.Trips())
	}
}

// TestPoolInjectedDisconnectsOpenBreakerOnce: with the deterministic
// injector disconnecting every trip, each trip consumes and evicts its
// own fresh conn, and the fleet breaker fed by the client opens after
// exactly FailThreshold failures.
func TestPoolInjectedDisconnectsOpenBreakerOnce(t *testing.T) {
	u := newTestUniverse(t, 24)
	s := startDaemon(t, newSeededServer(t, u, "0", core.ServerConfig{}), nil)

	client := NewClient(NewPool(PoolConfig{Addr: s.Addr()}), ClientConfig{
		Timeout: 5 * time.Second,
		Faults:  netsim.FaultConfig{Seed: 9, DisconnectRate: 1},
	})
	defer client.Close()
	fleet, breaker := fleetOf(t, client, core.BreakerConfig{FailThreshold: 3, OpenCooldown: 100})
	req := &wire.StorageAuditRequest{UserID: u.User.ID()}

	for i := 0; i < 3; i++ {
		var fe *netsim.FaultError
		if _, err := fleet.RoundTripContext(context.Background(), req); !errors.As(err, &fe) || fe.Kind != netsim.FaultDisconnect {
			t.Fatalf("trip %d: %v, want injected disconnect", i, err)
		}
	}
	if breaker.Trips() != 1 || breaker.State() != core.StateOpen {
		t.Fatalf("after 3 failures (threshold 3): state=%v trips=%d, want open/1", breaker.State(), breaker.Trips())
	}
	stats := client.Pool().Stats()
	if stats.Dials != 3 || stats.Evictions != 3 || stats.Idle != 0 {
		t.Fatalf("injected disconnects: %+v, want dials=3 evictions=3 idle=0", stats)
	}
}

// fleetOf puts client in a one-replica fleet and returns the fleet's
// breaker-instrumented link to it and that replica's breaker.
func fleetOf(t *testing.T, client netsim.Client, cfg core.BreakerConfig) (netsim.Client, *core.Breaker) {
	t.Helper()
	f, err := core.NewFleet([]netsim.Client{client}, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f.Client(0), f.Health().Breaker(0)
}
