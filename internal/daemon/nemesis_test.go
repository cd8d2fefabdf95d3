package daemon

import (
	"math/rand"
	"testing"
	"time"

	"seccloud/internal/core"
	"seccloud/internal/netsim"
	"seccloud/internal/transport"
)

// downable puts a netsim.DownableHandler around the handler in s's slot:
// the kill switch for the process behind the socket. While it is down,
// every request drops its conn without a reply, which on the wire is a
// crashed seccloudd at a live address.
func downable(s *Server) *netsim.DownableHandler {
	d := netsim.NewDownableHandler(s.Slot().Current())
	s.Slot().Swap(d)
	return d
}

// flap runs a seeded kill/revive schedule on d: flips alternating down
// and up phases whose lengths are drawn from seed in [min, max). It
// blocks until the schedule completes and always leaves d up, so
// invariants can be checked once the world is repaired.
func flap(d *netsim.DownableHandler, seed int64, flips int, min, max time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < flips; i++ {
		d.SetDown(i%2 == 0)
		time.Sleep(min + time.Duration(rng.Int63n(int64(max-min))))
	}
	d.SetDown(false)
}

// TestNemesisKillRevive: killing the handler behind a live socket drops
// requests like a crashed process; reviving restores service on the same
// address without redialing side effects.
func TestNemesisKillRevive(t *testing.T) {
	u := newTestUniverse(t, 50)
	s := startDaemon(t, newSeededServer(t, u, "0", core.ServerConfig{}), nil)
	server := downable(s)

	tr := NewTCPTransport(TCPTransportConfig{Timeout: 5 * time.Second})
	defer tr.Close()
	client, err := tr.Dial(s.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}

	report := runAudit(t, u, client, 3, testAuditConfig(1))
	if !report.Valid() || report.EffectiveSampleSize != testSample {
		t.Fatalf("pre-kill audit: valid=%t effective=%d", report.Valid(), report.EffectiveSampleSize)
	}

	server.SetDown(true)
	dead := runAudit(t, u, client, 4, testAuditConfig(1))
	if dead.EffectiveSampleSize != 0 {
		t.Fatalf("killed server still answered %d positions", dead.EffectiveSampleSize)
	}
	if falseFlags(dead) != 0 {
		t.Fatalf("killed server produced %d accusatory rounds — crashes must never read as cheating", falseFlags(dead))
	}

	server.SetDown(false)
	revived := runAudit(t, u, client, 5, testAuditConfig(1))
	if !revived.Valid() || revived.EffectiveSampleSize != testSample {
		t.Fatalf("post-revive audit: valid=%t effective=%d", revived.Valid(), revived.EffectiveSampleSize)
	}
}

// TestNemesisScheduleDuringStreamedAudit runs a seeded kill/revive flap
// schedule under a streamed, retrying audit over real sockets. The
// invariant engine's rule, restated for the daemon: whatever the chaos
// schedule does, an honest server is never flagged.
func TestNemesisScheduleDuringStreamedAudit(t *testing.T) {
	u := newTestUniverse(t, 51)
	s := startDaemon(t, newSeededServer(t, u, "0", core.ServerConfig{}), nil)
	server := downable(s)

	tr := NewTCPTransport(TCPTransportConfig{Timeout: 2 * time.Second})
	defer tr.Close()
	client, err := tr.Dial(s.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		flap(server, 1234, 6, 10*time.Millisecond, 40*time.Millisecond)
	}()

	retry := transport.NewRetrier(7)
	retry.MaxAttempts = 5
	retry.BaseDelay = 20 * time.Millisecond
	retry.MaxDelay = 100 * time.Millisecond
	cfg := testAuditConfig(2)
	cfg.Retry = retry
	cfg.RoundTimeout = time.Second

	report := runAudit(t, u, client, 9, cfg)
	<-done

	if !report.Valid() {
		t.Fatalf("honest server flagged under chaos schedule: %+v", report.Failures)
	}
	if falseFlags(report) != 0 {
		t.Fatalf("chaos schedule produced %d accusatory rounds", falseFlags(report))
	}
	if server.Down() {
		t.Fatal("schedule ended with the server dead; must always end revived")
	}

	// Post-quiescence: full service on the same socket.
	after := runAudit(t, u, client, 10, testAuditConfig(2))
	if !after.Valid() || after.EffectiveSampleSize != testSample {
		t.Fatalf("post-chaos audit: valid=%t effective=%d", after.Valid(), after.EffectiveSampleSize)
	}
}
