package daemon

import (
	"context"
	"testing"
	"time"

	"seccloud/internal/core"
)

func newTestAuditor(t *testing.T, u *Universe, tr Transport, servers []string, mutate func(*AuditorConfig)) *Auditor {
	t.Helper()
	cfg := AuditorConfig{
		Universe:    u,
		Transport:   tr,
		Servers:     servers,
		DatasetSize: testBlocks,
		SampleSize:  testSample,
		Rounds:      testRounds,
		Stream:      2,
		Seed:        100,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	a, err := NewAuditor(cfg)
	if err != nil {
		t.Fatalf("NewAuditor: %v", err)
	}
	return a
}

// TestAuditorSweepsFleet: scheduled sweeps audit every server and report
// per-server outcomes through emit.
func TestAuditorSweepsFleet(t *testing.T) {
	u := newTestUniverse(t, 60)
	sim := simTransport{}
	for _, name := range []string{"a", "b"} {
		sim[name] = newSeededServer(t, u, "0", core.ServerConfig{})
	}

	auditor := newTestAuditor(t, u, sim, []string{"a", "b"}, nil)
	var outcomes []AuditOutcome
	if err := auditor.Run(context.Background(), 2, func(out AuditOutcome) {
		outcomes = append(outcomes, out)
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(outcomes) != 4 {
		t.Fatalf("2 sweeps × 2 servers emitted %d outcomes, want 4", len(outcomes))
	}
	for _, out := range outcomes {
		if out.Err != nil || !out.Valid || out.FalseFlags != 0 {
			t.Fatalf("outcome %+v: want valid, zero false flags", out)
		}
	}
	if outcomes[0].Sweep != 0 || outcomes[3].Sweep != 1 {
		t.Fatalf("sweep numbering off: first=%d last=%d", outcomes[0].Sweep, outcomes[3].Sweep)
	}
}

// TestAuditorOverDaemonSocket: the same auditor loop drives a real
// daemon socket through TCPTransport.
func TestAuditorOverDaemonSocket(t *testing.T) {
	u := newTestUniverse(t, 61)
	s := startDaemon(t, newSeededServer(t, u, "0", core.ServerConfig{}), nil)

	tr := NewTCPTransport(TCPTransportConfig{Timeout: 10 * time.Second})
	defer tr.Close()
	auditor := newTestAuditor(t, u, tr, []string{s.Addr()}, nil)
	outcomes, err := auditor.RunOnce(context.Background())
	if err != nil {
		t.Fatalf("RunOnce: %v", err)
	}
	if len(outcomes) != 1 || !outcomes[0].Valid || outcomes[0].FalseFlags != 0 {
		t.Fatalf("daemon sweep outcomes: %+v", outcomes)
	}
}

// TestAuditorDrain: Drain stops new sweeps (Run returns nil — a clean
// drain, not an error) and RunOnce refuses afterwards.
func TestAuditorDrain(t *testing.T) {
	u := newTestUniverse(t, 62)
	sim := simTransport{"a": newSeededServer(t, u, "0", core.ServerConfig{})}

	auditor := newTestAuditor(t, u, sim, []string{"a"}, func(cfg *AuditorConfig) {
		cfg.Interval = 10 * time.Millisecond
	})

	first := make(chan struct{}, 1)
	done := make(chan error, 1)
	go func() {
		done <- auditor.Run(context.Background(), 0, func(AuditOutcome) {
			select {
			case first <- struct{}{}:
			default:
			}
		})
	}()
	<-first
	auditor.Drain()
	if err := <-done; err != nil {
		t.Fatalf("drained Run returned %v, want nil (clean drain)", err)
	}
	if _, err := auditor.RunOnce(context.Background()); err != context.Canceled {
		t.Fatalf("RunOnce after drain: %v, want context.Canceled", err)
	}
}
