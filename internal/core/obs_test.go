package core

import (
	mrand "math/rand"
	"testing"
	"time"

	"seccloud/internal/netsim"
	"seccloud/internal/obs"
	"seccloud/internal/transport"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

// TestAuditJobObs checks that one instrumented computation audit records
// the per-round verdict counters, the overall result, the duration
// histogram, and a complete span tree (audit root → round → check.item),
// plus the evidence-signing span.
func TestAuditJobObs(t *testing.T) {
	sys := newSystem(t, nil)
	hub := obs.NewHub()
	sys.agency.WithObs(hub)

	gen := workload.NewGenerator(11)
	ds := gen.GenDataset(sys.user.ID(), 16, 8)
	sys.storeDataset(t, ds)
	job, err := gen.GenJob(sys.user.ID(), workload.JobConfig{NumSubTasks: 12, DatasetSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	d := sys.runJob(t, "job-obs", job)

	report, err := sys.agency.AuditJob(sys.clients[0], d, AuditConfig{
		SampleSize: 6,
		Rng:        mrand.New(mrand.NewSource(7)),
		Rounds:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Valid() {
		t.Fatalf("honest audit failed: %+v", report.Failures)
	}
	if _, err := sys.agency.IssueEvidence(d, report); err != nil {
		t.Fatal(err)
	}

	s := hub.Registry().Snapshot()
	if v, _ := s.Value("audit_rounds_total", map[string]string{"type": "job", "verdict": "ok"}); v != 3 {
		t.Fatalf("audit_rounds_total{job,ok} = %v, want 3", v)
	}
	if v, _ := s.Value("audits_total", map[string]string{"type": "job", "result": "valid"}); v != 1 {
		t.Fatalf("audits_total{job,valid} = %v, want 1", v)
	}
	found := false
	for _, hp := range s.Histograms {
		if hp.Name == "audit_seconds" && hp.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("audit_seconds histogram missing or miscounted")
	}

	// Span tree: one audit.job root, 3 round children, 6 check.item
	// grandchildren, and a separate evidence.sign root.
	recs := hub.Tracer().Records()
	byName := map[string]int{}
	var rootID uint64
	for _, r := range recs {
		byName[r.Name]++
		if r.Name == "audit.job" {
			rootID = r.Span
			if r.Parent != 0 {
				t.Fatalf("audit.job span has parent %d", r.Parent)
			}
		}
	}
	if byName["audit.job"] != 1 || byName["round"] != 3 || byName["check.item"] != 6 || byName["evidence.sign"] != 1 {
		t.Fatalf("span counts = %v", byName)
	}
	for _, r := range recs {
		if r.Name == "round" && r.Parent != rootID {
			t.Fatalf("round span parented to %d, want %d", r.Parent, rootID)
		}
		if r.Name != "evidence.sign" && r.Trace != rootID {
			t.Fatalf("%s span in trace %d, want %d", r.Name, r.Trace, rootID)
		}
	}
}

// TestAuditObsNilHub pins the zero-config path: an agency without WithObs
// (or with a nil hub) audits normally and records nothing.
func TestAuditObsNilHub(t *testing.T) {
	sys := newSystem(t, nil)
	sys.agency.WithObs(nil)
	gen := workload.NewGenerator(12)
	ds := gen.GenDataset(sys.user.ID(), 8, 4)
	sys.storeDataset(t, ds)
	warrant, err := sys.user.Delegate(sys.agency.ID(), "", time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	report, err := sys.agency.AuditStorage(sys.clients[0], sys.user.ID(), warrant, AuditConfig{
		DatasetSize: 8, SampleSize: 4, Rng: mrand.New(mrand.NewSource(3)), Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Valid() {
		t.Fatalf("audit failed: %+v", report.Failures)
	}
}

// TestObserveFleet checks the pull-based breaker gauges: a tripped
// breaker shows up as state=open with one trip at scrape time.
func TestObserveFleet(t *testing.T) {
	hub := obs.NewHub()
	echo := transport.HandlerFunc(func(m wire.Message) wire.Message { return m })
	clients := []transport.Client{
		netsim.NewLoopback(echo, netsim.LinkConfig{}),
		netsim.NewLoopback(echo, netsim.LinkConfig{}),
	}
	f, err := NewFleet(clients, nil, BreakerConfig{FailThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	ObserveFleet(hub, f)

	b := f.Health().Breaker(1)
	b.Report(false)
	b.Report(false) // trips at threshold 2

	s := hub.Registry().Snapshot()
	if v, _ := s.Value("fleet_breaker_state", map[string]string{"replica": "0"}); v != float64(StateClosed) {
		t.Fatalf("replica 0 state = %v, want closed (%d)", v, StateClosed)
	}
	if v, _ := s.Value("fleet_breaker_state", map[string]string{"replica": "1"}); v != float64(StateOpen) {
		t.Fatalf("replica 1 state = %v, want open (%d)", v, StateOpen)
	}
	if v, _ := s.Value("fleet_breaker_trips", map[string]string{"replica": "1"}); v != 1 {
		t.Fatalf("replica 1 trips = %v, want 1", v)
	}

	// Nil safety in both directions.
	ObserveFleet(nil, f)
	ObserveFleet(hub, nil)
}
