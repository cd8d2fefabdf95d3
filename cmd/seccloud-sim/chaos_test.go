package main

import (
	"testing"

	"seccloud/internal/obs"
)

// TestChaosHubMatchesReport: chaos mode hands the -admin hub to its runs,
// and the hub's counters agree with the run's report on fleet audits,
// job audits, job detections, false flags, quorum recoveries, Byzantine
// partials and tenant sessions, detections and flushes, and its
// registered-tenant gauge with the schedule's population. A forging
// holder in the tamper epoch is asked again by the per-item fallback of
// every failing audit, so the report must count forged partials, not
// forging holders.
func TestChaosHubMatchesReport(t *testing.T) {
	hub := obs.NewHub()
	reps, _ := runChaos(chaosRunFlags{
		Seed: 7, Runs: 1, Hub: hub,
		Steps: "e1:quorum(2,3) e1:tenants(50000,8) e1:plant(false-flag,1) e2:cheat(0,csc=0) e2:faults(2,drop=0.2,corrupt=0) " +
			"e3:tamper(0,2) e3:ttamper(0) e3:hbyz(1) e4:hkill(2)",
	})
	if len(reps) != 1 {
		t.Fatalf("got %d reports, want 1", len(reps))
	}
	rep := reps[0]
	s := hub.Registry().Snapshot()
	for _, c := range []struct {
		name   string
		labels map[string]string
		want   int
	}{
		{"audits_total", map[string]string{"type": "fleet"}, rep.Audits - rep.AuditErrors},
		{"audits_total", map[string]string{"type": "job"}, rep.JobAudits},
		{"audits_total", map[string]string{"type": "job", "result": "invalid"}, rep.JobDetections},
		{"chaos_violations_total", map[string]string{"invariant": "false-flag"}, rep.FalseFlags},
		{"threshold_quorum_recoveries_total", nil, rep.QuorumRecoveries},
		{"threshold_byzantine_partials_total", nil, rep.ByzantinePartials},
		{"tenant_audit_sessions_total", nil, rep.TenantSessions},
		{"tenant_audit_sessions_total", map[string]string{"result": "invalid"}, rep.TenantDetections},
		{"tenant_sig_flushes_total", nil, rep.TenantFlushes},
		{"tenants_registered", nil, 50_000},
	} {
		if got := int(s.Total(c.name, c.labels)); got != c.want || got == 0 {
			t.Errorf("%s%v = %d, report says %d (want equal and nonzero)", c.name, c.labels, got, c.want)
		}
	}
}
