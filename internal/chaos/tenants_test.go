package chaos

import (
	"crypto/rand"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"seccloud/internal/ibc"
	"seccloud/internal/pairing"
)

// runTenants runs an explicit tenant schedule over 2 active epochs and 1
// quiet one, every invariant checked, and also returns the chaos cluster,
// whose tenant fleet carries what the report does not.
func runTenants(t *testing.T, workers int, steps string) (*Report, *cluster) {
	t.Helper()
	cfg := Defaults(7)
	cfg.ActiveEpochs, cfg.QuietEpochs, cfg.Workers = 2, 1, workers
	cfg.Dir = t.TempDir()
	cfg.Schedule = mustParse(t, steps)
	rep, cc, err := run(cfg)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if !rep.OK() || rep.FalseFlags != 0 {
		t.Fatalf("false flags %d, violations:\n  %s", rep.FalseFlags, strings.Join(rep.Violations, "\n  "))
	}
	return rep, cc
}

// TestTenantTrafficBoundedAndHonest: a 50,000-tenant registry whose
// traffic materializes no more tenants than the sessions it drew, drains
// every drawn session through cross-tenant aggregates, and accuses no
// honest tenant.
func TestTenantTrafficBoundedAndHonest(t *testing.T) {
	t.Parallel()
	rep, cc := runTenants(t, 1, "e1:tenants(50000,16)")
	if n := cc.tenants.reg.Len(); n != 50_000 {
		t.Fatalf("registry holds %d tenants, want 50000", n)
	}
	if rep.TenantSessions != 3*16 {
		t.Fatalf("%d sessions drained, want all 48 drawn", rep.TenantSessions)
	}
	if rep.Tenants < 1 || rep.Tenants > rep.TenantSessions {
		t.Fatalf("%d tenants materialized for %d sessions", rep.Tenants, rep.TenantSessions)
	}
	if rep.TenantDetections != 0 || rep.TenantFlushes == 0 {
		t.Fatalf("honest traffic: %d detections, %d flushes", rep.TenantDetections, rep.TenantFlushes)
	}
}

// TestTenantRotConvictedAtItsEpoch: the traffic head's data rots at epoch
// 2; a session of it convicts it that epoch and none does earlier, its
// failing aggregate falls back to per-item blame, and the tenant outcomes
// are byte-identical at 1 and 4 workers.
func TestTenantRotConvictedAtItsEpoch(t *testing.T) {
	t.Parallel()
	var first string
	for _, workers := range []int{1, 4} {
		rep, cc := runTenants(t, workers, "e1:tenants(10000,12) e2:ttamper(0)")
		if !rep.Tampered || !rep.Detected || rep.TenantDetections == 0 {
			t.Fatalf("workers %d: tampered %v detected %v detections %d", workers, rep.Tampered, rep.Detected, rep.TenantDetections)
		}
		convicted := 0
		for ep, sessions := range cc.tenants.outcomes {
			for _, o := range sessions {
				if !o.Valid && ep < 2 {
					t.Fatalf("workers %d: epoch %d accused tenant %d before its rot", workers, ep, o.Rank)
				}
				if !o.Valid && ep == 2 {
					convicted++
				}
			}
		}
		if convicted == 0 {
			t.Fatalf("workers %d: no epoch-2 session convicted the rotted tenant", workers)
		}
		if cc.tenants.fallbacks == 0 {
			t.Fatalf("workers %d: no aggregate fell back to per-item blame", workers)
		}
		rep.Elapsed = 0
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%s\n%+v", b, cc.tenants.outcomes)
		if first == "" {
			first = got
		} else if got != first {
			t.Fatalf("tenant outcomes differ between 1 and %d workers:\n%s\n%s", workers, first, got)
		}
	}
}

// TestTenantsUnderWeather: tenant traffic through a dealt quorum with a
// killed holder, a lossy link, a killed server, a crash and a restart:
// the weather keeps some tenants cold and loses some rounds, the tenant
// rotted on the killed server is convicted once it is back, and nothing
// else is accused.
func TestTenantsUnderWeather(t *testing.T) {
	t.Parallel()
	rep, _ := runTenants(t, 1, "e1:tenants(5000,16) e1:quorum(2,3) e1:hkill(1) "+
		"e1:faults(0,drop=0.3,corrupt=0.05) e1:crash(2,after-log) e2:kill(1) e2:ttamper(1) e2:restart(0) "+
		"e3:revive(1) e3:calm(0)")
	if rep.OpsFailed == 0 || rep.TenantSessions == 3*16 {
		t.Fatalf("the weather never bit: %d failed ops, %d of 48 sessions drained", rep.OpsFailed, rep.TenantSessions)
	}
	if rep.TenantDetections == 0 || !rep.Detected {
		t.Fatalf("rotted tenant never convicted: %d detections", rep.TenantDetections)
	}
}

// tenantCluster builds a lone chaos cluster, without the reference
// replay, for the tests that reach into it between epochs.
func tenantCluster(t *testing.T, steps string) (*cluster, Schedule) {
	t.Helper()
	sio, err := ibc.Setup(pairing.InsecureTest256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Defaults(7)
	cfg.ActiveEpochs, cfg.QuietEpochs, cfg.SIO = 1, 1, sio
	sched := mustParse(t, steps)
	cc, err := newCluster(cfg, t.TempDir(), false, sched)
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.runEpoch(1, sched); err != nil {
		t.Fatal(err)
	}
	if !cc.tenants.warm[0] {
		t.Fatal("epoch 1 never touched the traffic head")
	}
	return cc, sched
}

// TestTenantUnledgeredRotIsFalseFlag: rot planted in a tenant's blocks
// through the server backdoor, behind the ledger's back, makes its
// sessions accuse a tenant the ledger calls honest — a false flag the
// engine must report.
func TestTenantUnledgeredRotIsFalseFlag(t *testing.T) {
	t.Parallel()
	cc, sched := tenantCluster(t, "e1:tenants(1000,16)")
	if err := cc.rotTenant(cc.server(0), 0); err != nil {
		t.Fatal(err)
	}
	if err := cc.runEpoch(2, sched); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(cc.violations.list, "\n"), "inv=false-flag epoch 2: session of tenant 0 ") {
		t.Fatalf("no false flag for the unledgered rot:\n  %s", strings.Join(cc.violations.list, "\n  "))
	}
}

// TestTenantMissedRotIsCaught: a tenant the ledger calls rotted whose
// blocks are intact passes its sessions, which the engine reports as a
// missed conviction: every block of a rotted tenant is rotten, so no
// completed session may let it through.
func TestTenantMissedRotIsCaught(t *testing.T) {
	t.Parallel()
	cc, sched := tenantCluster(t, "e1:tenants(1000,16)")
	cc.led.tenantRot[0] = true
	if err := cc.runEpoch(2, sched); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(cc.violations.list, "\n"), "inv=tenant-missed epoch 2: session of rotted tenant 0 ") {
		t.Fatalf("no tenant-missed violation:\n  %s", strings.Join(cc.violations.list, "\n  "))
	}
}
