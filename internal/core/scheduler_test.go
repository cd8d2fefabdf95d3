package core

import (
	"crypto/rand"
	"fmt"
	"io"
	mrand "math/rand"
	"strings"
	"testing"
	"time"

	"seccloud/internal/funcs"
	"seccloud/internal/netsim"
	"seccloud/internal/obs"
	"seccloud/internal/transport"
	"seccloud/internal/workload"
)

// Accusations counts sessions with at least one failure.
func (m *MultiTenantReport) Accusations() int {
	n := 0
	for i := range m.Verdicts {
		if !m.Verdicts[i].Report.Valid() {
			n++
		}
	}
	return n
}

// tenantFixture is a multi-tenant deployment: one server, one DA, and n
// onboarded tenants each with a stored dataset and a computed job.
type tenantFixture struct {
	sys    *system
	sched  *AuditScheduler
	ids    []string
	jobIDs []string
}

func newTenantFixture(t testing.TB, tenants, blocks int, cfg SchedulerConfig) *tenantFixture {
	t.Helper()
	return newTenantFixtureOn(t, newSystem(t, nil), tenants, blocks, cfg,
		func(int) io.Reader { return rand.Reader })
}

// newTenantFixtureOn is newTenantFixture on server 0 of an existing
// system; userRand supplies tenant i's signing randomness.
func newTenantFixtureOn(
	t testing.TB, sys *system, tenants, blocks int, cfg SchedulerConfig, userRand func(i int) io.Reader,
) *tenantFixture {
	t.Helper()
	sp := sys.sio.Params()
	reg := NewTenantRegistry(8)
	sched := NewAuditScheduler(sys.agency, reg, cfg)
	f := &tenantFixture{sys: sys, sched: sched}
	for i := 0; i < tenants; i++ {
		id := fmt.Sprintf("user:tenant-%d", i)
		key, err := sys.sio.Extract(id)
		if err != nil {
			t.Fatal(err)
		}
		usr := NewUser(sp, key, userRand(i))
		ds := workload.NewGenerator(int64(1000+i)).GenDataset(id, blocks, 4)
		req, err := usr.PrepareStore(ds, sys.servers[0].ID(), sys.agency.ID())
		if err != nil {
			t.Fatal(err)
		}
		if err := usr.Store(sys.clients[0], req); err != nil {
			t.Fatal(err)
		}
		jobID := fmt.Sprintf("job-%d", i)
		job := workload.UniformJob(id, funcs.Spec{Name: "sum"}, blocks)
		resp, err := usr.SubmitJob(sys.clients[0], jobID, job)
		if err != nil {
			t.Fatal(err)
		}
		warrant, err := usr.Delegate(sys.agency.ID(), jobID, time.Now().Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		d := &JobDelegation{
			UserID:   id,
			ServerID: resp.ServerID,
			JobID:    jobID,
			Tasks:    TasksToWire(job),
			Results:  resp.Results,
			Root:     resp.Root,
			RootSig:  resp.RootSig,
			Warrant:  warrant,
		}
		if err := sched.Onboard(sys.clients[0], d, 0); err != nil {
			t.Fatalf("Onboard(%s): %v", id, err)
		}
		f.ids = append(f.ids, id)
		f.jobIDs = append(f.jobIDs, jobID)
	}
	return f
}

// reattach points one tenant's sessions at a different link.
func (f *tenantFixture) reattach(t testing.TB, id string, client transport.Client) {
	t.Helper()
	_, d, _, err := f.sched.Registry().Session(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.sched.Registry().attach(id, client, d, 0); err != nil {
		t.Fatal(err)
	}
}

func TestTenantRegistry(t *testing.T) {
	r := NewTenantRegistry(5) // rounds up to 8
	if r.Shards() != 8 {
		t.Fatalf("Shards() = %d, want 8", r.Shards())
	}
	for i := 0; i < 1000; i++ {
		if _, fresh := r.Register(fmt.Sprintf("user:%d", i), 16, 4); !fresh {
			t.Fatalf("duplicate registration reported for fresh id %d", i)
		}
	}
	if r.Len() != 1000 {
		t.Fatalf("Len() = %d, want 1000", r.Len())
	}
	// Idempotent re-registration keeps the original tenant.
	tn, fresh := r.Register("user:7", 99, 99)
	if fresh || tn.DatasetSize != 16 || tn.SampleBudget != 4 {
		t.Fatalf("re-registration mutated tenant: %+v fresh=%v", tn, fresh)
	}
	if _, ok := r.Lookup("user:999"); !ok {
		t.Fatal("registered tenant not found")
	}
	if _, ok := r.Lookup("user:nope"); ok {
		t.Fatal("unregistered tenant found")
	}
	// Sessions for registered-but-never-onboarded tenants are caller errors.
	if _, _, _, err := r.Session("user:7"); err == nil {
		t.Fatal("Session succeeded for unmaterialized tenant")
	}
	if _, _, _, err := r.Session("user:nope"); err == nil {
		t.Fatal("Session succeeded for unregistered tenant")
	}
	if tn.Materialized() {
		t.Fatal("unattached tenant reports materialized")
	}
}

func TestSchedulerCrossTenantHonestDrain(t *testing.T) {
	const tenants = 5
	f := newTenantFixture(t, tenants, 8, SchedulerConfig{
		SampleSize: 3,
		Rng:        mrand.New(mrand.NewSource(42)),
	})
	for round := 0; round < 2; round++ { // long-lived: drain twice
		for _, id := range f.ids {
			f.sched.Enqueue(id)
		}
		if got := f.sched.Pending(); got != tenants {
			t.Fatalf("Pending() = %d, want %d", got, tenants)
		}
		// Count pairings across the whole drain: the deferred aggregate
		// means ONE Miller loop for every tenant's signature checks. The
		// counters are shared by every party in the deployment, so the
		// ceiling also admits the server's own warrant check (2 Miller
		// loops per session).
		counters := f.sys.sio.Params().G1().Counters()
		before := counters.Snapshot()
		rep, err := f.sched.Drain()
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
		if got, wantMax := counters.Snapshot().Sub(before).MillerLoops, int64(tenants*2+1); got > wantMax {
			t.Fatalf("drain used %d Miller loops, want ≤ %d", got, wantMax)
		}
		if !rep.Valid() || rep.Accusations() != 0 {
			t.Fatalf("honest drain invalid: %s", rep.Fingerprint())
		}
		if len(rep.Verdicts) != tenants {
			t.Fatalf("%d verdicts, want %d", len(rep.Verdicts), tenants)
		}
		if rep.BatchedSigItems != tenants*3 {
			t.Fatalf("BatchedSigItems = %d, want %d", rep.BatchedSigItems, tenants*3)
		}
		if rep.Flushes != 1 {
			t.Fatalf("Flushes = %d, want 1 (cross-tenant, no limit)", rep.Flushes)
		}
		if rep.BlameFallbacks != 0 {
			t.Fatalf("BlameFallbacks = %d on an honest drain", rep.BlameFallbacks)
		}
		for i, v := range rep.Verdicts {
			if v.UserID != f.ids[i] || v.JobID != f.jobIDs[i] {
				t.Fatalf("verdict %d is %s/%s, want %s/%s", i, v.UserID, v.JobID, f.ids[i], f.jobIDs[i])
			}
			if v.Report.EffectiveSampleSize != 3 {
				t.Fatalf("verdict %d effective sample %d, want 3", i, v.Report.EffectiveSampleSize)
			}
		}
	}
	if f.sched.Pending() != 0 {
		t.Fatalf("queue not drained: %d pending", f.sched.Pending())
	}
}

func TestSchedulerFlushLimitChunks(t *testing.T) {
	const tenants = 4
	f := newTenantFixture(t, tenants, 8, SchedulerConfig{
		FlushLimit: 3, // 4 tenants × 2 sigs = 8 items → 3 flushes
		SampleSize: 2,
		Rng:        mrand.New(mrand.NewSource(11)),
	})
	for _, id := range f.ids {
		f.sched.Enqueue(id)
	}
	rep, err := f.sched.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Valid() {
		t.Fatalf("drain invalid: %s", rep.Fingerprint())
	}
	if rep.Flushes != 3 {
		t.Fatalf("Flushes = %d, want 3 (8 items / limit 3)", rep.Flushes)
	}
}

// TestSchedulerDeterministicAcrossWorkers locks the determinism contract:
// the same seed and enqueue order produce byte-identical fingerprints at
// every worker count.
func TestSchedulerDeterministicAcrossWorkers(t *testing.T) {
	const tenants = 6
	fingerprints := make([]string, 0, 3)
	var f *tenantFixture
	for _, workers := range []int{1, 4, 16} {
		cfg := SchedulerConfig{
			Workers:    workers,
			FlushLimit: 5,
			SampleSize: 3,
			Rng:        mrand.New(mrand.NewSource(77)),
		}
		if f == nil {
			f = newTenantFixture(t, tenants, 8, cfg)
		} else {
			f.sched = NewAuditScheduler(f.sys.agency, f.sched.Registry(), cfg)
		}
		for _, id := range f.ids {
			f.sched.Enqueue(id)
		}
		rep, err := f.sched.Drain()
		if err != nil {
			t.Fatalf("Drain(workers=%d): %v", workers, err)
		}
		fingerprints = append(fingerprints, rep.Fingerprint())
	}
	for i := 1; i < len(fingerprints); i++ {
		if fingerprints[i] != fingerprints[0] {
			t.Fatalf("fingerprint differs between worker counts:\n--- workers[0]\n%s\n--- workers[%d]\n%s",
				fingerprints[0], i, fingerprints[i])
		}
	}
}

// TestCrossUserBlameAttribution is the satellite regression: an aggregate
// over items from ≥3 tenants where exactly one tenant's data was tampered
// must fall back to per-item verification and accuse ONLY that tenant's
// job and indices; honest tenants' evidence stays clean.
func TestCrossUserBlameAttribution(t *testing.T) {
	const tenants = 4
	const blocks = 6
	f := newTenantFixture(t, tenants, blocks, SchedulerConfig{
		SampleSize: 4,
		Rng:        mrand.New(mrand.NewSource(5)),
	})
	// Tamper every stored block of exactly one tenant AFTER compute time:
	// the stored signatures no longer match the data the server will serve.
	cheater := 2
	for pos := 0; pos < blocks; pos++ {
		if _, ok := f.sys.servers[0].TamperBlock(f.ids[cheater], uint64(pos), []byte("tampered-block")); !ok {
			t.Fatalf("TamperBlock(%s, %d) found no block", f.ids[cheater], pos)
		}
	}
	for _, id := range f.ids {
		f.sched.Enqueue(id)
	}
	rep, err := f.sched.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlameFallbacks == 0 {
		t.Fatal("aggregate over a cheating tenant did not fall back to per-item blame")
	}
	if rep.Accusations() != 1 {
		t.Fatalf("Accusations = %d, want exactly 1:\n%s", rep.Accusations(), rep.Fingerprint())
	}
	for i, v := range rep.Verdicts {
		if i == cheater {
			if v.Report.Valid() {
				t.Fatalf("cheating tenant %s passed", v.UserID)
			}
			sigFail := false
			for _, fail := range v.Report.Failures {
				if fail.Check == CheckSignature {
					sigFail = true
					if !strings.Contains(fail.Detail, f.ids[cheater]) || !strings.Contains(fail.Detail, f.jobIDs[cheater]) {
						t.Fatalf("signature blame lacks tenant/job attribution: %q", fail.Detail)
					}
				}
			}
			if !sigFail {
				t.Fatalf("cheater accused without a signature failure: %+v", v.Report.Failures)
			}
			continue
		}
		if !v.Report.Valid() {
			t.Fatalf("honest tenant %s falsely flagged: %+v", v.UserID, v.Report.Failures)
		}
	}
}

// TestSchedulerAllShedDrain: a drain whose every round is shed produces
// lost (non-accusatory) verdicts and ZERO flushes — the empty aggregate
// is skipped, never treated as "verified" (the ErrEmptyBatch contract) —
// and the sheds reach the overload controller as pressure.
func TestSchedulerAllShedDrain(t *testing.T) {
	const tenants = 3
	oc := NewOverloadController(OverloadConfig{Window: 16})
	f := newTenantFixture(t, tenants, 8, SchedulerConfig{
		SampleSize: 3,
		Rng:        mrand.New(mrand.NewSource(13)),
		Overload:   oc,
	})
	shedAll := &shedClient{inner: f.sys.clients[0], shed: func(int) bool { return true }}
	for _, id := range f.ids {
		f.reattach(t, id, shedAll)
	}
	for drain := 0; drain < 3; drain++ { // 9 rounds ≥ minObserved
		for _, id := range f.ids {
			f.sched.Enqueue(id)
		}
		rep, err := f.sched.Drain()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Valid() {
			t.Fatalf("all-shed drain produced accusations: %s", rep.Fingerprint())
		}
		if rep.Flushes != 0 || rep.BatchedSigItems != 0 {
			t.Fatalf("all-shed drain flushed: flushes=%d items=%d", rep.Flushes, rep.BatchedSigItems)
		}
		for _, v := range rep.Verdicts {
			if v.Report.EffectiveSampleSize != 0 {
				t.Fatalf("shed session has effective sample %d", v.Report.EffectiveSampleSize)
			}
			if len(v.Report.Rounds) != 1 || v.Report.Rounds[0].Outcome != RoundShed {
				t.Fatalf("shed session rounds: %+v", v.Report.Rounds)
			}
		}
	}
	if got, degraded := oc.PlanSample(8); !degraded || got >= 8 {
		t.Fatalf("PlanSample(8) = %d, %v after three all-shed drains; sheds are overload pressure", got, degraded)
	}
}

// TestSchedulerNetworkFaultIsNotOverloadPressure: a tenant behind a dead
// or lossy link loses its rounds to RoundNetworkFault, which says nothing
// about server load — it must not shrink everyone's challenge set along
// the Theorem-3 curve. (The scheduler used to feed every transport error
// to the controller.)
func TestSchedulerNetworkFaultIsNotOverloadPressure(t *testing.T) {
	const tenants = 3
	oc := NewOverloadController(OverloadConfig{Window: 16})
	f := newTenantFixture(t, tenants, 8, SchedulerConfig{
		SampleSize: 3,
		Rng:        mrand.New(mrand.NewSource(14)),
		Overload:   oc,
	})
	down := netsim.NewDownableHandler(f.sys.servers[0])
	down.SetDown(true)
	for _, id := range f.ids {
		f.reattach(t, id, netsim.NewLoopback(down, netsim.LinkConfig{}))
	}
	for drain := 0; drain < 3; drain++ {
		for _, id := range f.ids {
			f.sched.Enqueue(id)
		}
		rep, err := f.sched.Drain()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range rep.Verdicts {
			if len(v.Report.Rounds) != 1 || v.Report.Rounds[0].Outcome != RoundNetworkFault {
				t.Fatalf("dead-link session rounds: %+v", v.Report.Rounds)
			}
			if v.Report.DegradedByOverload {
				t.Fatalf("drain %d: network faults degraded %s's sample", drain, v.UserID)
			}
		}
	}
	if got, degraded := oc.PlanSample(8); degraded || got != 8 {
		t.Fatalf("PlanSample(8) = %d, %v after three network-fault drains, want 8, false", got, degraded)
	}
	if rate := oc.LossRate(); rate != 0 {
		t.Fatalf("overload loss rate = %v after network faults only, want 0", rate)
	}
}

// TestSchedulerRefusedRoundNotCompleted: a round the server answered with
// a structural refusal is accusatory but NOT Completed — no item of it was
// checked — so a resume from the session's checkpoint carries the verdict
// forward without counting its indices as effective sample. (The scheduler
// used to record such rounds as Completed.)
func TestSchedulerRefusedRoundNotCompleted(t *testing.T) {
	f := newTenantFixture(t, 2, 8, SchedulerConfig{
		SampleSize: 3,
		Rng:        mrand.New(mrand.NewSource(15)),
	})
	// A second server that holds no job of tenant 1's refuses its challenge.
	other := newSystem(t, nil)
	f.reattach(t, f.ids[1], other.clients[0])
	for _, id := range f.ids {
		f.sched.Enqueue(id)
	}
	rep, err := f.sched.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verdicts[0].Report.Valid() || rep.Accusations() != 1 {
		t.Fatalf("want exactly tenant 1 accused:\n%s", rep.Fingerprint())
	}
	report := rep.Verdicts[1].Report
	if len(report.Failures) != 1 || report.Failures[0].Check != CheckResponse {
		t.Fatalf("refused session failures: %+v", report.Failures)
	}
	rr := report.Rounds[0]
	if rr.Outcome != RoundBadProof || rr.Completed || !strings.Contains(rr.Detail, "server refused challenge") {
		t.Fatalf("refused round recorded as %+v; want bad-proof, not completed, with the refusal", rr)
	}
	if report.EffectiveSampleSize != 0 {
		t.Fatalf("refused session has effective sample %d", report.EffectiveSampleSize)
	}
	_, d, _, err := f.sched.Registry().Session(f.ids[1])
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := f.sys.agency.AuditJob(f.sys.clients[0], d, AuditConfig{Resume: report.Checkpoint()})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Valid() || resumed.EffectiveSampleSize != 0 || len(resumed.Rounds) != 1 || resumed.Rounds[0].Attempts != 1 {
		t.Fatalf("resume re-judged a refused round: valid=%v effective=%d rounds=%+v",
			resumed.Valid(), resumed.EffectiveSampleSize, resumed.Rounds)
	}
}

// TestSchedulerUnknownTenantFailsDrain: sessions for tenants that were
// never onboarded are caller errors, not evidence.
func TestSchedulerUnknownTenantFailsDrain(t *testing.T) {
	f := newTenantFixture(t, 1, 4, SchedulerConfig{SampleSize: 2})
	f.sched.Enqueue("user:ghost")
	if _, err := f.sched.Drain(); err == nil {
		t.Fatal("drain with unregistered tenant succeeded")
	}
}

func TestSchedulerObsCounters(t *testing.T) {
	hub := obs.NewHub()
	const tenants = 3
	f := newTenantFixture(t, tenants, 8, SchedulerConfig{
		SampleSize: 2,
		Rng:        mrand.New(mrand.NewSource(21)),
	})
	f.sched.WithObs(hub)
	f.sched.Registry().WithObs(hub)
	for _, id := range f.ids {
		f.sched.Enqueue(id)
	}
	if _, err := f.sched.Drain(); err != nil {
		t.Fatal(err)
	}
	snap := hub.Registry().Snapshot()
	want := map[string]float64{
		"tenant_audit_sessions_total": tenants,
		"tenant_sig_flushes_total":    1,
		"tenant_sig_items_total":      tenants * 2,
		"tenants_registered":          tenants,
	}
	got := map[string]float64{}
	for _, p := range snap.Counters {
		got[p.Name] += p.Value
	}
	for _, p := range snap.Gauges {
		got[p.Name] += p.Value
	}
	for name, wantV := range want {
		if got[name] != wantV {
			t.Fatalf("%s = %v, want %v (snapshot: %v)", name, got[name], wantV, got)
		}
	}
}

var _ transport.Client = (*shedClient)(nil)

// BenchmarkSchedulerDrain measures one cross-tenant drain over a steady
// queue — the scheduler's per-session cost with onboarding amortized away.
func BenchmarkSchedulerDrain(b *testing.B) {
	f := newTenantFixture(b, 8, 6, SchedulerConfig{
		SampleSize: 4,
		Rng:        mrand.New(mrand.NewSource(3)),
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range f.ids {
			f.sched.Enqueue(id)
		}
		if _, err := f.sched.Drain(); err != nil {
			b.Fatal(err)
		}
	}
}
