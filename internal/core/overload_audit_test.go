package core

import (
	"context"
	"math"
	mrand "math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seccloud/internal/funcs"
	"seccloud/internal/netsim"
	"seccloud/internal/sampling"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

// shedClient wraps a client and sheds chosen round trips with a typed
// overload error, deterministically by call number (1-based).
type shedClient struct {
	inner netsim.Client
	shed  func(n int) bool
	mu    sync.Mutex
	n     int
}

func (c *shedClient) RoundTripContext(ctx context.Context, m wire.Message) (wire.Message, error) {
	c.mu.Lock()
	c.n++
	shed := c.shed(c.n)
	c.mu.Unlock()
	if shed {
		return nil, &netsim.OverloadedError{Op: "roundtrip", RetryAfter: 5 * time.Millisecond}
	}
	return c.inner.RoundTripContext(ctx, m)
}

func (c *shedClient) Stats() netsim.StatsSnapshot { return c.inner.Stats() }
func (c *shedClient) Close() error                { return nil }

// latentCtxClient delays every round trip, honoring ctx cancellation with
// a timeout-class transport error (as a real deadlined link would).
type latentCtxClient struct {
	inner netsim.Client
	d     time.Duration
}

func (c *latentCtxClient) RoundTripContext(ctx context.Context, m wire.Message) (wire.Message, error) {
	t := time.NewTimer(c.d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
		return nil, &netsim.TransportError{Op: "roundtrip", Timeout: true, Err: ctx.Err()}
	}
	return c.inner.RoundTripContext(ctx, m)
}

func (c *latentCtxClient) Stats() netsim.StatsSnapshot { return c.inner.Stats() }
func (c *latentCtxClient) Close() error                { return nil }

// TestAuditJobShedRoundsNonAccusatory: rounds refused by admission control
// are recorded as RoundShed — never BadProof — leave the effective sample,
// show up in v3 evidence, and are re-challenged on resume.
func TestAuditJobShedRoundsNonAccusatory(t *testing.T) {
	for _, kind := range challengeKinds {
		t.Run(kind.name, func(t *testing.T) {
			sys := newSystem(t, nil)
			ds := workload.NewGenerator(61).GenDataset(sys.user.ID(), 16, 8)
			tg := sys.target(t, kind.storage, ds, funcs.Spec{Name: "digest"}, "shed-job")

			link := &shedClient{
				inner: netsim.NewLoopback(sys.servers[0], netsim.LinkConfig{}),
				shed:  func(n int) bool { return n%2 == 1 }, // odd calls shed
			}
			analysis := &sampling.Params{CSC: 0.5, SSC: 0.5, R: math.Inf(1)}
			report, err := tg.audit(link, AuditConfig{
				SampleSize: 6,
				Rng:        mrand.New(mrand.NewSource(11)),
				Rounds:     6,
				Analysis:   analysis,
			})
			if err != nil {
				t.Fatalf("audit aborted on shed responses: %v", err)
			}
			if !report.Valid() {
				t.Fatalf("shed rounds accused an honest server: %+v", report.Failures)
			}
			if got := report.ShedRounds(); got != 3 {
				t.Fatalf("ShedRounds = %d, want 3", got)
			}
			if report.EffectiveSampleSize != 3 {
				t.Fatalf("effective sample = %d, want 3", report.EffectiveSampleSize)
			}
			if report.NetworkFaultRounds() != 0 {
				t.Fatalf("sheds leaked into NetworkFaultRounds: %d", report.NetworkFaultRounds())
			}
			for _, rr := range report.Rounds {
				if rr.Outcome == RoundShed {
					if rr.Outcome.Accusatory() {
						t.Fatal("RoundShed claims to be accusatory")
					}
					if !rr.Outcome.Lost() {
						t.Fatal("RoundShed not counted as lost")
					}
					if rr.Completed {
						t.Fatal("shed round marked completed")
					}
				}
			}

			// The signed verdict records the sheds and survives public verification.
			ev, err := tg.evidence(report)
			if err != nil {
				t.Fatal(err)
			}
			if ev.ShedRounds != 3 || !ev.Valid {
				t.Fatalf("evidence overload section wrong: %+v", ev)
			}
			if err := VerifyEvidence(sys.agency.scheme, ev); err != nil {
				t.Fatalf("VerifyEvidence: %v", err)
			}

			// Resume over a healthy link re-challenges exactly the shed rounds.
			resumed, err := tg.audit(sys.clients[0], AuditConfig{
				Resume:   report.Checkpoint(),
				Analysis: analysis,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !resumed.Valid() || resumed.EffectiveSampleSize != 6 {
				t.Fatalf("resume after sheds: valid=%v effective=%d, want 6",
					resumed.Valid(), resumed.EffectiveSampleSize)
			}
		})
	}
}

// TestRetryBudgetStopsAmplification: a drained per-audit retry budget
// stops the retry loop across all rounds instead of multiplying offered
// load, and the denials are recorded in the report.
func TestRetryBudgetStopsAmplification(t *testing.T) {
	for _, kind := range challengeKinds {
		t.Run(kind.name, func(t *testing.T) {
			sys := newSystem(t, nil)
			ds := workload.NewGenerator(62).GenDataset(sys.user.ID(), 16, 8)
			tg := sys.target(t, kind.storage, ds, funcs.Spec{Name: "digest"}, "budget-job")

			link := sys.faultyLink(1.0, 99) // the link eats everything
			budget := netsim.NewRetryBudget(2, 0)
			report, err := tg.audit(link, AuditConfig{
				SampleSize: 4,
				Rng:        mrand.New(mrand.NewSource(12)),
				Rounds:     4,
				Retry:      faultRetrier(7, 4),
				Budget:     budget,
			})
			if err != nil {
				t.Fatalf("budget exhaustion aborted the audit: %v", err)
			}
			if !report.Valid() {
				t.Fatalf("budget-denied rounds accused the server: %+v", report.Failures)
			}
			// Round 1 burns the 2 tokens (attempts 1-2 retried, attempt 3 denied);
			// every later round is denied its first retry. Without the budget this
			// schedule sends 4×4 = 16 attempts; with it, 3+1+1+1 = 6.
			total := 0
			for _, rr := range report.Rounds {
				total += rr.Attempts
			}
			if total != 6 {
				t.Fatalf("total attempts = %d, want 6 (retry amplification not stopped)", total)
			}
			if report.BudgetDenied != 4 {
				t.Fatalf("report.BudgetDenied = %d, want 4", report.BudgetDenied)
			}
			if budget.Denied() != 4 || budget.Spent() != 2 {
				t.Fatalf("budget counters denied=%d spent=%d, want 4/2", budget.Denied(), budget.Spent())
			}
		})
	}
}

// TestAuditDeadlineBoundsAudit: an audit-level deadline cancels in-flight
// rounds and skips never-dispatched ones; lost coverage is recorded as
// timeouts, never as cheating evidence.
func TestAuditDeadlineBoundsAudit(t *testing.T) {
	for _, kind := range challengeKinds {
		t.Run(kind.name, func(t *testing.T) {
			sys := newSystem(t, nil)
			ds := workload.NewGenerator(63).GenDataset(sys.user.ID(), 16, 8)
			tg := sys.target(t, kind.storage, ds, funcs.Spec{Name: "digest"}, "deadline-job")

			link := &latentCtxClient{inner: netsim.NewLoopback(sys.servers[0], netsim.LinkConfig{}), d: 50 * time.Millisecond}
			start := time.Now()
			report, err := tg.audit(link, AuditConfig{
				SampleSize: 6,
				Rng:        mrand.New(mrand.NewSource(13)),
				Rounds:     6,
				Deadline:   125 * time.Millisecond,
			})
			elapsed := time.Since(start)
			if err != nil {
				t.Fatalf("deadline expiry aborted the audit: %v", err)
			}
			if elapsed > time.Second {
				t.Fatalf("deadlined audit ran %v — deadline did not bound the run", elapsed)
			}
			if !report.Valid() {
				t.Fatalf("deadline losses accused the server: %+v", report.Failures)
			}
			if report.EffectiveSampleSize == 0 || report.EffectiveSampleSize >= report.SampleSize {
				t.Fatalf("effective sample = %d of %d; want partial completion",
					report.EffectiveSampleSize, report.SampleSize)
			}
			undispatched := 0
			for _, rr := range report.Rounds {
				switch rr.Outcome {
				case RoundOK, RoundTimeout:
				default:
					t.Fatalf("unexpected outcome %v under deadline: %+v", rr.Outcome, rr)
				}
				if rr.Detail == "audit deadline expired before dispatch" {
					undispatched++
					if rr.Attempts != 0 {
						t.Fatalf("undispatched round hit the network: %+v", rr)
					}
				}
			}
			if undispatched == 0 {
				t.Fatal("no round recorded as never-dispatched; deadline did not stop dispatch")
			}
			if got := report.NetworkFaultRounds() + report.EffectiveSampleSize; got != report.SampleSize {
				t.Fatalf("timeout accounting inconsistent: faults+effective = %d, want %d", got, report.SampleSize)
			}
		})
	}
}

// TestOverloadControllerPlanSample exercises the degradation curve:
// no reduction before minObserved or below threshold, proportional
// reduction above it, floored at MinFraction.
func TestOverloadControllerPlanSample(t *testing.T) {
	oc := NewOverloadController(OverloadConfig{Threshold: 0.3, Window: 16, MinFraction: 0.25})
	if got, ok := oc.PlanSample(10); ok || got != 10 {
		t.Fatalf("fresh controller degraded: %d %v", got, ok)
	}
	for i := 0; i < 4; i++ {
		oc.Observe(true)
	}
	if _, ok := oc.PlanSample(10); ok {
		t.Fatal("controller degraded before minObserved rounds")
	}
	for i := 0; i < 12; i++ {
		oc.Observe(true) // 16/16 lost
	}
	got, ok := oc.PlanSample(10)
	if !ok || got != 2 {
		t.Fatalf("full-loss PlanSample(10) = %d,%v; want 2 (MinFraction floor)", got, ok)
	}
	if oc.DegradedAudits() != 1 {
		t.Fatalf("DegradedAudits = %d, want 1", oc.DegradedAudits())
	}
	// Recovery: a window of clean rounds lifts the degradation.
	for i := 0; i < 16; i++ {
		oc.Observe(false)
	}
	if _, ok := oc.PlanSample(10); ok {
		t.Fatal("controller still degrading after full recovery")
	}
}

// TestOverloadControllerPlanSampleConcurrent is the -race regression for
// PlanSample's critical section: the decision and the degradedAudits
// increment used to happen under two separate locks, so concurrent audits
// could decide against one window state and count against another. The
// invariant locked here: every ok=true plan is counted, every ok=false
// plan is not, under heavy Observe/PlanSample interleaving.
func TestOverloadControllerPlanSampleConcurrent(t *testing.T) {
	oc := NewOverloadController(OverloadConfig{Threshold: 0.3, Window: 16, MinFraction: 0.25})
	const (
		planners  = 8
		plansEach = 200
	)
	var wg sync.WaitGroup
	var planned atomic.Uint64
	wg.Add(planners + 1)
	go func() {
		defer wg.Done()
		for i := 0; i < planners*plansEach; i++ {
			oc.Observe(i%2 == 0) // oscillate the window across the threshold
		}
	}()
	for p := 0; p < planners; p++ {
		go func() {
			defer wg.Done()
			for i := 0; i < plansEach; i++ {
				if _, ok := oc.PlanSample(10); ok {
					planned.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got, want := oc.DegradedAudits(), planned.Load(); got != want {
		t.Fatalf("DegradedAudits = %d, want %d (one per ok=true plan)", got, want)
	}
}

// TestDegradedAuditStampsEvidence: under sustained overload the audit
// shrinks its challenge set; the report and the SIGNED evidence both
// record the planned size, the degradation flag, and the reduced
// detection confidence — and the evidence still publicly verifies.
func TestDegradedAuditStampsEvidence(t *testing.T) {
	for _, kind := range challengeKinds {
		t.Run(kind.name, func(t *testing.T) {
			sys := newSystem(t, nil)
			ds := workload.NewGenerator(64).GenDataset(sys.user.ID(), 16, 8)
			tg := sys.target(t, kind.storage, ds, funcs.Spec{Name: "digest"}, "degraded-job")

			oc := NewOverloadController(OverloadConfig{Threshold: 0.3, Window: 16, MinFraction: 0.25})
			for i := 0; i < 16; i++ {
				oc.Observe(i%2 == 0) // 50% loss rate
			}
			analysis := &sampling.Params{CSC: 0.5, SSC: 0, R: math.Inf(1)}
			if kind.storage {
				analysis = &sampling.Params{CSC: 0, SSC: 0.5, R: math.Inf(1)}
			}
			report, err := tg.audit(sys.clients[0], AuditConfig{
				SampleSize: 8,
				Rng:        mrand.New(mrand.NewSource(14)),
				Rounds:     4,
				Overload:   oc,
				Analysis:   analysis,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !report.DegradedByOverload {
				t.Fatal("audit did not degrade at 50% loss rate")
			}
			if report.PlannedSampleSize != 8 || report.SampleSize != 4 {
				t.Fatalf("planned/actual = %d/%d, want 8/4", report.PlannedSampleSize, report.SampleSize)
			}
			if !report.Valid() {
				t.Fatalf("degraded audit accused an honest server: %+v", report.Failures)
			}
			wantConf := 1 - math.Pow(0.5, 4)
			if math.Abs(report.AchievedConfidence-wantConf) > 1e-9 {
				t.Fatalf("achieved confidence %v, want %v for the reduced sample", report.AchievedConfidence, wantConf)
			}

			ev, err := tg.evidence(report)
			if err != nil {
				t.Fatal(err)
			}
			if !ev.DegradedByOverload || ev.PlannedSampleSize != 8 {
				t.Fatalf("evidence missing degradation record: %+v", ev)
			}
			if math.Abs(ev.DetectionConfidence-report.AchievedConfidence) > 1e-12 {
				t.Fatalf("evidence confidence %v drifted from report %v", ev.DetectionConfidence, report.AchievedConfidence)
			}
			if err := VerifyEvidence(sys.agency.scheme, ev); err != nil {
				t.Fatalf("degraded evidence failed public verification: %v", err)
			}
		})
	}
}

// TestFleetShedFailsOverWithoutTrippingBreakers: a shedding primary makes
// rounds fail over (reason "shed") but — because a typed shed proves
// liveness — its breaker stays closed and no accusation is produced.
func TestFleetShedFailsOverWithoutTrippingBreakers(t *testing.T) {
	fs := newFleetSystem(t, 3, 12)
	shedding := &shedClient{
		inner: netsim.NewLoopback(fs.downs[0], netsim.LinkConfig{}),
		shed:  func(int) bool { return true },
	}
	clients := []netsim.Client{
		shedding,
		netsim.NewLoopback(fs.downs[1], netsim.LinkConfig{}),
		netsim.NewLoopback(fs.downs[2], netsim.LinkConfig{}),
	}
	ids := []string{fs.servers[0].ID(), fs.servers[1].ID(), fs.servers[2].ID()}
	fleet, err := NewFleet(clients, ids, BreakerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := FleetAuditConfig{Storage: AuditConfig{
		DatasetSize:     fs.ds.NumBlocks(),
		SampleSize:      6,
		Rounds:          3,
		Rng:             mrand.New(mrand.NewSource(15)),
		BatchSignatures: true,
	}}
	fr, err := fs.agency.AuditStorageFleet(fleet, fs.user.ID(), fs.warrant, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Valid() {
		t.Fatalf("shedding primary accused: %+v", fr.Failures)
	}
	if fr.EffectiveSampleSize != 6 {
		t.Fatalf("effective sample = %d, want 6 (failover should complete every round)",
			fr.EffectiveSampleSize)
	}
	if len(fr.Failovers) == 0 {
		t.Fatal("no failover recorded off the shedding primary")
	}
	for _, e := range fr.Failovers {
		if e.From == 0 && e.Reason != "shed" {
			t.Fatalf("failover off the shedding primary has reason %q, want \"shed\"", e.Reason)
		}
	}
	// Satellite invariant: sheds are liveness, not transport failure — the
	// breaker must not open no matter how many rounds were refused.
	if got := fleet.Health().Breaker(0).State(); got != StateClosed {
		t.Fatalf("shedding primary's breaker = %v, want closed", got)
	}
	if fleet.Health().Breaker(0).Trips() != 0 {
		t.Fatalf("shed responses tripped the breaker %d times", fleet.Health().Breaker(0).Trips())
	}
}

// TestFleetBudgetExhaustionTripsNothingOpen: an exhausted retry budget
// ends the round early; the real transport failures it let through count
// normally, but the denial itself must not cascade the breaker open.
// Without the budget this retrier makes 4 attempts — enough on its own to
// trip the default FailThreshold of 3; with it, only 2 failures land.
func TestFleetBudgetExhaustionTripsNothingOpen(t *testing.T) {
	fs := newFleetSystem(t, 2, 12)
	fs.downs[0].SetDown(true)
	budget := netsim.NewRetryBudget(1, 0)
	cfg := FleetAuditConfig{Storage: AuditConfig{
		DatasetSize:     fs.ds.NumBlocks(),
		SampleSize:      4,
		Rounds:          1,
		Rng:             mrand.New(mrand.NewSource(16)),
		Retry:           faultRetrier(3, 4),
		Budget:          budget,
		BatchSignatures: true,
	}}
	fr, err := fs.agency.AuditStorageFleet(fs.fleet, fs.user.ID(), fs.warrant, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Valid() {
		t.Fatalf("down primary accused: %+v", fr.Failures)
	}
	if fr.EffectiveSampleSize != 4 {
		t.Fatalf("effective sample = %d, want 4 via failover", fr.EffectiveSampleSize)
	}
	if fr.BudgetDenied == 0 {
		t.Fatal("no budget denial recorded against the dead primary")
	}
	// The budget capped attempts well below MaxAttempts×rounds, and the
	// few failures it let through stay under the breaker threshold.
	if got := fs.fleet.Health().Breaker(0).State(); got != StateClosed {
		t.Fatalf("budget-denied primary's breaker = %v, want closed (threshold not reached)", got)
	}
}

// TestFleetHedgedRoundsWinAndRecord: with a slow primary, the hedged
// duplicate at the next replica answers first; the round records the
// hedge, the winning replica, and the v3 evidence carries the count. The
// duplicate's reply passed the same eq. 5/7 checks — byte-identical to
// what the primary would have sent — so hedging never changes verdicts.
func TestFleetHedgedRoundsWinAndRecord(t *testing.T) {
	fs := newFleetSystem(t, 3, 12)
	slow := &latentCtxClient{
		inner: netsim.NewLoopback(fs.downs[0], netsim.LinkConfig{}),
		d:     200 * time.Millisecond,
	}
	clients := []netsim.Client{
		slow,
		netsim.NewLoopback(fs.downs[1], netsim.LinkConfig{}),
		netsim.NewLoopback(fs.downs[2], netsim.LinkConfig{}),
	}
	ids := []string{fs.servers[0].ID(), fs.servers[1].ID(), fs.servers[2].ID()}
	fleet, err := NewFleet(clients, ids, BreakerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := FleetAuditConfig{
		Storage: AuditConfig{
			DatasetSize:     fs.ds.NumBlocks(),
			SampleSize:      6,
			Rounds:          3,
			Rng:             mrand.New(mrand.NewSource(17)),
			BatchSignatures: true,
		},
		Hedge:      true,
		HedgeDelay: 5 * time.Millisecond,
	}
	fr, err := fs.agency.AuditStorageFleet(fleet, fs.user.ID(), fs.warrant, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Valid() {
		t.Fatalf("hedged audit accused an honest fleet: %+v", fr.Failures)
	}
	if got := fr.HedgedRounds(); got != 3 {
		t.Fatalf("HedgedRounds = %d, want 3 (every round should hedge past the slow primary)", got)
	}
	for _, rr := range fr.Rounds {
		if !rr.Hedged || rr.Replica != 1 {
			t.Fatalf("hedged round misrecorded: hedged=%v replica=%d", rr.Hedged, rr.Replica)
		}
	}
	if stats := fleet.HedgeStats(); stats.Launched < 3 || stats.Wins < 3 {
		t.Fatalf("hedge stats launched=%d wins=%d, want ≥3/≥3", stats.Launched, stats.Wins)
	}
	if len(fr.Failovers) != 0 {
		t.Fatalf("hedge wins recorded as failovers: %+v", fr.Failovers)
	}
	// The cancelled losing legs are not failures of the slow primary: its
	// breaker stays closed, so the next audit does not fail over from it.
	if b := fleet.Health().Breaker(0); b.State() != StateClosed || b.Trips() != 0 {
		t.Fatalf("hedge wins tripped the honest primary: state=%v trips=%d, want closed/0", b.State(), b.Trips())
	}
	ev, err := fs.agency.IssueStorageEvidence(fleet.ServerID(cfg.Primary), fr)
	if err != nil {
		t.Fatal(err)
	}
	if ev.HedgedRounds != 3 {
		t.Fatalf("evidence HedgedRounds = %d, want 3", ev.HedgedRounds)
	}
	if err := VerifyEvidence(fs.agency.scheme, ev); err != nil {
		t.Fatalf("VerifyEvidence: %v", err)
	}
}
