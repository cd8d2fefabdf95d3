package core

import (
	"context"
	"math"
	mrand "math/rand"
	"testing"
	"time"

	"seccloud/internal/funcs"
	"seccloud/internal/netsim"
	"seccloud/internal/sampling"
	"seccloud/internal/workload"
)

// Fault-matrix tests: the audit protocol over lossy links. The invariant
// under test is the heart of the fault-aware evidence trail — transport
// failures degrade audit *coverage*, never audit *verdicts*. An honest CS
// behind a 30% lossy link is never accused; a cheater behind the same link
// is still caught with the eq. 10 probability for the challenges that DID
// complete.

// noSleep makes retry backoff instantaneous for tests.
func noSleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }

// faultRetrier builds a deterministic, non-sleeping retrier.
func faultRetrier(seed int64, attempts int) *netsim.Retrier {
	r := netsim.NewRetrier(seed)
	r.MaxAttempts = attempts
	r.Sleep = noSleep
	return r
}

// faultyLink wraps server 0 in a fresh loopback with the given drop rate.
func (s *system) faultyLink(dropRate float64, seed int64) *netsim.Loopback {
	return netsim.NewLoopback(s.servers[0], netsim.LinkConfig{}).WithFaults(netsim.FaultConfig{
		Seed:     seed,
		DropRate: dropRate,
	})
}

// testHonestNeverAccusedUnderLoss sweeps loss rates up to 30%: with retries
// enabled the audit must complete and emit ZERO cheating evidence, no
// matter how many rounds the network eats.
func testHonestNeverAccusedUnderLoss(t *testing.T, storage bool) {
	sys := newSystem(t, nil)
	ds := workload.NewGenerator(40).GenDataset(sys.user.ID(), 16, 8)
	tg := sys.target(t, storage, ds, funcs.Spec{Name: "digest"}, "fault-honest")

	analysis := &sampling.Params{CSC: 0.5, SSC: 0, R: math.Inf(1)}
	if storage {
		analysis = &sampling.Params{CSC: 0, SSC: 0.5, R: math.Inf(1)}
	}
	var drops int64
	for _, drop := range []float64{0, 0.1, 0.2, 0.3} {
		link := sys.faultyLink(drop, int64(1000+int(drop*100)))
		report, err := tg.audit(link, AuditConfig{
			SampleSize: 6,
			Rng:        mrand.New(mrand.NewSource(int64(50 + drop*100))),
			Rounds:     6, // one index per round: losses are granular
			Retry:      faultRetrier(7, 4),
			Analysis:   analysis,
		})
		if err != nil {
			t.Fatalf("drop=%.1f: audit aborted instead of degrading: %v", drop, err)
		}
		drops += link.Stats().Faults.Drops
		if !report.Valid() {
			t.Fatalf("drop=%.1f: honest server accused: %+v", drop, report.Failures)
		}
		if report.EffectiveSampleSize > report.SampleSize {
			t.Fatalf("drop=%.1f: effective sample %d exceeds requested %d",
				drop, report.EffectiveSampleSize, report.SampleSize)
		}
		if report.NetworkFaultRounds() != report.SampleSize-report.EffectiveSampleSize {
			t.Fatalf("drop=%.1f: fault rounds %d inconsistent with effective sample %d/%d",
				drop, report.NetworkFaultRounds(), report.EffectiveSampleSize, report.SampleSize)
		}
		// Confidence must be recomputed for the achieved sample: 1 − 0.5^k.
		wantConf := 1 - math.Pow(0.5, float64(report.EffectiveSampleSize))
		if math.Abs(report.AchievedConfidence-wantConf) > 1e-9 {
			t.Fatalf("drop=%.1f: achieved confidence %v, want %v for k=%d",
				drop, report.AchievedConfidence, wantConf, report.EffectiveSampleSize)
		}
		// The signed verdict carries the degradation, and it verifies.
		ev, err := tg.evidence(report)
		if err != nil {
			t.Fatal(err)
		}
		if !ev.Valid || ev.FailureSummary != "" {
			t.Fatalf("drop=%.1f: evidence accuses honest server: %+v", drop, ev)
		}
		if ev.EffectiveSampleSize != report.EffectiveSampleSize ||
			ev.NetworkFaultRounds != report.NetworkFaultRounds() {
			t.Fatalf("drop=%.1f: evidence fault accounting drifted from report", drop)
		}
		if err := VerifyEvidence(sys.agency.scheme, ev); err != nil {
			t.Fatalf("drop=%.1f: evidence does not verify: %v", drop, err)
		}
	}
	if drops == 0 {
		t.Fatal("no drops injected; test is vacuous")
	}
}

func TestFaultMatrixHonestNeverAccused(t *testing.T) { testHonestNeverAccusedUnderLoss(t, false) }
func TestFaultMatrixHonestStorageAuditUnderLoss(t *testing.T) {
	testHonestNeverAccusedUnderLoss(t, true)
}

// testCheaterStillCaughtUnderLoss is the dual of the honest sweep: loss
// must not LAUNDER cheating either. A total cheater is caught by ANY
// completed challenge; rounds that complete yield BadProof entries and a
// false verdict even while other rounds are being dropped.
func testCheaterStillCaughtUnderLoss(t *testing.T, storage bool) {
	var policy CheatPolicy = &ComputationCheater{CSC: 0, Rng: mrand.New(mrand.NewSource(45))}
	if storage {
		policy = &StorageCheater{KeepFraction: 0, Rng: mrand.New(mrand.NewSource(42))}
	}
	sys := newSystem(t, policy)
	ds := workload.NewGenerator(45).GenDataset(sys.user.ID(), 8, 4)
	tg := sys.target(t, storage, ds, funcs.Spec{Name: "digest"}, "fault-badproof")

	report, err := tg.audit(sys.faultyLink(0.3, 17), AuditConfig{
		SampleSize: 6,
		Rng:        mrand.New(mrand.NewSource(14)),
		Rounds:     6,
		Retry:      faultRetrier(15, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.EffectiveSampleSize == 0 {
		t.Skip("entire sample lost (improbable seed)")
	}
	if report.Valid() {
		t.Fatal("total cheater escaped with completed rounds")
	}
	if storage {
		for _, f := range report.Failures {
			if f.Check != CheckSignature {
				t.Fatalf("unexpected failure kind %v", f.Check)
			}
		}
	}
	sawBadProof := false
	for _, rr := range report.Rounds {
		if rr.Outcome == RoundBadProof {
			sawBadProof = true
		}
	}
	if !sawBadProof {
		t.Fatalf("failures recorded but no round marked BadProof: %+v", report.Rounds)
	}
}

func TestFaultMatrixStorageCheaterStillCaught(t *testing.T) { testCheaterStillCaughtUnderLoss(t, true) }
func TestFaultMatrixBadProofStillAccusatoryUnderLoss(t *testing.T) {
	testCheaterStillCaughtUnderLoss(t, false)
}

func TestFaultMatrixCheaterDetectionWithinBounds(t *testing.T) {
	// eq. 10 with R → ∞: Pr[FCS] = CSC^t. Under loss, t shrinks to the
	// effective sample k, so per-audit escape probability is CSC^k. Across
	// many audits the observed detection count must track Σ(1 − CSC^k_i)
	// within binomial noise — the paper's bound, evaluated at the sample
	// the network actually allowed.
	const (
		csc    = 0.5
		trials = 30
		sample = 4
	)
	sys := newSystem(t, &ComputationCheater{CSC: csc, Rng: mrand.New(mrand.NewSource(43))})
	gen := workload.NewGenerator(43)
	ds := gen.GenDataset(sys.user.ID(), 16, 4)
	sys.storeDataset(t, ds)
	job := workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "digest"}, 16)
	d := sys.runJob(t, "fault-cheat", job)

	detected := 0
	expected := 0.0 // Σ per-trial detection probability 1 − CSC^k
	variance := 0.0 // Σ p(1−p) for the tolerance band
	totalK := 0
	for trial := 0; trial < trials; trial++ {
		link := sys.faultyLink(0.3, int64(500+trial))
		report, err := sys.agency.AuditJob(link, d, AuditConfig{
			SampleSize: sample,
			Rng:        mrand.New(mrand.NewSource(int64(700 + trial))),
			Rounds:     sample,
			Retry:      faultRetrier(int64(900+trial), 4),
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		k := report.EffectiveSampleSize
		totalK += k
		if !report.Valid() {
			detected++
			if k == 0 {
				t.Fatalf("trial %d: accusation with zero completed challenges", trial)
			}
		}
		p := 1 - math.Pow(csc, float64(k))
		expected += p
		variance += p * (1 - p)
	}
	if totalK == 0 {
		t.Fatal("no challenge ever completed; loss model broken")
	}
	// 4σ band plus slack for the cheater's per-task (not per-audit) guess
	// correlation; a real bound violation lands far outside this.
	tolerance := 4*math.Sqrt(variance) + 2
	if math.Abs(float64(detected)-expected) > tolerance {
		t.Fatalf("detections %d outside eq. 10 band %.1f±%.1f (avg effective sample %.2f)",
			detected, expected, tolerance, float64(totalK)/trials)
	}
}

func TestFaultMatrixTimeoutRecordedNotAccused(t *testing.T) {
	// A modeled hour-long delay against a 50ms round deadline: every round
	// times out, the audit completes with zero coverage and zero
	// accusations, and the trail says Timeout — not BadProof.
	for _, kind := range challengeKinds {
		sys := newSystem(t, nil)
		ds := workload.NewGenerator(44).GenDataset(sys.user.ID(), 8, 4)
		tg := sys.target(t, kind.storage, ds, funcs.Spec{Name: "sum"}, "fault-slow")

		link := netsim.NewLoopback(sys.servers[0], netsim.LinkConfig{}).WithFaults(netsim.FaultConfig{
			Seed:      5,
			DelayRate: 1,
			Delay:     time.Hour,
		})
		report, err := tg.audit(link, AuditConfig{
			SampleSize:   3,
			Rng:          mrand.New(mrand.NewSource(12)),
			Rounds:       3,
			Retry:        faultRetrier(13, 2),
			RoundTimeout: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("%s: audit aborted on timeouts: %v", kind.name, err)
		}
		if !report.Valid() {
			t.Fatalf("%s: timeouts converted into accusations: %+v", kind.name, report.Failures)
		}
		if report.EffectiveSampleSize != 0 {
			t.Fatalf("%s: effective sample %d, want 0 under total delay", kind.name, report.EffectiveSampleSize)
		}
		if len(report.Rounds) != 3 {
			t.Fatalf("%s: round trail has %d entries, want 3", kind.name, len(report.Rounds))
		}
		for i, rr := range report.Rounds {
			if rr.Outcome != RoundTimeout {
				t.Fatalf("%s: round %d outcome %v, want timeout", kind.name, i, rr.Outcome)
			}
			if rr.Outcome.Accusatory() {
				t.Fatalf("timeout outcome marked accusatory")
			}
		}
	}
}
