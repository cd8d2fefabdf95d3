package core

import (
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"reflect"
	"testing"
	"time"

	"seccloud/internal/netsim"
	"seccloud/internal/threshold"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

// thrFixture stands up one system plus a t-of-n share-holder fleet for
// the agency's verifier key, with every holder behind a kill switch.
type thrFixture struct {
	sys     *system
	deal    *threshold.Deal
	holders []*threshold.AuditorShare
	downs   []*netsim.DownableHandler
	clients []netsim.Client
}

func newThrFixture(t testing.TB, tq, n int, policies ...CheatPolicy) *thrFixture {
	t.Helper()
	if len(policies) == 0 {
		policies = []CheatPolicy{nil} // one honest server
	}
	sys := newSystem(t, policies...)
	daKey, err := sys.sio.Extract(sys.agency.ID())
	if err != nil {
		t.Fatal(err)
	}
	deal, err := threshold.SplitVerifierKey(sys.sio.Params(), daKey, tq, n, rand.Reader)
	if err != nil {
		t.Fatalf("SplitVerifierKey: %v", err)
	}
	f := &thrFixture{sys: sys, deal: deal}
	for _, share := range deal.Shares {
		h := threshold.NewAuditorShare(sys.sio.Params(), share, rand.Reader)
		d := netsim.NewDownableHandler(h)
		f.holders = append(f.holders, h)
		f.downs = append(f.downs, d)
		f.clients = append(f.clients, netsim.NewLoopback(d, netsim.LinkConfig{}))
	}
	return f
}

// agency builds a fresh threshold-combiner agency over the fixture's
// share fleet. The agency holds the same identity key as the system's
// single DA — evidence signing is unchanged — and rngSeed makes its
// small-exponent batch randomization reproducible across agencies.
func (f *thrFixture) agency(t testing.TB, rngSeed int64) *Agency {
	t.Helper()
	daKey, err := f.sys.sio.Extract(f.sys.agency.ID())
	if err != nil {
		t.Fatal(err)
	}
	ag, err := NewAgency(f.sys.sio.Params(), daKey, mrand.New(mrand.NewSource(rngSeed))).
		WithThreshold(ThresholdConfig{Public: f.deal.Public, Clients: f.clients})
	if err != nil {
		t.Fatalf("WithThreshold: %v", err)
	}
	return ag
}

func (f *thrFixture) reset() {
	for i, d := range f.downs {
		d.SetDown(false)
		f.holders[i].SetByzantine(false)
	}
}

func (f *thrFixture) storeAndWarrant(t testing.TB, blocks int) wire.Warrant {
	t.Helper()
	gen := workload.NewGenerator(77)
	ds := gen.GenDataset(f.sys.user.ID(), blocks, 4)
	f.sys.storeDataset(t, ds)
	warrant, err := f.sys.user.Delegate(f.sys.agency.ID(), "", time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	return warrant
}

func storageCfg(seed int64, workers int) AuditConfig {
	return AuditConfig{
		DatasetSize:     20,
		SampleSize:      10,
		Rng:             mrand.New(mrand.NewSource(seed)),
		BatchSignatures: true,
		Workers:         workers,
	}
}

// TestThresholdAuditMatchesSingleDA: on identical stored data with an
// identical challenge sample, the quorum-reconstructed audit reaches the
// same verdict as the agency verifying with the key directly — for an
// honest server and for a cheating one (where the per-item fallback must
// attribute the same failure set).
func TestThresholdAuditMatchesSingleDA(t *testing.T) {
	for _, cheat := range []bool{false, true} {
		t.Run(fmt.Sprintf("cheat=%v", cheat), func(t *testing.T) {
			var policy CheatPolicy
			if cheat {
				policy = &StorageCheater{KeepFraction: 0.5, Rng: mrand.New(mrand.NewSource(9))}
			}
			f := newThrFixture(t, 3, 5, policy)
			warrant := f.storeAndWarrant(t, 20)

			single, err := f.sys.agency.AuditStorage(f.sys.clients[0], f.sys.user.ID(), warrant, storageCfg(4, 1))
			if err != nil {
				t.Fatal(err)
			}
			thr := f.agency(t, 1)
			quorum, err := thr.AuditStorage(f.sys.clients[0], f.sys.user.ID(), warrant, storageCfg(4, 1))
			if err != nil {
				t.Fatal(err)
			}
			if single.Valid() != quorum.Valid() {
				t.Fatalf("verdicts disagree: single=%v quorum=%v", single.Valid(), quorum.Valid())
			}
			if !reflect.DeepEqual(single.Sampled, quorum.Sampled) {
				t.Fatalf("samples diverged: %v vs %v", single.Sampled, quorum.Sampled)
			}
			if !reflect.DeepEqual(single.Failures, quorum.Failures) {
				t.Fatalf("failure sets disagree:\n single: %+v\n quorum: %+v", single.Failures, quorum.Failures)
			}
			if single.Threshold != nil {
				t.Fatal("single-DA report grew a threshold trail")
			}
			tr := quorum.Threshold
			if tr == nil {
				t.Fatal("threshold report has no trail")
			}
			if !reflect.DeepEqual(tr.Quorum, []int{1, 2, 3}) {
				t.Fatalf("all-healthy quorum = %v, want [1 2 3]", tr.Quorum)
			}
			if tr.Recoveries != 0 || len(tr.Crashed) != 0 || len(tr.Byzantine) != 0 {
				t.Fatalf("all-healthy trail records faults: %+v", tr)
			}
			if tr.CombinedDigest == "" {
				t.Fatal("trail has no combined digest")
			}
		})
	}
}

// TestThresholdSurvivesCrashesAndByzantine: with n−t holders down AND a
// Byzantine holder forging partials, the audit still completes against
// an honest server with ZERO storage accusations — the forged partial is
// attributed to its share-holder in the trail, never to storage.
func TestThresholdSurvivesCrashesAndByzantine(t *testing.T) {
	f := newThrFixture(t, 2, 5)
	warrant := f.storeAndWarrant(t, 20)
	f.downs[0].SetDown(true) // share 1 crashed
	f.downs[1].SetDown(true) // share 2 crashed
	f.holders[2].SetByzantine(true)

	report, err := f.agency(t, 2).AuditStorage(f.sys.clients[0], f.sys.user.ID(), warrant, storageCfg(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !report.Valid() {
		t.Fatalf("honest server false-flagged under auditor faults: %+v", report.Failures)
	}
	if len(report.Failures) != 0 {
		t.Fatalf("false flags: %d (%+v)", len(report.Failures), report.Failures)
	}
	tr := report.Threshold
	if tr == nil {
		t.Fatal("no threshold trail")
	}
	if !reflect.DeepEqual(tr.Crashed, []int{1, 2}) {
		t.Fatalf("crashed = %v, want [1 2]", tr.Crashed)
	}
	if !reflect.DeepEqual(tr.Byzantine, []int{3}) {
		t.Fatalf("byzantine = %v, want [3]", tr.Byzantine)
	}
	if !reflect.DeepEqual(tr.Quorum, []int{4, 5}) {
		t.Fatalf("quorum = %v, want [4 5]", tr.Quorum)
	}
	if tr.Recoveries != 3 {
		t.Fatalf("recoveries = %d, want 3", tr.Recoveries)
	}

	// The trail flows into version-4 evidence with the faults on the
	// auditor side of the record.
	ev, err := f.sys.agency.IssueStorageEvidence(f.sys.servers[0].ID(), report)
	if err != nil {
		t.Fatal(err)
	}
	if ev.ThresholdFaults != "crashed=1,2|byz=3" {
		t.Fatalf("evidence faults = %q", ev.ThresholdFaults)
	}
	if ev.FailureSummary != "" {
		t.Fatalf("auditor faults leaked into the storage accusation: %q", ev.FailureSummary)
	}
	if ev.ThresholdRecoveries != 3 || ev.ThresholdQuorum != "4,5" {
		t.Fatalf("evidence trail = %+v", ev)
	}
}

// TestThresholdQuorumUnavailable: with more than n−t holders gone the
// audit aborts with a terminal error — no verdict, no storage blame.
func TestThresholdQuorumUnavailable(t *testing.T) {
	f := newThrFixture(t, 3, 5)
	warrant := f.storeAndWarrant(t, 20)
	for i := 0; i < 3; i++ {
		f.downs[i].SetDown(true)
	}
	report, err := f.agency(t, 3).AuditStorage(f.sys.clients[0], f.sys.user.ID(), warrant, storageCfg(4, 1))
	if !errors.Is(err, ErrQuorumUnavailable) {
		t.Fatalf("err = %v, want ErrQuorumUnavailable", err)
	}
	if report != nil {
		t.Fatal("aborted audit still produced a report")
	}
}

// TestThresholdDeterministicAcrossQuorums: the combined verdict — and
// its digest — is byte-identical no matter WHICH quorum answers and no
// matter the worker count, because Lagrange reconstruction in the
// exponent is subset-independent and the challenge plus randomization
// draws are fixed by their seeds.
func TestThresholdDeterministicAcrossQuorums(t *testing.T) {
	f := newThrFixture(t, 3, 5)
	warrant := f.storeAndWarrant(t, 20)

	type run struct {
		kill    []int // 0-based holder offsets to crash
		workers int
	}
	runs := []run{
		{nil, 1},
		{nil, 4},
		{[]int{0, 1}, 1},
		{[]int{1, 3}, 1},
		{[]int{3, 4}, 4},
	}
	var wantDigest, wantSampled string
	for _, r := range runs {
		f.reset()
		for _, i := range r.kill {
			f.downs[i].SetDown(true)
		}
		report, err := f.agency(t, 5).AuditStorage(f.sys.clients[0], f.sys.user.ID(), warrant, storageCfg(4, r.workers))
		if err != nil {
			t.Fatalf("kill=%v workers=%d: %v", r.kill, r.workers, err)
		}
		if !report.Valid() || len(report.Failures) != 0 {
			t.Fatalf("kill=%v workers=%d: false flags %+v", r.kill, r.workers, report.Failures)
		}
		digest := report.Threshold.CombinedDigest
		sampled := fmt.Sprint(report.Sampled)
		if wantDigest == "" {
			wantDigest, wantSampled = digest, sampled
			continue
		}
		if digest != wantDigest {
			t.Fatalf("kill=%v workers=%d: combined digest %s, want %s (quorum %v)",
				r.kill, r.workers, digest, wantDigest, report.Threshold.Quorum)
		}
		if sampled != wantSampled {
			t.Fatalf("kill=%v workers=%d: sample drifted", r.kill, r.workers)
		}
	}
}

// TestThresholdJobAuditAndByzantineRecovery: the computation-audit path
// runs through the same quorum seam; a Byzantine partial mid-quorum is
// caught by its commitment proof and replaced by the next share.
func TestThresholdJobAuditAndByzantineRecovery(t *testing.T) {
	f := newThrFixture(t, 3, 5)
	gen := workload.NewGenerator(78)
	ds := gen.GenDataset(f.sys.user.ID(), 16, 8)
	f.sys.storeDataset(t, ds)
	job, err := gen.GenJob(f.sys.user.ID(), workload.JobConfig{NumSubTasks: 10, DatasetSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	d := f.sys.runJob(t, "job-thr", job)
	f.holders[0].SetByzantine(true) // first share tried, forging partials

	report, err := f.agency(t, 6).AuditJob(f.sys.clients[0], d, AuditConfig{
		SampleSize: 6,
		Rng:        mrand.New(mrand.NewSource(11)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Valid() {
		t.Fatalf("honest computation false-flagged: %+v", report.Failures)
	}
	tr := report.Threshold
	if tr == nil {
		t.Fatal("no threshold trail on job report")
	}
	if !reflect.DeepEqual(tr.Byzantine, []int{1}) || !reflect.DeepEqual(tr.Quorum, []int{2, 3, 4}) {
		t.Fatalf("trail = %+v, want byzantine [1], quorum [2 3 4]", tr)
	}
	if tr.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", tr.Recoveries)
	}
}

// TestThresholdResumeAvoidsKnownBadHolders: a checkpoint's partial-
// collection state deprioritizes the holders the interrupted run saw
// fail, so the resumed quorum forms from still-trusted shares first.
func TestThresholdResumeAvoidsKnownBadHolders(t *testing.T) {
	avoid := thresholdAvoid(&AuditCheckpoint{
		Threshold: &ThresholdTrail{Crashed: []int{2}, Byzantine: []int{5}},
	})
	if !reflect.DeepEqual(avoid, []int{2, 5}) {
		t.Fatalf("avoid = %v, want [2 5]", avoid)
	}
	if got := shareOrder(5, avoid); !reflect.DeepEqual(got, []int{1, 3, 4, 2, 5}) {
		t.Fatalf("share order = %v", got)
	}

	// End to end: every holder is alive, but the avoid-list pushes 1 and 2
	// to the back, so the quorum forms from 3,4,5.
	f := newThrFixture(t, 3, 5)
	warrant := f.storeAndWarrant(t, 20)
	first, err := f.agency(t, 7).AuditStorage(f.sys.clients[0], f.sys.user.ID(), warrant, storageCfg(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	// A checkpoint carrying the interrupted run's sample (its one round
	// lost to the network, so the resumed audit redoes it) and the holder
	// faults the interrupted run observed.
	cp := &AuditCheckpoint{
		UserID:  f.sys.user.ID(),
		Sampled: first.Sampled,
		Rounds: []RoundRecord{
			{Indices: first.Sampled, Attempts: 1, Outcome: RoundNetworkFault},
		},
		Threshold: &ThresholdTrail{Crashed: []int{1}, Byzantine: []int{2}},
	}
	cfg := storageCfg(4, 1)
	cfg.Resume = cp
	resumed, err := f.agency(t, 7).AuditStorage(f.sys.clients[0], f.sys.user.ID(), warrant, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed.Threshold.Quorum, []int{3, 4, 5}) {
		t.Fatalf("resumed quorum = %v, want [3 4 5]", resumed.Threshold.Quorum)
	}
}

// TestThresholdCombinerNeedsNoVerifierKey: the full point of the split —
// an agency whose own key is NOT the designated verifier still audits
// data designated to the logical quorum identity, and signs evidence
// under its own identity.
func TestThresholdCombinerNeedsNoVerifierKey(t *testing.T) {
	sys := newSystem(t, nil)
	const quorumID = "da:quorum"
	quorumKey, err := sys.sio.Extract(quorumID)
	if err != nil {
		t.Fatal(err)
	}
	deal, err := threshold.SplitVerifierKey(sys.sio.Params(), quorumKey, 2, 3, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]netsim.Client, len(deal.Shares))
	for i, share := range deal.Shares {
		clients[i] = netsim.NewLoopback(
			threshold.NewAuditorShare(sys.sio.Params(), share, rand.Reader), netsim.LinkConfig{})
	}
	combinerKey, err := sys.sio.Extract("da:combiner")
	if err != nil {
		t.Fatal(err)
	}
	combiner, err := NewAgency(sys.sio.Params(), combinerKey, rand.Reader).
		WithThreshold(ThresholdConfig{Public: deal.Public, Clients: clients})
	if err != nil {
		t.Fatal(err)
	}

	// The dataset is designated to the quorum identity — the combiner's
	// own key never appears in any signature.
	gen := workload.NewGenerator(79)
	ds := gen.GenDataset(sys.user.ID(), 12, 4)
	req, err := sys.user.PrepareStore(ds, sys.servers[0].ID(), quorumID)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.user.Store(sys.clients[0], req); err != nil {
		t.Fatal(err)
	}
	warrant, err := sys.user.Delegate(quorumID, "", time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	cfg := storageCfg(4, 1)
	cfg.DatasetSize = 12
	cfg.SampleSize = 6
	report, err := combiner.AuditStorage(sys.clients[0], sys.user.ID(), warrant, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Valid() || len(report.Failures) != 0 {
		t.Fatalf("keyless combiner false-flagged: %+v", report.Failures)
	}
	ev, err := combiner.IssueStorageEvidence(sys.servers[0].ID(), report)
	if err != nil {
		t.Fatal(err)
	}
	if ev.AuditorID != "da:combiner" {
		t.Fatalf("evidence auditor = %q", ev.AuditorID)
	}
	if err := VerifyEvidence(combiner.scheme, ev); err != nil {
		t.Fatalf("combiner evidence does not verify: %v", err)
	}
}

// TestThresholdRescuesBreakerDeniedHolders: an open breaker is a latency
// prediction, not evidence of a crash. When so many breakers are open
// that the quorum would come up short, the combiner probes the denied
// holders anyway — a holder that answers correctly rejoins the quorum,
// its breaker closes, and the audit completes instead of aborting.
func TestThresholdRescuesBreakerDeniedHolders(t *testing.T) {
	f := newThrFixture(t, 3, 5)
	warrant := f.storeAndWarrant(t, 20)
	ag := f.agency(t, 1)

	// Holders 1..3 are healthy but their breakers were tripped by an
	// earlier outage; holders 4 and 5 are genuinely down.
	for i := 0; i < 3; i++ {
		br := ag.thr.health.Breaker(i)
		br.Report(false)
		br.Report(false)
		br.Report(false)
	}
	f.downs[3].SetDown(true)
	f.downs[4].SetDown(true)

	report, err := ag.AuditStorage(f.sys.clients[0], f.sys.user.ID(), warrant, storageCfg(4, 1))
	if err != nil {
		t.Fatalf("audit aborted despite a live quorum behind open breakers: %v", err)
	}
	if !report.Valid() {
		t.Fatalf("honest server flagged: %+v", report.Failures)
	}
	tr := report.Threshold
	if tr == nil {
		t.Fatal("no threshold trail")
	}
	if !reflect.DeepEqual(tr.Quorum, []int{1, 2, 3}) {
		t.Fatalf("rescued quorum = %v, want [1 2 3]", tr.Quorum)
	}
	// Only the genuinely-down holders stay blamed; the rescued ones do not.
	if !reflect.DeepEqual(tr.Crashed, []int{4, 5}) {
		t.Fatalf("crashed = %v, want [4 5]", tr.Crashed)
	}
	if len(tr.Byzantine) != 0 {
		t.Fatalf("rescue invented Byzantine holders: %v", tr.Byzantine)
	}
	// The successful probes closed the rescued holders' breakers.
	for i := 0; i < 3; i++ {
		if !ag.thr.health.Breaker(i).Allow() {
			t.Fatalf("holder %d breaker still open after successful rescue", i+1)
		}
	}
}
