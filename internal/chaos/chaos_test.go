package chaos

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"seccloud/internal/core"
)

func TestScheduleStringParseRoundTrip(t *testing.T) {
	var all []string
	for seed := int64(1); seed <= 20; seed++ {
		sched := Generate(seed, 3, 4, 3, seed%2 == 0)
		text := sched.String()
		all = append(all, text)
		parsed, err := ParseSchedule(text)
		if err != nil {
			t.Fatalf("seed %d: parse(%q): %v", seed, text, err)
		}
		if parsed.String() != text {
			t.Fatalf("seed %d: roundtrip mismatch:\n  in:  %s\n  out: %s", seed, text, parsed.String())
		}
	}
	for _, kind := range []string{":cheat(", ":shed(", ":quorum(", ":hkill(", ":hbyz("} {
		if !strings.Contains(strings.Join(all, " "), kind) {
			t.Errorf("no generated schedule carries a %s step", kind)
		}
	}
}

func TestScheduleParseRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"heal",                          // missing epoch prefix
		"e0:heal",                       // epoch < 1
		"e1:frobnicate(2)",              // unknown kind
		"e1:faults(0,drop=2,corrupt=0)", // rate out of range
		"e1:cut(da>)",                   // empty side
		"e1:skew(da,banana)",            // bad duration
		"e1:plant(made-up,0)",           // unknown plant
		"e1:cheat(0,csc=1.5)",           // confidence out of range
		"e1:shed(0,1)",                  // shed takes one server
		"e2:quorum(2,3)",                // the quorum is dealt at epoch 1
		"e1:quorum(2,3) e1:quorum(3,5)", // a second quorum
		"e1:quorum(6,5)",                // t > n
		"e1:quorum(0,5)",                // t < 1
		"e1:quorum(2,3) e1:hkill(4)",    // holder outside 1..n
		"e1:quorum(2,3) e1:hbyz(0)",     // holders are 1-based
		"e1:hbyz(1)",                    // holder step without a quorum
		"e1:quorum(3,5) e2:hkill(1) e2:hkill(2) e2:hbyz(3)", // 3 > n−t faults in one epoch
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) accepted garbage", bad)
		}
	}
}

// TestRunRefusesInvalidQuorum: a schedule built in code rather than
// parsed meets the same checks before any cluster is built.
func TestRunRefusesInvalidQuorum(t *testing.T) {
	cfg := Defaults(1)
	cfg.Schedule = Schedule{{Epoch: 1, Kind: StepHKill, Target: 1}}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "without a quorum step") {
		t.Fatalf("holder step without a quorum: err = %v", err)
	}
}

// TestRunRefusesInvalidQuorumConfig: every quorum shape, fault budget
// and epoch range a run cannot honour is refused by Run with a chaos
// error before any cluster is built.
func TestRunRefusesInvalidQuorumConfig(t *testing.T) {
	q := func(tt, n int) Step { return Step{Epoch: 1, Kind: StepQuorum, T: tt, N: n} }
	bad := []func(*Config){
		func(c *Config) { c.Schedule = Schedule{q(0, 5)} }, // t < 1
		func(c *Config) { c.Schedule = Schedule{q(6, 5)} }, // t > n
		func(c *Config) { c.ActiveEpochs = 0 },
		func(c *Config) { // 3 holders down in one epoch > n−t = 2
			c.Schedule = Schedule{q(3, 5),
				{Epoch: 2, Kind: StepHKill, Target: 1},
				{Epoch: 2, Kind: StepHKill, Target: 2},
				{Epoch: 2, Kind: StepHKill, Target: 3}}
		},
		func(c *Config) { c.Schedule = Schedule{q(3, 5), {Epoch: 2, Kind: StepHByz, Target: -1}} },
		func(c *Config) { c.Schedule = Schedule{{Epoch: 99, Kind: StepTamper, Target: 0, Blocks: 1}} },
	}
	for i, mutate := range bad {
		cfg := Defaults(1)
		cfg.Dir = t.TempDir()
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		} else if !strings.Contains(err.Error(), "chaos:") {
			t.Errorf("case %d: unexpected error %v", i, err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(42, 3, 4, 3, true).String()
	b := Generate(42, 3, 4, 3, true).String()
	if a != b {
		t.Fatalf("same seed, different schedules:\n  %s\n  %s", a, b)
	}
	c := Generate(43, 3, 4, 3, true).String()
	if a == c {
		t.Fatalf("seeds 42 and 43 generated the same schedule: %s", a)
	}
}

// TestGenerateStableBesideQuorumSteps: the quorum and holder draws come
// from streams of their own, so with those steps taken out every
// schedule is the one the generator drew before it knew of quorums. A
// shared stream would shift every later draw.
func TestGenerateStableBesideQuorumSteps(t *testing.T) {
	pinned := []struct {
		seed   int64
		tamper bool
		want   string
	}{
		{1, false, "e1:shed(2) e2:cut(csp>0+2) e2:restart(1) e2:skew(1,-44ms) e3:heal e3:disk(2,sync=0.05,short=0.06,rot=0.08,rename=0.28) e4:diskheal(2) e4:shed(1) e4:restart(0) e4:disk(0,sync=0.17,short=0.11,rot=0.09,rename=0.26) e5:diskheal(0) e5:skew(1,0s)"},
		{1, true, "e1:cheat(0,csc=0.5) e1:cut(csp>0+2) e1:restart(1) e1:skew(1,-44ms) e2:cheat(0,csc=0.5) e2:shed(0) e2:faults(1,drop=0.27,corrupt=0.07) e3:tamper(1,2) e3:cheat(1,csc=0) e4:cheat(2,csc=0.5) e4:heal e4:shed(0) e5:calm(1) e5:skew(1,0s)"},
		{15, false, "e1:kill(1) e1:skew(2,-53ms) e1:faults(1,drop=0.16,corrupt=0.01) e2:revive(1) e3:crash(0,mid-snapshot) e3:crash(2,before-log) e3:disk(1,sync=0.04,short=0.05,rot=0.13,rename=0.2) e4:diskheal(1) e4:shed(1) e5:calm(1) e5:skew(2,0s)"},
		{15, true, "e1:tamper(0,2) e1:cheat(1,csc=0.5) e1:disk(2,sync=0.02,short=0.13,rot=0.16,rename=0.01) e1:crash(2,before-log) e1:shed(0) e2:cheat(0,csc=0) e2:crash(2,after-log) e2:disk(1,sync=0.25,short=0.03,rot=0.2,rename=0.17) e2:shed(2) e3:cheat(0,csc=0.25) e3:diskheal(1) e3:diskheal(2) e4:cheat(2,csc=0.5) e4:skew(2,-48ms) e4:kill(0) e5:revive(0) e5:skew(2,0s)"},
		{42, false, "e1:crash(2,mid-snapshot) e2:cut(1+2>csp) e2:shed(0) e2:kill(2) e3:shed(2) e4:heal e4:revive(2)"},
		{42, true, "e1:cheat(2,csc=0.5) e1:shed(1) e1:disk(2,sync=0.08,short=0.03,rot=0.19,rename=0.17) e2:cheat(0,csc=0.25) e2:kill(2) e3:tamper(2,2) e3:cheat(2,csc=0.25) e3:revive(2) e3:diskheal(2) e3:faults(2,drop=0.07,corrupt=0.04) e3:crash(2,mid-snapshot) e3:restart(1) e4:cheat(0,csc=0.5) e4:shed(0) e4:crash(2,torn-tail) e5:calm(2)"},
	}
	for _, p := range pinned {
		var kept Schedule
		for _, s := range Generate(p.seed, 3, 4, 3, p.tamper) {
			switch s.Kind {
			case StepQuorum, StepHKill, StepHByz:
			default:
				kept = append(kept, s)
			}
		}
		if got := kept.String(); got != p.want {
			t.Errorf("seed %d tamper %v: server-side steps moved:\n  got  %s\n  want %s", p.seed, p.tamper, got, p.want)
		}
	}
}

func TestGenerateHealsEverythingAtCleanup(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		sched := Generate(seed, 3, 4, 3, false)
		cleanup := 5
		kills, revives := 0, 0
		sick := map[int]bool{}
		for _, s := range sched {
			switch s.Kind {
			case StepKill:
				kills++
			case StepRevive:
				revives++
			case StepDisk:
				sick[s.Target] = true
			case StepDiskHeal:
				delete(sick, s.Target)
			}
			if s.Epoch > cleanup {
				t.Fatalf("seed %d: step %s beyond the cleanup epoch", seed, s)
			}
		}
		if kills != revives {
			t.Fatalf("seed %d: %d kills but %d revives", seed, kills, revives)
		}
		if len(sick) != 0 {
			t.Fatalf("seed %d: disks still sick after cleanup: %v", seed, sick)
		}
	}
}

// runSmall runs a compact deterministic chaos run for tests.
func runSmall(t *testing.T, mod func(*Config)) *Report {
	t.Helper()
	cfg := Defaults(7)
	cfg.ActiveEpochs = 2
	cfg.Dir = t.TempDir()
	if mod != nil {
		mod(&cfg)
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("chaos.Run: %v", err)
	}
	return rep
}

func TestCleanRunInvariantsHold(t *testing.T) {
	rep := runSmall(t, nil)
	if !rep.OK() {
		t.Fatalf("invariants violated on a generated schedule:\n  %s",
			strings.Join(rep.Violations, "\n  "))
	}
	if rep.FalseFlags != 0 {
		t.Fatalf("false flags: %d, want 0", rep.FalseFlags)
	}
	if rep.Audits == 0 || rep.Ops == 0 {
		t.Fatalf("run did no work: %+v", rep)
	}
}

func TestTamperDetectedWithoutFalseFlags(t *testing.T) {
	rep := runSmall(t, func(c *Config) {
		c.Seed = 11
		c.Tamper = true
	})
	if !rep.Tampered {
		t.Fatal("schedule carried no tamper step")
	}
	if !rep.Detected {
		t.Fatalf("real tamper went undetected (schedule %s)", rep.Schedule)
	}
	if rep.FalseFlags != 0 {
		t.Fatalf("false flags: %d, want 0", rep.FalseFlags)
	}
	if !rep.OK() {
		t.Fatalf("invariants violated:\n  %s", strings.Join(rep.Violations, "\n  "))
	}
}

// TestRunDeterministic: generated schedules carrying both adversaries
// (tamper, cheat) and shed among crashes and sick disks, or a dealt
// quorum with forging and killed holders among partitions and restarts,
// replay to byte-identical reports.
func TestRunDeterministic(t *testing.T) {
	for seed, kinds := range map[int64][]string{
		15: {":cheat(", ":shed(", ":crash("},
		11: {":quorum(", ":hbyz(", ":hkill("},
	} {
		run := func() []byte {
			rep := runSmall(t, func(c *Config) { c.Seed = seed; c.Tamper = true })
			for _, kind := range kinds {
				if !strings.Contains(rep.Schedule, kind) {
					t.Fatalf("schedule %s lacks a %s step", rep.Schedule, kind)
				}
			}
			rep.Elapsed = 0
			b, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		if a, b := run(), run(); string(a) != string(b) {
			t.Fatalf("seed %d, different reports:\n  %s\n  %s", seed, a, b)
		}
	}
}

// TestCheatConvictedByJobAudit: a server guessing every result in epoch 1
// is convicted by that epoch's job audit — the cheat lasts one epoch, so
// every detection is an epoch-1 detection — and nobody else is accused.
func TestCheatConvictedByJobAudit(t *testing.T) {
	rep := runSmall(t, func(c *Config) { c.Schedule = mustParse(t, "e1:cheat(1,csc=0)") })
	if rep.JobDetections != 1 || rep.FalseFlags != 0 || !rep.OK() {
		t.Fatalf("job detections %d (want 1), false flags %d, violations %v",
			rep.JobDetections, rep.FalseFlags, rep.Violations)
	}
	if rep.Exposure != 0 {
		t.Fatalf("exposure %d: a flagged sub-job's forgeries reached the user", rep.Exposure)
	}
}

// TestShedEpochsStillConvictCheat: two servers shed in epoch 1 and one in
// epoch 2 refuse audit rounds, which is overload, never cheating; the
// cheat in calm epoch 3 is still convicted.
func TestShedEpochsStillConvictCheat(t *testing.T) {
	rep := runSmall(t, func(c *Config) {
		c.ActiveEpochs = 3
		c.Schedule = mustParse(t, "e1:shed(0) e1:shed(2) e2:shed(1) e3:cheat(2,csc=0)")
	})
	if rep.ShedRounds == 0 {
		t.Fatal("shed epochs recorded no shed rounds")
	}
	if rep.FalseFlags != 0 || !rep.OK() {
		t.Fatalf("false flags %d, violations:\n  %s", rep.FalseFlags, strings.Join(rep.Violations, "\n  "))
	}
	if rep.JobDetections != 1 {
		t.Fatalf("calm-epoch cheat: %d job detections, want 1", rep.JobDetections)
	}
}

// runQuorum runs an explicit schedule and also returns the chaos
// cluster, whose audit outcomes carry the deciding share sets.
func runQuorum(t *testing.T, active int, steps string) (*Report, *cluster) {
	t.Helper()
	cfg := Defaults(7)
	cfg.ActiveEpochs = active
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

// TestQuorumHealthyAgreesWithSingleDA: a healthy 3-of-5 quorum decides
// every audit with its first three shares, each verdict (validity,
// sample, failures) agrees with the single-DA reference replay — the
// agreement invariant held — and every fleet audit's signed evidence
// carries the quorum's combined digest.
func TestQuorumHealthyAgreesWithSingleDA(t *testing.T) {
	rep, cc := runQuorum(t, 2, "e1:quorum(3,5)")
	if rep.Quorums != 1 || rep.QuorumRecoveries != 0 || rep.ByzantinePartials != 0 {
		t.Fatalf("quorums %d, recoveries %d, byzantine %d; want 1, 0, 0",
			rep.Quorums, rep.QuorumRecoveries, rep.ByzantinePartials)
	}
	for _, o := range cc.outcomes {
		if fmt.Sprint(o.Quorum) != "[1 2 3]" {
			t.Fatalf("epoch %d primary %d decided by %v, want [1 2 3]", o.Epoch, o.Primary, o.Quorum)
		}
	}
	if len(cc.chain) != len(cc.outcomes) {
		t.Fatalf("%d evidence blobs for %d audits", len(cc.chain), len(cc.outcomes))
	}
	for _, e := range cc.chain {
		ev, err := core.DecodeEvidence(e.Raw)
		if err != nil {
			t.Fatal(err)
		}
		if ev.ThresholdQuorum == "" || ev.ThresholdCombined == "" {
			t.Fatalf("epoch %d primary %d: evidence without the quorum trail: quorum %q digest %q",
				e.Epoch, e.Primary, ev.ThresholdQuorum, ev.ThresholdCombined)
		}
	}
}

// TestQuorumSurvivesRotatingHolderFaults: a 2-of-5 quorum with two
// holders killed and one forging every epoch, rotating, keeps auditing
// in agreement with the single DA, replaces the failed holders and
// catches the forgeries; each epoch's quorum is the first two holders
// its faults left.
func TestQuorumSurvivesRotatingHolderFaults(t *testing.T) {
	rep, cc := runQuorum(t, 4, "e1:quorum(2,5) e1:hkill(1) e1:hkill(2) e1:hbyz(3) "+
		"e2:hkill(2) e2:hkill(3) e2:hbyz(4) e3:hkill(3) e3:hkill(4) e3:hbyz(5) "+
		"e4:hkill(4) e4:hkill(5) e4:hbyz(1)")
	if rep.QuorumRecoveries == 0 || rep.ByzantinePartials == 0 {
		t.Fatalf("recoveries %d, byzantine %d: the holder faults never bit", rep.QuorumRecoveries, rep.ByzantinePartials)
	}
	want := map[int]string{1: "[4 5]", 2: "[1 5]", 3: "[1 2]", 4: "[2 3]", 5: "[1 2]", 6: "[1 2]"}
	for _, o := range cc.outcomes {
		if got := fmt.Sprint(o.Quorum); got != want[o.Epoch] {
			t.Fatalf("epoch %d primary %d decided by %s, want %s", o.Epoch, o.Primary, got, want[o.Epoch])
		}
	}
	if rep.Quorums != 4 {
		t.Fatalf("%d distinct quorums, want 4", rep.Quorums)
	}
}

// TestQuorumConvictsTamperThroughDegradedQuorum: rot planted in epoch 3,
// while holder 1 is down and holder 2 forges, is convicted by the quorum
// of holders 3 and 4 with no false flag, in agreement with the single DA.
func TestQuorumConvictsTamperThroughDegradedQuorum(t *testing.T) {
	rep, cc := runQuorum(t, 4, "e1:quorum(2,5) e2:hkill(2) e2:hbyz(3) "+
		"e3:tamper(0,2) e3:hkill(1) e3:hbyz(2) e4:hkill(3) e4:hbyz(1)")
	if !rep.Detected || rep.ByzantinePartials == 0 {
		t.Fatalf("detected %v, byzantine %d", rep.Detected, rep.ByzantinePartials)
	}
	convicted := false
	for _, o := range cc.outcomes {
		if o.Epoch == 3 && len(o.Accused) > 0 {
			if fmt.Sprint(o.Quorum) != "[3 4]" || o.Accused[0] != 0 {
				t.Fatalf("epoch 3 primary %d: accused %v decided by %v, want server 0 by [3 4]", o.Primary, o.Accused, o.Quorum)
			}
			convicted = true
		}
	}
	if !convicted {
		t.Fatal("no epoch-3 audit accused the tampered server")
	}
}

// --- mutation self-tests: the invariant engine must catch planted
// violations, or its green runs mean nothing. ---------------------------

func mustParse(t *testing.T, text string) Schedule {
	t.Helper()
	s, err := ParseSchedule(text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	return s
}

func hasInvariant(rep *Report, inv string) bool {
	for _, v := range rep.Violations {
		if strings.HasPrefix(v, "inv="+inv+" ") {
			return true
		}
	}
	return false
}

func TestPlantFalseFlagIsCaught(t *testing.T) {
	rep := runSmall(t, func(c *Config) {
		c.Schedule = mustParse(t, "e1:plant(false-flag,1)")
	})
	if rep.OK() {
		t.Fatal("planted false flag went uncaught — the invariant engine is blind")
	}
	if !hasInvariant(rep, "false-flag") {
		t.Fatalf("expected a false-flag violation, got:\n  %s", strings.Join(rep.Violations, "\n  "))
	}
	if rep.FalseFlags == 0 {
		t.Fatal("false-flag counter did not move")
	}
	// The rot also reaches the job audit of server 1's sub-job, and that
	// accusation of an honest server must be reported too.
	if !strings.Contains(strings.Join(rep.Violations, "\n"), "job audit of e1/s1: accused honest server 1") {
		t.Fatalf("no false-flag violation for the job audit:\n  %s", strings.Join(rep.Violations, "\n  "))
	}
}

func TestPlantLostWriteIsCaught(t *testing.T) {
	rep := runSmall(t, func(c *Config) {
		c.Schedule = mustParse(t, "e1:plant(lost-write,2)")
	})
	if rep.OK() {
		t.Fatal("planted lost acked write went uncaught")
	}
	if !hasInvariant(rep, "durability") {
		t.Fatalf("expected a durability violation, got:\n  %s", strings.Join(rep.Violations, "\n  "))
	}
}

func TestPlantForgedEvidenceIsCaught(t *testing.T) {
	rep := runSmall(t, func(c *Config) {
		c.Schedule = mustParse(t, "e1:plant(forged-evidence,0)")
	})
	if rep.OK() {
		t.Fatal("forged evidence byte went uncaught")
	}
	if !hasInvariant(rep, "evidence-chain") {
		t.Fatalf("expected an evidence-chain violation, got:\n  %s", strings.Join(rep.Violations, "\n  "))
	}
}

func TestShrinkProducesMinimalByteIdenticalRepro(t *testing.T) {
	if testing.Short() {
		t.Skip("shrinking runs many full simulations")
	}
	cfg := Defaults(31)
	cfg.ActiveEpochs = 2
	cfg.Dir = t.TempDir()
	// A forged-evidence plant buried in harmless noise steps: the
	// shrinker should strip the noise and keep (at most) the plant.
	sched := mustParse(t,
		"e1:skew(da,50ms) e1:faults(0,drop=0.1,corrupt=0) e1:plant(forged-evidence,1) "+
			"e2:calm(0) e2:skew(da,0s) e2:restart(2)")
	res, err := Shrink(cfg, sched, 40)
	if err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if res.Invariant != "evidence-chain" {
		t.Fatalf("shrink preserved %q, want evidence-chain", res.Invariant)
	}
	if len(res.Schedule) >= len(sched) {
		t.Fatalf("shrinker removed nothing: %d steps -> %d", len(sched), len(res.Schedule))
	}
	if len(res.Schedule) != 1 {
		t.Logf("minimal schedule has %d steps (plant is 1): %s", len(res.Schedule), res.Schedule)
	}

	// The printed repro must re-fail byte-for-byte.
	reCfg := cfg
	reCfg.Schedule = res.Schedule
	first, err := Run(reCfg)
	if err != nil {
		t.Fatalf("repro run: %v", err)
	}
	second, err := Run(reCfg)
	if err != nil {
		t.Fatalf("repro rerun: %v", err)
	}
	if strings.Join(first.Violations, "\n") != strings.Join(second.Violations, "\n") {
		t.Fatalf("repro is not byte-for-byte:\n--- a\n%s\n--- b\n%s",
			strings.Join(first.Violations, "\n"), strings.Join(second.Violations, "\n"))
	}
	if !strings.Contains(res.Repro(), "-chaos-seed") {
		t.Fatalf("repro line lacks -chaos-seed: %s", res.Repro())
	}
}

func TestReportReproLine(t *testing.T) {
	rep := &Report{Seed: 5, Schedule: "e1:heal"}
	want := `seccloud-sim -chaos -chaos-seed 5 -chaos-steps "e1:heal"`
	if rep.Repro() != want {
		t.Fatalf("repro = %q, want %q", rep.Repro(), want)
	}
	if rep.Elapsed != 0 { // silence unused-field linters conceptually
		t.Log(time.Duration(rep.Elapsed))
	}
}
