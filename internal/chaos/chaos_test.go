package chaos

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
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
	for _, kind := range []string{":cheat(", ":shed("} {
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
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) accepted garbage", bad)
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

// TestRunDeterministic: a generated schedule carrying both adversaries
// (tamper, cheat) and shed among crashes and sick disks replays to a
// byte-identical report.
func TestRunDeterministic(t *testing.T) {
	run := func() []byte {
		rep := runSmall(t, func(c *Config) { c.Seed = 15; c.Tamper = true })
		for _, kind := range []string{":cheat(", ":shed(", ":crash("} {
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
		t.Fatalf("same seed, different reports:\n  %s\n  %s", a, b)
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
