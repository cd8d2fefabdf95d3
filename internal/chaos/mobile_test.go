package chaos

import (
	"fmt"
	"strings"
	"testing"
)

// runMobile replays Mobile(seed, n, b, epochs, csc), plus the weather
// steps in extra, on a fleet of n with audit budget t and returns the
// chaos report, every invariant checked. The tests that call it share
// nothing and run in parallel.
func runMobile(t *testing.T, seed int64, n, b, epochs int, csc float64, samples int, extra string) *Report {
	t.Helper()
	sched, err := Mobile(seed, n, b, epochs, csc)
	if err != nil {
		t.Fatalf("Mobile: %v", err)
	}
	weather, err := ParseSchedule(extra)
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	cfg := Defaults(seed)
	cfg.Servers, cfg.Blocks, cfg.ActiveEpochs, cfg.QuietEpochs = n, 12, epochs, 1
	cfg.SampleSize, cfg.Schedule, cfg.Dir = samples, append(sched, weather...), t.TempDir()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.OK() || rep.FalseFlags != 0 {
		t.Fatalf("false flags %d, violations:\n  %s", rep.FalseFlags, strings.Join(rep.Violations, "\n  "))
	}
	return rep
}

func TestValidation(t *testing.T) {
	for _, c := range []struct {
		n, b, epochs int
		csc          float64
	}{{3, 3, 1, 0}, {3, -1, 1, 0}, {3, 1, 0, 0}, {3, 1, 1, -0.1}, {3, 1, 1, 2}} {
		if _, err := Mobile(1, c.n, c.b, c.epochs, c.csc); err == nil {
			t.Errorf("Mobile(n=%d b=%d epochs=%d csc=%v) accepted", c.n, c.b, c.epochs, c.csc)
		}
	}
}

// TestEpochStatsShape: every epoch corrupts exactly b distinct servers,
// and the adversary moves between epochs.
func TestEpochStatsShape(t *testing.T) {
	sched, err := Mobile(5, 4, 2, 6, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	picks := map[int]map[int]bool{}
	for _, s := range sched {
		if s.Kind != StepCheat || s.CSC != 0.5 {
			t.Fatalf("unexpected step %s", s)
		}
		if picks[s.Epoch] == nil {
			picks[s.Epoch] = map[int]bool{}
		}
		picks[s.Epoch][s.Target] = true
	}
	moved := false
	for ep := 1; ep <= 6; ep++ {
		if len(picks[ep]) != 2 {
			t.Fatalf("epoch %d corrupts %v, want 2 distinct servers", ep, picks[ep])
		}
		if ep > 1 && !sameSet(picks[ep], picks[ep-1]) {
			moved = true
		}
	}
	if !moved {
		t.Fatal("the adversary never moved in 6 epochs")
	}
}

func sameSet(a, b map[int]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return len(a) == len(b)
}

func TestHonestFleetNeverFlagged(t *testing.T) {
	t.Parallel()
	rep := runMobile(t, 1, 3, 0, 2, 0, 2, "")
	if rep.JobDetections != 0 || rep.Exposure != 0 || rep.JobAudits == 0 {
		t.Fatalf("honest fleet: %d job audits, %d detections, exposure %d", rep.JobAudits, rep.JobDetections, rep.Exposure)
	}
}

// TestFullCheaterDetectedImmediately: one active epoch, so every
// detection is an epoch-1 detection of a server guessing every result.
func TestFullCheaterDetectedImmediately(t *testing.T) {
	t.Parallel()
	rep := runMobile(t, 2, 3, 1, 1, 0, 3, "")
	if rep.JobDetections != 1 || rep.Exposure != 0 {
		t.Fatalf("full cheater: %d detections (want 1), exposure %d (want 0)", rep.JobDetections, rep.Exposure)
	}
}

// TestAuditingReducesExposure: against the same adversary walk, an audit
// of every sub-task flags each sub-job that forged a result, so no
// forgery reaches the user, while a one-task sample lets some through.
func TestAuditingReducesExposure(t *testing.T) {
	t.Parallel()
	sparse := runMobile(t, 4, 4, 1, 4, 0.5, 1, "")
	full := runMobile(t, 4, 4, 1, 4, 0.5, 3, "")
	if full.Exposure != 0 || full.JobDetections == 0 {
		t.Fatalf("full audit: exposure %d, detections %d", full.Exposure, full.JobDetections)
	}
	if sparse.Exposure == 0 {
		t.Fatalf("t=1 audit let no forgery through (detections %d)", sparse.JobDetections)
	}
}

// The weather scenarios the epoch simulator used to run, now as chaos
// schedules beside the mobile adversary.

// TestCrashScheduleRecoversWithoutFalseFlags: one server a epoch dies at
// the armed crash point and recovers from its WAL; a crash is never
// evidence.
func TestCrashScheduleRecoversWithoutFalseFlags(t *testing.T) {
	t.Parallel()
	for _, point := range []string{"before-log", "after-log", "mid-snapshot", "torn-tail"} {
		t.Run(point, func(t *testing.T) {
			rep := runMobile(t, 6, 3, 0, 3, 0, 2,
				fmt.Sprintf("e1:crash(0,%[1]s) e2:crash(1,%[1]s) e3:crash(2,%[1]s)", point))
			if rep.OpsFailed == 0 {
				t.Fatal("no crash point fired: every op succeeded")
			}
			if rep.JobDetections != 0 || rep.Accusations != 0 {
				t.Fatalf("crash schedule accused: %d job detections, %d accusations", rep.JobDetections, rep.Accusations)
			}
		})
	}
}

// TestCrashScheduleStillDetectsCheaters: crash recovery does not launder
// a server guessing every result.
func TestCrashScheduleStillDetectsCheaters(t *testing.T) {
	t.Parallel()
	rep := runMobile(t, 7, 3, 1, 2, 0, 3, "e1:crash(0,after-log) e2:crash(1,after-log)")
	if rep.JobDetections == 0 {
		t.Fatal("cheater never detected under the crash schedule")
	}
}

// TestFleetKillScheduleZeroFalseFlags: whole-epoch outages every other
// epoch; audits fail over and nothing is accused.
func TestFleetKillScheduleZeroFalseFlags(t *testing.T) {
	t.Parallel()
	rep := runMobile(t, 5, 5, 0, 4, 0, 2, "e2:kill(0) e3:revive(0) e4:kill(1) e5:revive(1)")
	if rep.Failovers == 0 {
		t.Fatal("no fleet audit round failed over during an outage")
	}
	if rep.JobDetections != 0 || rep.Accusations != 0 {
		t.Fatalf("outages accused: %d job detections, %d accusations", rep.JobDetections, rep.Accusations)
	}
}

// TestFleetKillPlusBadReplica: an outage beside silent rot on another
// replica; the rot is convicted and nobody else is.
func TestFleetKillPlusBadReplica(t *testing.T) {
	t.Parallel()
	rep := runMobile(t, 11, 5, 0, 4, 0, 12, "e2:kill(0) e3:tamper(2,2) e3:revive(0)")
	if !rep.Detected {
		t.Fatal("rot on replica 2 was never convicted")
	}
}

// TestOverloadScheduleNeverFalseFlags: every server sheds every other
// epoch; a shed round is overload, never cheating.
func TestOverloadScheduleNeverFalseFlags(t *testing.T) {
	t.Parallel()
	rep := runMobile(t, 21, 3, 0, 4, 0, 2, "e2:shed(0) e2:shed(1) e2:shed(2) e4:shed(0) e4:shed(1) e4:shed(2)")
	if rep.ShedRounds == 0 {
		t.Fatal("the shed schedule refused no audit round")
	}
	if rep.JobDetections != 0 || rep.Accusations != 0 {
		t.Fatalf("overload accused: %d job detections, %d accusations", rep.JobDetections, rep.Accusations)
	}
}

// TestOverloadDoesNotLaunderCheating: the whole fleet sheds in epoch 2,
// and the full cheater of calm epoch 1 is still convicted.
func TestOverloadDoesNotLaunderCheating(t *testing.T) {
	t.Parallel()
	rep := runMobile(t, 2, 3, 1, 2, 0, 3, "e2:shed(0) e2:shed(1) e2:shed(2)")
	if rep.JobDetections == 0 || rep.ShedRounds == 0 {
		t.Fatalf("job detections %d, shed rounds %d: want both nonzero", rep.JobDetections, rep.ShedRounds)
	}
}
