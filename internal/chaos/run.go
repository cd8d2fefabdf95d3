package chaos

import (
	"fmt"
	"os"
	"time"

	"seccloud/internal/ibc"
	"seccloud/internal/obs"
)

// Config shapes one chaos run. The zero value is not runnable; use
// Defaults() or fill every field.
type Config struct {
	// Seed is the single source of randomness: schedule generation, link
	// faults, disk faults, audit sampling and retry jitter all derive
	// sub-seeds from it. Same seed, same run.
	Seed int64
	// Servers is the replica fleet size.
	Servers int
	// Blocks is the outsourced dataset size; the top positions
	// (tamperReserve of them) are reserved for the nemesis's tamper so
	// client writes and rot never collide.
	Blocks int
	// ActiveEpochs is how long the nemesis acts; QuietEpochs is the
	// healing horizon the liveness invariant measures.
	ActiveEpochs, QuietEpochs int
	// OpsPerEpoch is the client write workload.
	OpsPerEpoch int
	// SampleSize is the per-audit challenge budget, of fleet storage and
	// job audits alike.
	SampleSize int
	// MaxStepsPerEpoch bounds the generator's moves per epoch.
	MaxStepsPerEpoch int
	// Tamper asks the generator to include a real cheating replica and a
	// computation cheater every active epoch, so detection runs under
	// weather.
	Tamper bool
	// Schedule, when non-nil, replaces the generated schedule (shrinker
	// reruns, explicit reproducers, mutation self-tests).
	Schedule Schedule
	// Dir is the WAL root; empty uses a temp directory.
	Dir string
	// Workers bounds hashing/verification pools (outcome-neutral).
	Workers int
	// SIO, when non-nil, reuses an existing IBC setup — key generation
	// dominates small runs, and verdicts never depend on key material.
	SIO *ibc.SIO
	// Hub, when non-nil, receives the chaos cluster's metrics (audit
	// outcomes, disk faults, chaos_violations_total). The reference
	// replay always gets a private hub so shared instruments count real
	// chaos traffic only. Safe to share across concurrent runs.
	Hub *obs.Hub
}

// Defaults returns the standard small-cluster configuration: 3 replicas,
// 8 blocks, 4 chaotic epochs, 2 quiet ones.
func Defaults(seed int64) Config {
	return Config{
		Seed:         seed,
		Servers:      3,
		Blocks:       8,
		ActiveEpochs: 4,
		QuietEpochs:  2,
		OpsPerEpoch:  4,
		// 4 of 8 positions per round: with tamperReserve (2) blocks rotted
		// a round misses the rot with probability C(6,4)/C(8,4) ≈ 0.21, an
		// audit (2 rounds) with ≈ 0.046. Even a cheater the weather keeps
		// off the network until the quiet phase still faces two serving
		// audits there (miss ≈ 2·10⁻³); a cheater serving all four
		// post-tamper epochs faces eight rounds (miss ≈ 4·10⁻⁶). At 3 the
		// two-audit case missed ≈ 1.6% of the time — about one seed per
		// 200-run sweep, observed live as seed 27.
		SampleSize:       4,
		MaxStepsPerEpoch: 3,
	}
}

func (c *Config) validate() error {
	if c.Servers < 3 {
		return fmt.Errorf("chaos: need ≥ 3 servers for quorum cross-examination, got %d", c.Servers)
	}
	if c.Blocks < tamperReserve+2 {
		return fmt.Errorf("chaos: need ≥ %d blocks, got %d", tamperReserve+2, c.Blocks)
	}
	if c.ActiveEpochs < 1 || c.QuietEpochs < 1 {
		return fmt.Errorf("chaos: need ≥ 1 active and ≥ 1 quiet epoch")
	}
	if c.OpsPerEpoch < 1 || c.SampleSize < 1 {
		return fmt.Errorf("chaos: ops and sample size must be positive")
	}
	if c.MaxStepsPerEpoch < 0 {
		return fmt.Errorf("chaos: negative step budget")
	}
	return nil
}

// Report is the outcome of one chaos run.
type Report struct {
	Seed     int64  `json:"seed"`
	Schedule string `json:"schedule"`
	Steps    int    `json:"steps"`
	Epochs   int    `json:"epochs"`

	Ops       int `json:"ops"`
	OpsFailed int `json:"ops_failed"`
	Audits    int `json:"audits"`

	FalseFlags  int  `json:"false_flags"`
	Accusations int  `json:"accusations"`
	Detected    bool `json:"detected"`
	Tampered    bool `json:"tampered"`

	LostRounds  int `json:"lost_rounds"`
	Failovers   int `json:"failovers"`
	AuditErrors int `json:"audit_errors"`
	// ShedRounds counts audit round trips an admission gate refused,
	// whether the round then moved to another replica or was lost.
	ShedRounds int `json:"shed_rounds"`

	// JobAudits counts sub-job audits and JobDetections those that
	// flagged their server. Exposure counts the results cheaters forged
	// in sub-jobs no audit flagged: wrong answers the user accepted.
	JobAudits     int `json:"job_audits"`
	JobDetections int `json:"job_detections"`
	Exposure      int `json:"exposure"`

	DiskFaults int64 `json:"disk_faults"`
	NetDrops   int64 `json:"net_drops"`

	// Quorums counts the distinct share sets that decided audits (0: a
	// single DA). QuorumRecoveries counts partial requests a killed or
	// forging holder failed while the quorum still formed, and
	// ByzantinePartials the forged answers among them — both as the
	// registry's threshold_* counters count them.
	Quorums           int `json:"quorums"`
	QuorumRecoveries  int `json:"quorum_recoveries"`
	ByzantinePartials int `json:"byzantine_partials"`

	// Violations is empty iff every invariant held.
	Violations []string `json:"violations,omitempty"`

	Elapsed time.Duration `json:"elapsed_ns"`
}

// OK reports whether every invariant held.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Repro is the one-line reproducer: feeding these flags back into
// seccloud-sim reruns the exact schedule, byte-for-byte.
func (r *Report) Repro() string {
	return fmt.Sprintf("seccloud-sim -chaos -chaos-seed %d -chaos-steps %q", r.Seed, r.Schedule)
}

// Run executes one seed-deterministic chaos run: build the schedule (or
// take an explicit one), run the chaos cluster under it, run the
// fault-free reference replay of the same schedule's adversarial steps,
// then hand everything to the invariant engine.
func Run(cfg Config) (*Report, error) {
	rep, _, err := run(cfg)
	return rep, err
}

// run is Run that also hands back the chaos cluster, for tests that read
// what the report does not carry.
func run(cfg Config) (*Report, *cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	sched := cfg.Schedule
	if sched == nil {
		sched = Generate(cfg.Seed, cfg.Servers, cfg.ActiveEpochs, cfg.MaxStepsPerEpoch, cfg.Tamper)
	}
	if err := sched.validate(); err != nil {
		return nil, nil, err
	}
	// A step past the last epoch would never run; refuse it rather than
	// report a clean run that skipped it.
	for _, s := range sched {
		if last := cfg.ActiveEpochs + cfg.QuietEpochs; s.Epoch > last {
			return nil, nil, fmt.Errorf("chaos: %s: past the run's last epoch %d", s, last)
		}
	}

	// Every run gets a fresh directory (under cfg.Dir when set, the
	// system temp dir otherwise): recovering a previous run's WALs would
	// poison determinism — and the shrinker runs dozens of times.
	dir, err := os.MkdirTemp(cfg.Dir, "chaos-run-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	// The chaos run: full weather.
	cc, err := newCluster(cfg, dir+"/chaos", false, sched.quorum())
	if err != nil {
		return nil, nil, fmt.Errorf("chaos: building cluster: %w", err)
	}
	if err := cc.runEpochs(sched); err != nil {
		return nil, nil, err
	}

	// The reference replay: identical ops, identical audit draws,
	// identical adversary — zero weather and a single DA. Sharing the
	// chaos run's SIO halves setup cost without coupling verdicts.
	refCfg := cfg
	if refCfg.SIO == nil {
		refCfg.SIO = cc.sio
	}
	refCfg.Hub = nil
	ref, err := newCluster(refCfg, dir+"/ref", true, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("chaos: building reference cluster: %w", err)
	}
	if err := ref.runEpochs(sched); err != nil {
		return nil, nil, err
	}

	// The invariant engine's final pass.
	cc.checkChain()
	cc.checkLiveness()
	cc.checkRecovery()
	checkAgreement(cc, ref)

	var diskFaults int64
	for _, d := range cc.disks {
		diskFaults += d.Counts().Total()
	}
	recoveries, forged := 0, 0
	for _, h := range cc.holders {
		recoveries += h.failed
		forged += h.forged
	}
	quorums := map[string]bool{}
	note := func(q []int) {
		if len(q) > 0 {
			quorums[fmt.Sprint(q)] = true
		}
	}
	for _, o := range cc.outcomes {
		note(o.Quorum)
	}
	for _, o := range cc.jobOutcomes {
		note(o.Quorum)
	}
	rep := &Report{
		Seed:              cfg.Seed,
		Schedule:          sched.String(),
		Steps:             len(sched),
		Epochs:            cfg.ActiveEpochs + cfg.QuietEpochs,
		Ops:               cc.opsTotal,
		OpsFailed:         cc.opsFailed,
		Audits:            len(cc.outcomes),
		FalseFlags:        cc.falseFlags,
		Accusations:       cc.accusations,
		Detected:          cc.detected,
		Tampered:          len(cc.led.tamperContent) > 0,
		LostRounds:        cc.lostRounds,
		Failovers:         cc.failovers,
		AuditErrors:       cc.auditErrors,
		ShedRounds:        cc.shedRounds,
		JobAudits:         len(cc.jobOutcomes),
		JobDetections:     cc.jobDetections,
		Exposure:          cc.exposure,
		DiskFaults:        diskFaults,
		NetDrops:          cc.part.Drops(),
		Quorums:           len(quorums),
		QuorumRecoveries:  recoveries,
		ByzantinePartials: forged,
		Violations:        cc.violations.list,
		Elapsed:           time.Since(start),
	}
	return rep, cc, nil
}
