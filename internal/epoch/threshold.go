package epoch

import (
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"reflect"
	"time"

	"seccloud/internal/core"
	"seccloud/internal/ibc"
	"seccloud/internal/netsim"
	"seccloud/internal/obs"
	"seccloud/internal/pairing"
	"seccloud/internal/threshold"
	"seccloud/internal/workload"
)

// Threshold-agency scenario: the designated-verifier key is Shamir-split
// across n auditor share-holders and every epoch's storage audit is
// decided by a t-of-n quorum of partial verifications, while a rotating
// subset of holders is crashed and another subset forges partials. A
// single-DA agency holding the undealt key audits the same trace with
// the same challenge seeds, so every epoch cross-checks that auditor
// faults change WHO computed the verdict, never WHAT the verdict says.

// ThresholdConfig shapes the scenario.
type ThresholdConfig struct {
	// T of N is the quorum shape of the dealt verifier key.
	T, N int
	// Epochs is the number of audit cycles.
	Epochs int
	// Blocks sizes the user's stored dataset.
	Blocks int
	// SampleSize is the per-epoch storage audit sample.
	SampleSize int
	// CrashedHolders is how many share-holders are down during each
	// faulty epoch. The crashed subset rotates every epoch, so quorums
	// keep re-forming from different survivors.
	CrashedHolders int
	// ByzantineHolders is how many live share-holders forge partials
	// during each faulty epoch (caught by commitment proofs, replaced).
	ByzantineHolders int
	// FaultEpoch is the first epoch the crash/Byzantine schedule applies
	// (≤ 1 = from the start).
	FaultEpoch int
	// TamperEpoch, when > 0, rots every stored block at the start of that
	// epoch. Invalid verdicts from then on are detections; any earlier
	// invalid verdict is a false flag.
	TamperEpoch int
	// Workers bounds audit verification concurrency.
	Workers int
	// Seed drives the challenge draws.
	Seed int64
	// Hub receives the audit instruments; nil creates a private hub so
	// Metrics is always registry-derived.
	Hub *obs.Hub
}

func (c *ThresholdConfig) validate() error {
	if c.T < 1 || c.T > c.N {
		return fmt.Errorf("epoch: quorum %d-of-%d invalid", c.T, c.N)
	}
	if c.Epochs <= 0 || c.Blocks <= 0 || c.SampleSize <= 0 {
		return fmt.Errorf("epoch: epochs, blocks and sample size must be positive")
	}
	if c.CrashedHolders < 0 || c.ByzantineHolders < 0 {
		return fmt.Errorf("epoch: fault counts must be non-negative")
	}
	if c.CrashedHolders+c.ByzantineHolders > c.N-c.T {
		return fmt.Errorf("epoch: %d crashed + %d Byzantine holders exceed the n−t=%d fault budget",
			c.CrashedHolders, c.ByzantineHolders, c.N-c.T)
	}
	if c.TamperEpoch < 0 || c.TamperEpoch > c.Epochs {
		return fmt.Errorf("epoch: tamper epoch %d outside 0..%d", c.TamperEpoch, c.Epochs)
	}
	return nil
}

// ThresholdEpochStats summarizes one audit cycle.
type ThresholdEpochStats struct {
	Epoch int
	// Crashed / Byzantine are the 1-based share indices scheduled faulty.
	Crashed   []int
	Byzantine []int
	// Quorum is the share subset whose verified partials decided the
	// epoch's verdict.
	Quorum []int
	// Recoveries counts holders that failed mid-collection and were
	// replaced while still reaching quorum.
	Recoveries int
	// Valid is the threshold agency's verdict.
	Valid bool
	// AgreesWithSingleDA reports the verdict (validity, sample and
	// failure set) matched the undealt-key reference audit.
	AgreesWithSingleDA bool
	// Detection / FalseFlag classify an invalid verdict by the tamper
	// schedule.
	Detection bool
	FalseFlag bool
	// CombinedDigest fingerprints the quorum's combined aggregate check.
	CombinedDigest string
}

// ThresholdMetrics is the registry-derived cross-check of a run.
type ThresholdMetrics struct {
	Audits     int
	Recoveries int
	Byzantine  int
	FalseFlags int
}

// SummarizeThresholdRegistry derives ThresholdMetrics from a snapshot.
func SummarizeThresholdRegistry(s obs.Snapshot) ThresholdMetrics {
	return ThresholdMetrics{
		Audits:     int(s.Total("audits_total", nil)),
		Recoveries: int(s.Total("threshold_quorum_recoveries_total", nil)),
		Byzantine:  int(s.Total("threshold_byzantine_partials_total", nil)),
		FalseFlags: int(s.Total("sim_false_flags_total", nil)),
	}
}

// ThresholdResult is the whole scenario outcome.
type ThresholdResult struct {
	Config ThresholdConfig
	Epochs []ThresholdEpochStats
	// Audits counts completed threshold audits (= Epochs unless a quorum
	// was unavailable, which the config forbids).
	Audits int
	// QuorumRecoveries / ByzantinePartials total the auditor-fault trail.
	QuorumRecoveries  int
	ByzantinePartials int
	// Detections / FalseFlags classify invalid verdicts; FalseFlags must
	// be 0 — auditor faults never become storage accusations.
	Detections int
	FalseFlags int
	// FirstDetectionEpoch is the first epoch that caught the tamper
	// (0 = never).
	FirstDetectionEpoch int
	// VerdictMismatches counts epochs where the quorum verdict diverged
	// from the single-DA reference (must be 0).
	VerdictMismatches int
	// DistinctQuorums counts the different share subsets that decided
	// verdicts across the run.
	DistinctQuorums int
	// Metrics is the registry-derived cross-check.
	Metrics ThresholdMetrics
}

// RunThreshold executes the scenario.
func RunThreshold(cfg ThresholdConfig) (*ThresholdResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	hub := cfg.Hub
	if hub == nil {
		hub = obs.NewHub()
	}
	falseFlags := hub.Counter("sim_false_flags_total").With()

	sio, err := ibc.Setup(pairing.InsecureTest256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	sp := sio.Params()

	// The dealt verifier identity. The single-DA reference holds this key
	// directly; the combiner never sees it.
	const verifierID = "da:threshold"
	verifierKey, err := sio.Extract(verifierID)
	if err != nil {
		return nil, err
	}
	deal, err := threshold.SplitVerifierKey(sp, verifierKey, cfg.T, cfg.N, rand.Reader)
	if err != nil {
		return nil, err
	}
	holders := make([]*threshold.AuditorShare, cfg.N)
	downs := make([]*netsim.DownableHandler, cfg.N)
	shareClients := make([]netsim.Client, cfg.N)
	for i, share := range deal.Shares {
		holders[i] = threshold.NewAuditorShare(sp, share, rand.Reader)
		downs[i] = netsim.NewDownableHandler(holders[i])
		shareClients[i] = netsim.NewLoopback(downs[i], netsim.LinkConfig{})
	}

	combinerKey, err := sio.Extract("da:threshold-combiner")
	if err != nil {
		return nil, err
	}
	combiner, err := core.NewAgency(sp, combinerKey, rand.Reader).
		WithWorkers(cfg.Workers).WithObs(hub).
		WithThreshold(core.ThresholdConfig{Public: deal.Public, Clients: shareClients})
	if err != nil {
		return nil, err
	}
	reference := core.NewAgency(sp, verifierKey, rand.Reader).WithWorkers(cfg.Workers)

	serverKey, err := sio.Extract("cs:threshold-0")
	if err != nil {
		return nil, err
	}
	srv, err := core.NewServer(sp, serverKey, core.ServerConfig{
		Random:  rand.Reader,
		Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	client := netsim.NewLoopback(srv, netsim.LinkConfig{})

	userKey, err := sio.Extract("user:threshold-alice")
	if err != nil {
		return nil, err
	}
	usr := core.NewUser(sp, userKey, rand.Reader)
	gen := workload.NewGenerator(cfg.Seed)
	ds := gen.GenDataset(usr.ID(), cfg.Blocks, 8)
	req, err := usr.PrepareStore(ds, srv.ID(), verifierID)
	if err != nil {
		return nil, err
	}
	if err := usr.Store(client, req); err != nil {
		return nil, err
	}
	warrant, err := usr.Delegate(verifierID, "", time.Now().Add(24*time.Hour))
	if err != nil {
		return nil, err
	}

	res := &ThresholdResult{Config: cfg}
	quorumsSeen := map[string]bool{}
	tampered := false
	for ep := 1; ep <= cfg.Epochs; ep++ {
		stats := ThresholdEpochStats{Epoch: ep}

		if cfg.TamperEpoch > 0 && ep == cfg.TamperEpoch {
			for pos := 0; pos < cfg.Blocks; pos++ {
				if _, ok := srv.TamperBlock(usr.ID(), uint64(pos), []byte("threshold-rot")); !ok {
					return nil, fmt.Errorf("epoch %d: tampering block %d found nothing", ep, pos)
				}
			}
			tampered = true
		}

		// Rotate the fault schedule: crashed holders first, Byzantine
		// holders next, both sliding one index per epoch so successive
		// quorums form from different survivors.
		faulty := cfg.FaultEpoch <= ep || cfg.FaultEpoch <= 1
		for i := range downs {
			downs[i].SetDown(false)
			holders[i].SetByzantine(false)
		}
		if faulty {
			for i := 0; i < cfg.CrashedHolders; i++ {
				idx := (ep - 1 + i) % cfg.N
				downs[idx].SetDown(true)
				stats.Crashed = append(stats.Crashed, idx+1)
			}
			for i := 0; i < cfg.ByzantineHolders; i++ {
				idx := (ep - 1 + cfg.CrashedHolders + i) % cfg.N
				holders[idx].SetByzantine(true)
				stats.Byzantine = append(stats.Byzantine, idx+1)
			}
		}

		// Both agencies draw the identical challenge sample.
		auditCfg := func() core.AuditConfig {
			return core.AuditConfig{
				DatasetSize:     cfg.Blocks,
				SampleSize:      cfg.SampleSize,
				Rng:             mrand.New(mrand.NewSource(cfg.Seed*1009 + int64(ep))),
				BatchSignatures: true,
				Workers:         cfg.Workers,
			}
		}
		report, err := combiner.AuditStorage(client, usr.ID(), warrant, auditCfg())
		if err != nil {
			if errors.Is(err, core.ErrQuorumUnavailable) {
				return nil, fmt.Errorf("epoch %d: quorum unavailable under a within-budget fault schedule: %w", ep, err)
			}
			return nil, fmt.Errorf("epoch %d: threshold audit: %w", ep, err)
		}
		ref, err := reference.AuditStorage(client, usr.ID(), warrant, auditCfg())
		if err != nil {
			return nil, fmt.Errorf("epoch %d: reference audit: %w", ep, err)
		}

		tr := report.Threshold
		if tr == nil {
			return nil, fmt.Errorf("epoch %d: threshold report has no trail", ep)
		}
		stats.Quorum = tr.Quorum
		stats.Recoveries = tr.Recoveries
		stats.CombinedDigest = tr.CombinedDigest
		stats.Valid = report.Valid()
		stats.AgreesWithSingleDA = report.Valid() == ref.Valid() &&
			reflect.DeepEqual(report.Sampled, ref.Sampled) &&
			reflect.DeepEqual(report.Failures, ref.Failures)
		if !stats.AgreesWithSingleDA {
			res.VerdictMismatches++
		}
		if !report.Valid() {
			if tampered {
				stats.Detection = true
				res.Detections++
				if res.FirstDetectionEpoch == 0 {
					res.FirstDetectionEpoch = ep
				}
			} else {
				stats.FalseFlag = true
				res.FalseFlags++
				falseFlags.Inc()
			}
		}
		quorumsSeen[fmt.Sprint(tr.Quorum)] = true
		res.Audits++
		res.QuorumRecoveries += tr.Recoveries
		res.ByzantinePartials += len(tr.Byzantine)
		res.Epochs = append(res.Epochs, stats)
	}
	res.DistinctQuorums = len(quorumsSeen)
	res.Metrics = SummarizeThresholdRegistry(hub.Registry().Snapshot())
	return res, nil
}
