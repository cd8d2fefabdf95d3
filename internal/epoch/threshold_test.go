package epoch

import (
	"strings"
	"testing"
)

func thresholdBaseConfig() ThresholdConfig {
	return ThresholdConfig{
		T: 3, N: 5,
		Epochs:     4,
		Blocks:     12,
		SampleSize: 6,
		Seed:       42,
	}
}

func TestRunThresholdHealthyAgreesWithSingleDA(t *testing.T) {
	res, err := RunThreshold(thresholdBaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Audits != 4 || res.FalseFlags != 0 || res.Detections != 0 {
		t.Fatalf("healthy run: %+v", res)
	}
	if res.VerdictMismatches != 0 {
		t.Fatalf("quorum verdicts diverged from the single-DA reference: %d", res.VerdictMismatches)
	}
	if res.QuorumRecoveries != 0 || res.ByzantinePartials != 0 {
		t.Fatalf("healthy run recorded auditor faults: %+v", res)
	}
	for _, ep := range res.Epochs {
		if !ep.AgreesWithSingleDA || !ep.Valid || ep.CombinedDigest == "" {
			t.Fatalf("epoch %d: %+v", ep.Epoch, ep)
		}
	}
	if res.Metrics.FalseFlags != 0 || res.Metrics.Audits == 0 {
		t.Fatalf("metrics cross-check: %+v", res.Metrics)
	}
}

func TestRunThresholdSurvivesRotatingFaults(t *testing.T) {
	cfg := thresholdBaseConfig()
	cfg.T, cfg.N = 2, 5
	cfg.Epochs = 5
	cfg.CrashedHolders = 2
	cfg.ByzantineHolders = 1
	res, err := RunThreshold(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Audits != 5 {
		t.Fatalf("audits = %d, want 5", res.Audits)
	}
	if res.FalseFlags != 0 {
		t.Fatalf("auditor faults became storage accusations: %d false flags", res.FalseFlags)
	}
	if res.VerdictMismatches != 0 {
		t.Fatalf("faulty-quorum verdicts diverged from reference: %d", res.VerdictMismatches)
	}
	if res.QuorumRecoveries == 0 || res.ByzantinePartials == 0 {
		t.Fatalf("rotating faults recorded no recoveries: %+v", res)
	}
	// The crashed subset slides every epoch, so different quorums decide.
	if res.DistinctQuorums < 2 {
		t.Fatalf("fault rotation never changed the quorum: %d distinct", res.DistinctQuorums)
	}
	if res.Metrics.Recoveries != res.QuorumRecoveries || res.Metrics.Byzantine != res.ByzantinePartials {
		t.Fatalf("registry disagrees with report trail: %+v vs %+v", res.Metrics, res)
	}
}

func TestRunThresholdDetectsTamperThroughQuorum(t *testing.T) {
	cfg := thresholdBaseConfig()
	cfg.T, cfg.N = 2, 5
	cfg.Epochs = 4
	cfg.CrashedHolders = 1
	cfg.ByzantineHolders = 1
	cfg.TamperEpoch = 3
	res, err := RunThreshold(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstDetectionEpoch != 3 {
		t.Fatalf("first detection at epoch %d, want 3", res.FirstDetectionEpoch)
	}
	if res.Detections != 2 {
		t.Fatalf("detections = %d, want 2 (epochs 3 and 4)", res.Detections)
	}
	if res.FalseFlags != 0 || res.Metrics.FalseFlags != 0 {
		t.Fatalf("false flags: %d (metrics %d)", res.FalseFlags, res.Metrics.FalseFlags)
	}
	if res.VerdictMismatches != 0 {
		t.Fatalf("detection verdicts diverged from reference: %d", res.VerdictMismatches)
	}
}

func TestRunThresholdValidatesConfig(t *testing.T) {
	bad := []func(*ThresholdConfig){
		func(c *ThresholdConfig) { c.T = 0 },
		func(c *ThresholdConfig) { c.T = 6 },
		func(c *ThresholdConfig) { c.Epochs = 0 },
		func(c *ThresholdConfig) { c.CrashedHolders = 3 }, // 3 > n−t = 2
		func(c *ThresholdConfig) { c.ByzantineHolders = -1 },
		func(c *ThresholdConfig) { c.TamperEpoch = 99 },
	}
	for i, mutate := range bad {
		cfg := thresholdBaseConfig()
		mutate(&cfg)
		if _, err := RunThreshold(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		} else if !strings.Contains(err.Error(), "epoch:") {
			t.Errorf("case %d: unexpected error %v", i, err)
		}
	}
}
