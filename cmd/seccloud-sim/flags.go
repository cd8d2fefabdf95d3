package main

import (
	"fmt"
	"strings"
)

// simFlags holds the flag values that can be rejected before any
// simulation state is built.
type simFlags struct {
	ThresholdT        int
	ThresholdN        int
	KilledAuditors    int
	ByzantineAuditors int
	Multitenant       bool
	Chaos             bool
	ChaosSteps        string
	ChaosRuns         int
	ChaosTamper       bool
	ChaosShrink       bool
}

// validateFlags rejects inconsistent flag combinations up front with a
// clean one-line error instead of letting them surface as mid-run
// aborts or blame-less quorum failures.
func validateFlags(f simFlags) error {
	var modes []string
	if f.Chaos {
		modes = append(modes, "-chaos")
	}
	if f.ThresholdT != 0 || f.ThresholdN != 0 {
		modes = append(modes, "-threshold-t/-threshold-n")
	}
	if f.Multitenant {
		modes = append(modes, "-multitenant")
	}
	if len(modes) > 1 {
		return fmt.Errorf("%s are mutually exclusive modes", strings.Join(modes, " and "))
	}
	if f.KilledAuditors < 0 {
		return fmt.Errorf("-killed-auditors must not be negative (got %d)", f.KilledAuditors)
	}
	if f.ByzantineAuditors < 0 {
		return fmt.Errorf("-byzantine-auditors must not be negative (got %d)", f.ByzantineAuditors)
	}
	if !f.Chaos {
		// ChaosRuns is 0 when the caller never touched the chaos flag
		// block and 1 (the flag default) when it came through main.
		if f.ChaosSteps != "" || f.ChaosRuns > 1 || f.ChaosTamper || f.ChaosShrink {
			return fmt.Errorf("-chaos-steps/-chaos-runs/-chaos-tamper/-chaos-shrink require chaos mode (-chaos)")
		}
	} else {
		if f.ChaosRuns < 1 {
			return fmt.Errorf("-chaos-runs must be at least 1 (got %d)", f.ChaosRuns)
		}
		if f.ChaosSteps != "" && f.ChaosRuns != 1 {
			return fmt.Errorf("-chaos-steps replays one explicit schedule; drop -chaos-runs %d", f.ChaosRuns)
		}
		if f.ChaosSteps != "" && f.ChaosTamper {
			return fmt.Errorf("-chaos-tamper shapes generated schedules; an explicit -chaos-steps schedule carries its own tamper steps")
		}
	}
	if f.ThresholdT == 0 && f.ThresholdN == 0 {
		if f.KilledAuditors > 0 || f.ByzantineAuditors > 0 {
			return fmt.Errorf("-killed-auditors/-byzantine-auditors require threshold mode (-threshold-t/-threshold-n)")
		}
		return nil // threshold mode off
	}
	if f.ThresholdT < 1 {
		return fmt.Errorf("-threshold-t must be at least 1 (got %d)", f.ThresholdT)
	}
	if f.ThresholdT > f.ThresholdN {
		return fmt.Errorf("-threshold-t %d exceeds -threshold-n %d", f.ThresholdT, f.ThresholdN)
	}
	if budget := f.ThresholdN - f.ThresholdT; f.KilledAuditors+f.ByzantineAuditors > budget {
		return fmt.Errorf("%d killed + %d byzantine auditors exceed the n-t = %d fault budget",
			f.KilledAuditors, f.ByzantineAuditors, budget)
	}
	return nil
}
