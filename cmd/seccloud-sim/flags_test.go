package main

import (
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		flags   simFlags
		wantErr string // empty = accepted
	}{
		{name: "defaults", flags: simFlags{}},
		{name: "threshold healthy", flags: simFlags{ThresholdT: 3, ThresholdN: 5}},
		{name: "threshold with faults in budget",
			flags: simFlags{ThresholdT: 2, ThresholdN: 5, KilledAuditors: 2, ByzantineAuditors: 1}},
		{name: "t above n",
			flags:   simFlags{ThresholdT: 6, ThresholdN: 5},
			wantErr: "-threshold-t 6 exceeds -threshold-n 5"},
		{name: "t below one",
			flags:   simFlags{ThresholdT: 0, ThresholdN: 5},
			wantErr: "-threshold-t must be at least 1"},
		{name: "negative t",
			flags:   simFlags{ThresholdT: -2, ThresholdN: 5},
			wantErr: "-threshold-t must be at least 1"},
		{name: "negative killed auditors",
			flags:   simFlags{ThresholdT: 3, ThresholdN: 5, KilledAuditors: -1},
			wantErr: "-killed-auditors must not be negative"},
		{name: "negative byzantine auditors",
			flags:   simFlags{ThresholdT: 3, ThresholdN: 5, ByzantineAuditors: -3},
			wantErr: "-byzantine-auditors must not be negative"},
		{name: "fault schedule over budget",
			flags:   simFlags{ThresholdT: 3, ThresholdN: 5, KilledAuditors: 2, ByzantineAuditors: 1},
			wantErr: "exceed the n-t = 2 fault budget"},
		{name: "auditor faults without threshold mode",
			flags:   simFlags{KilledAuditors: 1},
			wantErr: "require threshold mode"},
		{name: "chaos sweep", flags: simFlags{Chaos: true, ChaosRuns: 6, ChaosTamper: true}},
		{name: "chaos replay",
			flags: simFlags{Chaos: true, ChaosRuns: 1, ChaosSteps: "e1:plant(forged-evidence,1)", ChaosShrink: true}},
		{name: "chaos sub-flags without chaos mode",
			flags:   simFlags{ChaosTamper: true},
			wantErr: "require chaos mode"},
		{name: "chaos steps without chaos mode",
			flags:   simFlags{ChaosSteps: "e1:restart(0)"},
			wantErr: "require chaos mode"},
		{name: "chaos and threshold at once",
			flags:   simFlags{Chaos: true, ChaosRuns: 1, ThresholdT: 2, ThresholdN: 5},
			wantErr: "mutually exclusive modes"},
		{name: "chaos and multitenant at once",
			flags:   simFlags{Chaos: true, ChaosRuns: 1, Multitenant: true},
			wantErr: "-chaos and -multitenant are mutually exclusive modes"},
		{name: "threshold and multitenant at once",
			flags:   simFlags{ThresholdT: 2, ThresholdN: 3, Multitenant: true},
			wantErr: "-threshold-t/-threshold-n and -multitenant are mutually exclusive modes"},
		{name: "multitenant", flags: simFlags{Multitenant: true}},
		{name: "chaos runs below one",
			flags:   simFlags{Chaos: true, ChaosRuns: 0},
			wantErr: "-chaos-runs must be at least 1"},
		{name: "chaos steps with a sweep",
			flags:   simFlags{Chaos: true, ChaosRuns: 4, ChaosSteps: "e1:restart(0)"},
			wantErr: "replays one explicit schedule"},
		{name: "chaos steps with tamper",
			flags:   simFlags{Chaos: true, ChaosRuns: 1, ChaosSteps: "e1:restart(0)", ChaosTamper: true},
			wantErr: "carries its own tamper steps"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.flags)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid flags rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid flags accepted: %+v", tc.flags)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
