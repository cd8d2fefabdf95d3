package main

import (
	"io"
	"strings"
	"testing"
)

// TestValidateFlags parses each row's command line and validates it. The
// threshold rows name the quorum checks that moved from flags into the
// chaos schedule, which validate parses up front.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // empty = accepted
	}{
		{name: "defaults"},
		{name: "threshold healthy", args: []string{"-chaos", "-chaos-steps", "e1:quorum(3,5)"}},
		{name: "threshold with faults in budget",
			args: []string{"-chaos", "-chaos-steps", "e1:quorum(2,5) e1:hkill(1) e1:hkill(2) e1:hbyz(3)"}},
		{name: "t above n",
			args:    []string{"-chaos", "-chaos-steps", "e1:quorum(6,5)"},
			wantErr: "e1:quorum(6,5): t must be in 1..n"},
		{name: "t below one",
			args:    []string{"-chaos", "-chaos-steps", "e1:quorum(0,5)"},
			wantErr: "t must be in 1..n"},
		{name: "negative t",
			args:    []string{"-chaos", "-chaos-steps", "e1:quorum(-2,5)"},
			wantErr: "t must be in 1..n"},
		{name: "negative killed auditors",
			args:    []string{"-chaos", "-chaos-steps", "e1:quorum(3,5) e1:hkill(-1)"},
			wantErr: "holder outside 1..5"},
		{name: "negative byzantine auditors",
			args:    []string{"-chaos", "-chaos-steps", "e1:quorum(3,5) e1:hbyz(-3)"},
			wantErr: "holder outside 1..5"},
		{name: "fault schedule over budget",
			args:    []string{"-chaos", "-chaos-steps", "e1:quorum(3,5) e1:hkill(1) e1:hkill(2) e1:hbyz(3)"},
			wantErr: "over the n-t = 2 budget"},
		{name: "auditor faults without threshold mode",
			args:    []string{"-chaos", "-chaos-steps", "e1:hkill(1)"},
			wantErr: "holder step without a quorum step"},
		{name: "chaos sweep", args: []string{"-chaos", "-chaos-runs", "6", "-chaos-tamper"}},
		{name: "chaos replay",
			args: []string{"-chaos", "-chaos-steps", "e1:plant(forged-evidence,1)", "-chaos-shrink"}},
		{name: "chaos sub-flags without chaos mode",
			args:    []string{"-chaos-tamper"},
			wantErr: "-chaos-tamper only applies in -chaos mode"},
		{name: "chaos steps without chaos mode",
			args:    []string{"-chaos-steps", "e1:restart(0)"},
			wantErr: "-chaos-steps only applies in -chaos mode"},
		{name: "chaos and threshold at once",
			args: []string{"-chaos", "-chaos-steps", "e1:quorum(2,3) e1:kill(1) e1:hkill(2) e2:revive(1)"}},
		{name: "chaos and multitenant at once",
			args:    []string{"-chaos", "-multitenant"},
			wantErr: "-chaos and -multitenant are mutually exclusive modes"},
		{name: "threshold and multitenant at once",
			args:    []string{"-multitenant", "-chaos-steps", "e1:quorum(2,3)"},
			wantErr: "-chaos-steps only applies in -chaos mode"},
		{name: "multitenant",
			args: []string{"-multitenant", "-tenants", "50000", "-epochs", "3", "-samples", "2", "-tamper-epoch", "2"}},
		{name: "multitenant flags in chaos mode",
			args:    []string{"-chaos", "-seed", "5", "-tamper-epoch", "2", "-workers", "4"},
			wantErr: "-seed only applies in -multitenant mode"},
		{name: "chaos flags in multitenant mode",
			args:    []string{"-multitenant", "-chaos-seed", "3"},
			wantErr: "-chaos-seed only applies in -chaos mode"},
		{name: "multitenant flags without a mode",
			args:    []string{"-workers", "4"},
			wantErr: "-workers only applies in -multitenant mode"},
		{name: "admin linger without admin",
			args:    []string{"-chaos", "-admin-linger", "30s"},
			wantErr: "-admin-linger requires -admin"},
		{name: "admin in either mode",
			args: []string{"-multitenant", "-admin", "127.0.0.1:0", "-admin-linger", "1s"}},
		{name: "chaos runs below one",
			args:    []string{"-chaos", "-chaos-runs", "0"},
			wantErr: "-chaos-runs must be at least 1"},
		{name: "chaos steps with a sweep",
			args:    []string{"-chaos", "-chaos-runs", "4", "-chaos-steps", "e1:restart(0)"},
			wantErr: "replays one explicit schedule"},
		{name: "chaos steps with tamper",
			args:    []string{"-chaos", "-chaos-steps", "e1:restart(0)", "-chaos-tamper"},
			wantErr: "carries its own tamper steps"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newSimFlags()
			f.fs.SetOutput(io.Discard)
			err := f.fs.Parse(tc.args)
			if err == nil {
				err = f.validate()
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid flags rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid flags accepted: %q", tc.args)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
