package main

import (
	"io"
	"strings"
	"testing"
)

// TestValidateFlags parses each row's command line and validates it. The
// threshold rows name the quorum checks that moved from flags into the
// chaos schedule, which validate parses and checks against the default
// fleet up front; the schedule rows name each step the default fleet
// cannot run as written.
func TestValidateFlags(t *testing.T) {
	steps := func(sched string) []string { return []string{"-chaos", "-chaos-steps", sched} }
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
		{name: "multitenant flags in chaos mode",
			args:    []string{"-chaos", "-seed", "5", "-tamper-epoch", "2", "-workers", "4"},
			wantErr: "flag provided but not defined: -seed"},
		{name: "multitenant flags without a mode",
			args:    []string{"-workers", "4"},
			wantErr: "flag provided but not defined: -workers"},
		{name: "tenants", args: steps("e1:tenants(50000,24) e2:ttamper(0)")},
		{name: "admin linger without admin",
			args:    []string{"-chaos", "-admin-linger", "30s"},
			wantErr: "-admin-linger requires -admin"},
		{name: "admin with linger",
			args: []string{"-chaos", "-admin", "127.0.0.1:0", "-admin-linger", "1s"}},
		{name: "kill past the fleet", args: steps("e1:kill(7)"), wantErr: "e1:kill(7): server outside 0..2"},
		{name: "kill below zero", args: steps("e1:kill(-1)"), wantErr: "server outside 0..2"},
		{name: "faults past the fleet", args: steps("e1:faults(9,drop=0.1,corrupt=0)"), wantErr: "server outside 0..2"},
		{name: "cheat past the fleet", args: steps("e1:cheat(5,csc=0)"), wantErr: "server outside 0..2"},
		{name: "shed past the fleet", args: steps("e1:shed(3)"), wantErr: "server outside 0..2"},
		{name: "disk past the fleet", args: steps("e1:disk(4,sync=0,short=0,rot=0,rename=0)"), wantErr: "server outside 0..2"},
		{name: "restart past the fleet", args: steps("e1:restart(3)"), wantErr: "server outside 0..2"},
		{name: "plant past the fleet", args: steps("e1:plant(lost-write,4)"), wantErr: "server outside 0..2"},
		{name: "tamper past the reserve", args: steps("e1:tamper(0,100)"), wantErr: "a tamper rots 1..2 blocks"},
		{name: "tamper of nothing", args: steps("e1:tamper(0,0)"), wantErr: "a tamper rots 1..2 blocks"},
		{name: "tamper below zero", args: steps("e1:tamper(0,-1)"), wantErr: "a tamper rots 1..2 blocks"},
		{name: "cut of unknown groups", args: steps("e1:cut(x>y)"), wantErr: `group "x" is neither da, csp nor a server`},
		{name: "unknown crash point", args: steps("e1:crash(0,bogus)"), wantErr: `unknown crash point "bogus"`},
		{name: "skew of an unknown node", args: steps("e1:skew(zz,1s)"), wantErr: `node "zz" is neither da nor a server`},
		{name: "tenants past epoch 1", args: steps("e2:tenants(100,4)"), wantErr: "the tenants are registered at epoch 1"},
		{name: "a second tenants step", args: steps("e1:tenants(100,4) e1:tenants(50,2)"), wantErr: "a second tenants step"},
		{name: "one tenant", args: steps("e1:tenants(1,4)"), wantErr: "k must be in 2..1000000"},
		{name: "no sessions", args: steps("e1:tenants(100,0)"), wantErr: "s must be in 1..10000"},
		{name: "ttamper without tenants", args: steps("e2:ttamper(0)"), wantErr: "tenant tamper without a tenants step"},
		{name: "ttamper past the population", args: steps("e1:tenants(100,4) e2:ttamper(100)"), wantErr: "tenant outside 0..99"},
		{name: "step past the last epoch", args: steps("e7:heal"), wantErr: "past the run's last epoch 6"},
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
