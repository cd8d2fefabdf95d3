package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"seccloud/internal/chaos"
)

// simFlags is seccloud-sim's command line: the admin endpoint, then the
// fleet simulator's own flags.
type simFlags struct {
	fs *flag.FlagSet

	admin       string
	adminLinger time.Duration

	chaos       bool
	chaosSeed   int64
	chaosSteps  string
	chaosRuns   int
	chaosTamper bool
	chaosShrink bool
}

// newSimFlags defines every flag on a fresh set that returns parse
// errors instead of exiting.
func newSimFlags() *simFlags {
	f := &simFlags{fs: flag.NewFlagSet("seccloud-sim", flag.ContinueOnError)}
	fs := f.fs
	fs.StringVar(&f.admin, "admin", "", "serve /metrics, /traces, /healthz and pprof on this address (e.g. 127.0.0.1:6060 or :0; empty = off)")
	fs.DurationVar(&f.adminLinger, "admin-linger", 0, "keep the admin endpoint up this long after the run (requires -admin)")

	fs.BoolVar(&f.chaos, "chaos", false, "run the seed-deterministic fleet simulator: chaos nemesis + invariant engine")
	fs.Int64Var(&f.chaosSeed, "chaos-seed", 1, "chaos schedule seed (the repro-line seed)")
	fs.StringVar(&f.chaosSteps, "chaos-steps", "", "explicit chaos schedule, e.g. from a printed repro line")
	fs.IntVar(&f.chaosRuns, "chaos-runs", 1, "run this many consecutive seeds starting at -chaos-seed")
	fs.BoolVar(&f.chaosTamper, "chaos-tamper", false, "include a real storage cheater and per-epoch computation cheaters in each generated chaos schedule")
	fs.BoolVar(&f.chaosShrink, "chaos-shrink", false, "minimize any failing chaos run to a one-line repro before printing it")

	return f
}

// validate rejects inconsistent flags up front with a clean one-line
// error instead of letting them surface as mid-run aborts, or be
// dropped: a chaos flag without -chaos, -admin-linger without -admin, and
// a -chaos-steps schedule the default fleet would refuse.
func (f *simFlags) validate() error {
	var err error
	f.fs.Visit(func(fl *flag.Flag) {
		// Every -chaos-* flag shapes a -chaos run: one set without -chaos
		// is refused, never silently dropped.
		if err == nil && !f.chaos && strings.HasPrefix(fl.Name, "chaos-") {
			err = fmt.Errorf("-%s only applies in -chaos mode", fl.Name)
		}
	})
	if err != nil {
		return err
	}
	if f.adminLinger != 0 && f.admin == "" {
		return fmt.Errorf("-admin-linger requires -admin")
	}
	if !f.chaos {
		return nil
	}
	if f.chaosRuns < 1 {
		return fmt.Errorf("-chaos-runs must be at least 1 (got %d)", f.chaosRuns)
	}
	if f.chaosSteps == "" {
		return nil
	}
	if f.chaosRuns != 1 {
		return fmt.Errorf("-chaos-steps replays one explicit schedule; drop -chaos-runs %d", f.chaosRuns)
	}
	if f.chaosTamper {
		return fmt.Errorf("-chaos-tamper shapes generated schedules; an explicit -chaos-steps schedule carries its own tamper steps")
	}
	sched, err := chaos.ParseSchedule(f.chaosSteps)
	if err != nil {
		return err
	}
	d := chaos.Defaults(f.chaosSeed)
	return sched.Validate(d.Servers, d.ActiveEpochs+d.QuietEpochs)
}
