package main

import (
	"flag"
	"fmt"
	"time"

	"seccloud/internal/chaos"
)

// simFlags is seccloud-sim's command line: the flags every mode takes,
// then each mode's own.
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

	multitenant  bool
	epochs       int
	samples      int
	seed         int64
	workers      int
	tenants      int
	tenantSess   int
	tenantZipf   float64
	tenantBlocks int
	crossBatch   bool
	flushLimit   int
	tamperEpoch  int
	tamperRank   int
}

// modeOf names the mode each mode-specific flag belongs to; a flag set
// outside its mode is refused, never silently dropped.
var modeOf = map[string]string{
	"chaos-seed": "-chaos", "chaos-steps": "-chaos", "chaos-runs": "-chaos",
	"chaos-tamper": "-chaos", "chaos-shrink": "-chaos",

	"epochs": "-multitenant", "samples": "-multitenant", "seed": "-multitenant",
	"workers": "-multitenant", "tenants": "-multitenant", "tenant-sessions": "-multitenant",
	"tenant-zipf": "-multitenant", "tenant-blocks": "-multitenant", "cross-batch": "-multitenant",
	"flush-limit": "-multitenant", "tamper-epoch": "-multitenant", "tamper-rank": "-multitenant",
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

	fs.BoolVar(&f.multitenant, "multitenant", false, "run the multi-tenant scheduler simulation")
	fs.IntVar(&f.epochs, "epochs", 6, "number of epochs")
	fs.IntVar(&f.samples, "samples", 3, "audit sample size t")
	fs.Int64Var(&f.seed, "seed", 1, "simulation seed")
	fs.IntVar(&f.workers, "workers", 1, "audit/hashing worker pool size (1 = sequential; outcomes never depend on this)")
	fs.IntVar(&f.tenants, "tenants", 100_000, "registered tenant population")
	fs.IntVar(&f.tenantSess, "tenant-sessions", 40, "audit sessions per epoch drawn from the Zipf trace")
	fs.Float64Var(&f.tenantZipf, "tenant-zipf", 1.3, "Zipf traffic skew exponent (> 1)")
	fs.IntVar(&f.tenantBlocks, "tenant-blocks", 8, "stored blocks per materialized tenant")
	fs.BoolVar(&f.crossBatch, "cross-batch", true, "fold all tenants' signature checks into shared aggregates (false = per-tenant baseline)")
	fs.IntVar(&f.flushLimit, "flush-limit", 0, "signature checks per cross-tenant aggregate (0 = one flush per drain)")
	fs.IntVar(&f.tamperEpoch, "tamper-epoch", 0, "epoch at which one tenant's stored blocks rot (0 = never)")
	fs.IntVar(&f.tamperRank, "tamper-rank", 0, "Zipf rank of the tampered tenant (0 = traffic head)")
	return f
}

// validate rejects inconsistent flags up front with a clean one-line
// error instead of letting them surface as mid-run aborts, or be
// dropped: two modes at once, a flag set outside its mode, -admin-linger
// without -admin, and a -chaos-steps schedule chaos would refuse.
func (f *simFlags) validate() error {
	if f.chaos && f.multitenant {
		return fmt.Errorf("-chaos and -multitenant are mutually exclusive modes")
	}
	mode := ""
	switch {
	case f.chaos:
		mode = "-chaos"
	case f.multitenant:
		mode = "-multitenant"
	}
	var err error
	f.fs.Visit(func(fl *flag.Flag) {
		if want := modeOf[fl.Name]; err == nil && want != "" && want != mode {
			err = fmt.Errorf("-%s only applies in %s mode", fl.Name, want)
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
	_, err = chaos.ParseSchedule(f.chaosSteps)
	return err
}
