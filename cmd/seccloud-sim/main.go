// Command seccloud-sim runs SecCloud's simulations, one mode at a time.
// Chaos mode is the fleet simulator: seed-deterministic schedules that
// compose weather (network, disk, clock, process faults, overload,
// share-holder faults) with the mobile adversary of §III-B (storage rot
// and computation cheaters), checked by an invariant engine against a
// fault-free, single-DA reference replay.
//
// Usage:
//
//	seccloud-sim -chaos -chaos-seed 7           # one seeded composed-fault schedule
//	seccloud-sim -chaos -chaos-runs 8 -chaos-tamper   # fixed-seed schedule sweep
//	seccloud-sim -chaos -chaos-seed 5 -chaos-steps "e1:plant(lost-write,2)"   # replay a repro line
//	seccloud-sim -chaos -chaos-steps "e1:shed(0) e2:cheat(1,csc=0)"   # an explicit schedule
//	seccloud-sim -chaos -chaos-steps "e1:quorum(2,5) e1:hkill(1) e1:hbyz(2)"   # t-of-n audit quorum under holder faults
//	seccloud-sim -multitenant -tenants 50000    # Zipf traffic through cross-tenant batches
//
// Exactly one of -chaos and -multitenant selects the mode; with none,
// seccloud-sim prints usage and exits 2, as it does for a flag of the
// other mode.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"seccloud/internal/epoch"
	"seccloud/internal/obs"
)

func main() {
	f := newSimFlags()
	if err := f.fs.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(2)
	}
	if err := f.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "seccloud-sim:", err)
		os.Exit(2)
	}
	if !f.chaos && !f.multitenant {
		fmt.Fprintln(os.Stderr, "seccloud-sim: choose a mode: -chaos or -multitenant")
		f.fs.Usage()
		os.Exit(2)
	}

	var hub *obs.Hub
	var adminSrv *obs.AdminServer
	if f.admin != "" {
		hub = obs.NewHub()
		srv, err := hub.ListenAndServe(f.admin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "seccloud-sim:", err)
			os.Exit(1)
		}
		adminSrv = srv
		fmt.Printf("admin endpoint listening on http://%s/metrics\n", srv.Addr())
	}

	var err error
	if f.chaos {
		_, err = runChaos(chaosRunFlags{
			Seed:   f.chaosSeed,
			Steps:  f.chaosSteps,
			Runs:   f.chaosRuns,
			Tamper: f.chaosTamper,
			Shrink: f.chaosShrink,
			Hub:    hub,
		})
	} else {
		err = runMultiTenant(epoch.MultiTenantConfig{
			Tenants:          f.tenants,
			SessionsPerEpoch: f.tenantSess,
			Epochs:           f.epochs,
			ZipfS:            f.tenantZipf,
			BlocksPerTenant:  f.tenantBlocks,
			SampleSize:       f.samples,
			Workers:          f.workers,
			CrossTenantBatch: f.crossBatch,
			FlushLimit:       f.flushLimit,
			TamperEpoch:      f.tamperEpoch,
			TamperRank:       f.tamperRank,
			Seed:             f.seed,
			Hub:              hub,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "seccloud-sim:", err)
		os.Exit(1)
	}
	if adminSrv != nil {
		if f.adminLinger > 0 {
			fmt.Printf("admin endpoint up for another %v (scrape http://%s/metrics)\n", f.adminLinger, adminSrv.Addr())
			time.Sleep(f.adminLinger)
		}
		_ = adminSrv.Close()
	}
}
