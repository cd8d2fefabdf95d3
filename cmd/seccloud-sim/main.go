// Command seccloud-sim runs SecCloud's simulations, one mode at a time.
// Chaos mode is the fleet simulator: seed-deterministic schedules that
// compose weather (network, disk, clock, process faults, overload) with
// the mobile adversary of §III-B (storage rot and computation cheaters),
// checked by an invariant engine against a fault-free reference replay.
//
// Usage:
//
//	seccloud-sim -chaos -chaos-seed 7           # one seeded composed-fault schedule
//	seccloud-sim -chaos -chaos-runs 8 -chaos-tamper   # fixed-seed schedule sweep
//	seccloud-sim -chaos -chaos-seed 5 -chaos-steps "e1:plant(lost-write,2)"   # replay a repro line
//	seccloud-sim -chaos -chaos-steps "e1:shed(0) e2:cheat(1,csc=0)"   # an explicit schedule
//	seccloud-sim -threshold-t 2 -threshold-n 5 -killed-auditors 2 \
//	    -byzantine-auditors 1                   # t-of-n audit quorums under auditor faults
//	seccloud-sim -multitenant -tenants 50000    # Zipf traffic through cross-tenant batches
//
// Exactly one of -chaos, -threshold-t/-threshold-n and -multitenant
// selects the mode; with none, seccloud-sim prints usage and exits 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"seccloud/internal/epoch"
	"seccloud/internal/obs"
)

func main() {
	var (
		epochs       = flag.Int("epochs", 6, "number of epochs (threshold and multi-tenant modes)")
		blocks       = flag.Int("blocks", 20, "outsourced blocks per user (threshold mode)")
		samples      = flag.Int("samples", 3, "audit sample size t (threshold and multi-tenant modes)")
		seed         = flag.Int64("seed", 1, "simulation seed (threshold and multi-tenant modes)")
		workers      = flag.Int("workers", 1, "audit/hashing worker pool size (1 = sequential; outcomes never depend on this)")
		admin        = flag.String("admin", "", "serve /metrics, /traces, /healthz and pprof on this address (e.g. 127.0.0.1:6060 or :0; empty = off)")
		adminLinger  = flag.Duration("admin-linger", 0, "keep the admin endpoint up this long after the run (requires -admin)")
		multitenant  = flag.Bool("multitenant", false, "run the multi-tenant scheduler simulation")
		tenants      = flag.Int("tenants", 100_000, "registered tenant population (multi-tenant mode)")
		tenantSess   = flag.Int("tenant-sessions", 40, "audit sessions per epoch drawn from the Zipf trace")
		tenantZipf   = flag.Float64("tenant-zipf", 1.3, "Zipf traffic skew exponent (> 1)")
		tenantBlocks = flag.Int("tenant-blocks", 8, "stored blocks per materialized tenant")
		crossBatch   = flag.Bool("cross-batch", true, "fold all tenants' signature checks into shared aggregates (false = per-tenant baseline)")
		flushLimit   = flag.Int("flush-limit", 0, "signature checks per cross-tenant aggregate (0 = one flush per drain)")
		tamperEpoch  = flag.Int("tamper-epoch", 0, "epoch at which one tenant's stored blocks rot (0 = never)")
		tamperRank   = flag.Int("tamper-rank", 0, "Zipf rank of the tampered tenant (0 = traffic head)")
		thresholdT   = flag.Int("threshold-t", 0, "audit quorum size t: split the verifier key t-of-n and run the threshold-agency scenario (0 = off)")
		thresholdN   = flag.Int("threshold-n", 0, "share-holder count n for the threshold-agency scenario")
		killedAud    = flag.Int("killed-auditors", 0, "share-holders down during each faulty epoch (rotating; threshold mode)")
		byzantineAud = flag.Int("byzantine-auditors", 0, "live share-holders forging partials each faulty epoch (threshold mode)")
		chaosMode    = flag.Bool("chaos", false, "run the seed-deterministic fleet simulator: chaos nemesis + invariant engine")
		chaosSeed    = flag.Int64("chaos-seed", 1, "chaos schedule seed (chaos mode; the repro-line seed)")
		chaosSteps   = flag.String("chaos-steps", "", "explicit chaos schedule, e.g. from a printed repro line (chaos mode)")
		chaosRuns    = flag.Int("chaos-runs", 1, "run this many consecutive seeds starting at -chaos-seed (chaos mode)")
		chaosTamper  = flag.Bool("chaos-tamper", false, "include a real storage cheater and per-epoch computation cheaters in each generated chaos schedule")
		chaosShrink  = flag.Bool("chaos-shrink", false, "minimize any failing chaos run to a one-line repro before printing it")
	)
	flag.Parse()

	if err := validateFlags(simFlags{
		ThresholdT:        *thresholdT,
		ThresholdN:        *thresholdN,
		KilledAuditors:    *killedAud,
		ByzantineAuditors: *byzantineAud,
		Multitenant:       *multitenant,
		Chaos:             *chaosMode,
		ChaosSteps:        *chaosSteps,
		ChaosRuns:         *chaosRuns,
		ChaosTamper:       *chaosTamper,
		ChaosShrink:       *chaosShrink,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "seccloud-sim:", err)
		os.Exit(2)
	}
	threshold := *thresholdT != 0 || *thresholdN != 0
	if !*chaosMode && !threshold && !*multitenant {
		fmt.Fprintln(os.Stderr, "seccloud-sim: choose a mode: -chaos, -threshold-t/-threshold-n or -multitenant")
		flag.Usage()
		os.Exit(2)
	}

	var hub *obs.Hub
	var adminSrv *obs.AdminServer
	if *admin != "" {
		hub = obs.NewHub()
		srv, err := hub.ListenAndServe(*admin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "seccloud-sim:", err)
			os.Exit(1)
		}
		adminSrv = srv
		fmt.Printf("admin endpoint listening on http://%s/metrics\n", srv.Addr())
	}

	var err error
	switch {
	case *chaosMode:
		_, err = runChaos(chaosRunFlags{
			Seed:   *chaosSeed,
			Steps:  *chaosSteps,
			Runs:   *chaosRuns,
			Tamper: *chaosTamper,
			Shrink: *chaosShrink,
			Hub:    hub,
		})
	case threshold:
		err = runThreshold(epoch.ThresholdConfig{
			T: *thresholdT, N: *thresholdN,
			Epochs:           *epochs,
			Blocks:           *blocks,
			SampleSize:       *samples,
			CrashedHolders:   *killedAud,
			ByzantineHolders: *byzantineAud,
			TamperEpoch:      *tamperEpoch,
			Workers:          *workers,
			Seed:             *seed,
			Hub:              hub,
		})
	default:
		err = runMultiTenant(epoch.MultiTenantConfig{
			Tenants:          *tenants,
			SessionsPerEpoch: *tenantSess,
			Epochs:           *epochs,
			ZipfS:            *tenantZipf,
			BlocksPerTenant:  *tenantBlocks,
			SampleSize:       *samples,
			Workers:          *workers,
			CrossTenantBatch: *crossBatch,
			FlushLimit:       *flushLimit,
			TamperEpoch:      *tamperEpoch,
			TamperRank:       *tamperRank,
			Seed:             *seed,
			Hub:              hub,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "seccloud-sim:", err)
		os.Exit(1)
	}
	if adminSrv != nil {
		if *adminLinger > 0 {
			fmt.Printf("admin endpoint up for another %v (scrape http://%s/metrics)\n", *adminLinger, adminSrv.Addr())
			time.Sleep(*adminLinger)
		}
		_ = adminSrv.Close()
	}
}
