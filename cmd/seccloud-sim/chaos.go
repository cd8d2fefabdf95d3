package main

import (
	"fmt"

	"seccloud/internal/chaos"
	"seccloud/internal/obs"
)

// chaosRunFlags carries the -chaos* flag values into the chaos mode.
type chaosRunFlags struct {
	Seed   int64    // -chaos-seed: first (or only) schedule seed
	Steps  string   // -chaos-steps: explicit schedule (repro mode)
	Runs   int      // -chaos-runs: seeds Seed..Seed+Runs-1
	Tamper bool     // -chaos-tamper: schedules include real storage and computation cheaters
	Shrink bool     // -chaos-shrink: minimize a failing run to a one-line repro
	Hub    *obs.Hub // -admin: every run's metrics and traces land here
}

// runChaos executes seeded chaos runs and returns their reports. Every
// run uses chaos.Defaults(seed) — the configuration the printed repro
// lines assume — so `-chaos-seed N -chaos-steps "…"` replays a reported
// failure byte-for-byte.
func runChaos(f chaosRunFlags) ([]*chaos.Report, error) {
	base := chaos.Defaults(f.Seed)
	fmt.Printf("chaos nemesis: %d servers, %d blocks, %d active + %d quiet epochs\n\n",
		base.Servers, base.Blocks, base.ActiveEpochs, base.QuietEpochs)
	fmt.Printf("%8s %6s %5s %7s %7s %5s %9s %9s %9s %7s %11s\n",
		"seed", "steps", "ops", "failed", "audits", "shed", "accused", "tampered", "detected", "job det", "violations")

	var reports []*chaos.Report
	falseFlags, violations := 0, 0
	tampered, detected := 0, 0
	jobAudits, jobDetections, exposure, shed := 0, 0, 0, 0
	quorumRuns, recoveries, byzantine := 0, 0, 0
	for i := 0; i < f.Runs; i++ {
		cfg := chaos.Defaults(f.Seed + int64(i))
		cfg.Tamper = f.Tamper
		cfg.Hub = f.Hub
		if f.Steps != "" {
			sched, err := chaos.ParseSchedule(f.Steps)
			if err != nil {
				return nil, err
			}
			cfg.Schedule = sched
		}
		rep, err := chaos.Run(cfg)
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
		falseFlags += rep.FalseFlags
		violations += len(rep.Violations)
		jobAudits += rep.JobAudits
		jobDetections += rep.JobDetections
		exposure += rep.Exposure
		shed += rep.ShedRounds
		if rep.Quorums > 0 {
			quorumRuns++
		}
		recoveries += rep.QuorumRecoveries
		byzantine += rep.ByzantinePartials
		if rep.Tampered {
			tampered++
			if rep.Detected {
				detected++
			}
		}
		fmt.Printf("%8d %6d %5d %7d %7d %5d %9d %9v %9v %7d %11d\n",
			rep.Seed, rep.Steps, rep.Ops, rep.OpsFailed, rep.Audits, rep.ShedRounds,
			rep.Accusations, rep.Tampered, rep.Detected, rep.JobDetections, len(rep.Violations))
	}

	if f.Runs == 1 {
		fmt.Printf("\nschedule: %s\n", reports[0].Schedule)
	}
	fmt.Printf("\nfalse flags: %d   accusations held real tamper: %d/%d tampered runs detected\n",
		falseFlags, detected, tampered)
	fmt.Printf("job audits: %d   job detections: %d   exposure: %d forged results accepted   shed rounds: %d\n",
		jobAudits, jobDetections, exposure, shed)
	fmt.Printf("quorum runs: %d   quorum recoveries: %d   byzantine partials: %d\n",
		quorumRuns, recoveries, byzantine)

	if violations == 0 {
		fmt.Println("invariants: ok")
		if tampered > 0 && detected < tampered {
			return reports, fmt.Errorf("%d of %d tampered runs went undetected", tampered-detected, tampered)
		}
		return reports, nil
	}

	// At least one invariant broke: print every violation and a
	// one-line reproducer for each failing seed, shrinking first when
	// asked to.
	fmt.Printf("invariants: VIOLATED (%d)\n", violations)
	for _, rep := range reports {
		if rep.OK() {
			continue
		}
		for _, v := range rep.Violations {
			fmt.Printf("  seed %d: %s\n", rep.Seed, v)
		}
		if f.Shrink {
			cfg := chaos.Defaults(rep.Seed)
			cfg.Tamper = f.Tamper
			sched, err := chaos.ParseSchedule(rep.Schedule)
			if err != nil {
				return reports, err
			}
			res, err := chaos.Shrink(cfg, sched, 64)
			if err != nil {
				return reports, err
			}
			fmt.Printf("  shrunk %d steps -> %d (%s, %d runs)\n",
				len(sched), len(res.Schedule), res.Invariant, res.Runs)
			fmt.Printf("  repro: %s\n", res.Repro())
		} else {
			fmt.Printf("  repro: %s\n", rep.Repro())
		}
	}
	return reports, fmt.Errorf("%d invariant violations across %d runs", violations, f.Runs)
}
