package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"seccloud/internal/core"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

const (
	// mainShare of --seconds goes to a timed main phase; the probes are
	// sized to fill about the rest.
	mainShare = 0.6
	// warmupOps ops per client warm up a fixed-count phase (a timed phase
	// warms up for harness.warmup instead), so the state it leaves behind
	// does not depend on the machine's speed.
	warmupOps = 2
)

// result is what one run of one workload reports.
type result struct {
	correct           bool
	attempted, failed int
	metrics           map[string]metric
	// notes are printed above the metrics: check outcomes, failures.
	notes []string
}

func (r *result) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit, n: n}
}

func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.notes = append(r.notes, "FAIL: "+fmt.Sprintf(format, args...))
}

// harness carries what every run shares. The repetition counts and
// durations are fields so the tests can run the same code in a fraction
// of a second.
type harness struct {
	now    clock
	outDir string
	// setupReps set-ups are run and timed; the last one is kept.
	setupReps int
	// recoverReps crash-reopen cycles are timed on the same directory by
	// the traced run, after one that is not.
	recoverReps int
	// warmup precedes every timed phase, with the same clients and ops.
	warmup time.Duration
	// unitBudget is roughly how long one primitive is timed for.
	unitBudget time.Duration
	// spd tracks the machine's speed through the run.
	spd *speedometer
}

func newHarness(outDir string) *harness {
	return &harness{
		now: time.Now, outDir: outDir, spd: &speedometer{now: time.Now},
		setupReps: 3, recoverReps: 15,
		warmup: time.Second, unitBudget: 60 * time.Millisecond,
	}
}

// phase is one closed-loop phase: every client loops its op for dur, or
// for count ops when count > 0, after a warm-up of the same ops.
type phase struct {
	kinds     [2]opKind
	users     [2]int
	warm, dur time.Duration
	count     int
}

// runPhase runs one phase and returns its measured samples — those that
// started after the warm-up — each stamped with the machine speed around
// it. A forced collection first, so that no phase pays for the garbage of
// the one before it.
func (e *env) runPhase(ph phase, seed int64) []sample {
	runtime.GC()
	from := e.now().Add(ph.warm)
	to := from.Add(ph.dur)
	perClient := make([][]sample, len(ph.kinds))
	var wg sync.WaitGroup
	for c := range ph.kinds {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			ref := e.spd.probe()
			for n := 0; ; n++ {
				if ph.count > 0 {
					if n >= warmupOps+ph.count {
						return
					}
				} else if !e.now().Before(to) {
					return
				}
				ref.tick()
				s := e.do(ph.kinds[c], c, ph.users[c], rng)
				if ph.count > 0 && n < warmupOps || ph.count == 0 && s.start.Before(from) {
					continue
				}
				perClient[c] = append(perClient[c], s)
			}
		}(c)
	}
	wg.Wait()
	var samples []sample
	for _, s := range perClient {
		samples = append(samples, s...)
	}
	e.stampSpeed(samples)
	return samples
}

// stampSpeed marks every sample with the machine speed around it.
func (e *env) stampSpeed(samples []sample) {
	for i := range samples {
		samples[i].speed = e.spd.speedOver(samples[i].start, samples[i].end)
	}
}

// runWorkload is the untraced run: end-to-end metrics only.
func (h *harness) runWorkload(sp *spec, seed int64, total time.Duration) (*result, error) {
	res := &result{correct: true, metrics: make(map[string]metric)}
	byKind := make(map[opKind][]sample)
	record := func(samples []sample) {
		for _, s := range samples {
			res.attempted++
			if s.err != nil {
				res.failed++
				if res.failed <= 3 {
					res.notes = append(res.notes, fmt.Sprintf("failed %s op: %v", s.kind, s.err))
				}
			}
			byKind[s.kind] = append(byKind[s.kind], s)
		}
	}
	// Set-up, several times over: the median is the metric, and outside
	// the ingest workload the upload timings of every repetition are the
	// store metrics.
	var e *env
	var setups []float64
	for rep := 0; rep < h.setupReps; rep++ {
		if e != nil {
			e.close()
		}
		t0 := h.now()
		var err error
		if e, err = newEnv(sp, seed, h, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		t1 := h.now()
		setups = append(setups, t1.Sub(t0).Seconds()*h.spd.speedOver(t0, t1))
		record(e.uploads)
	}
	defer e.close()
	res.set("setup_s", median(setups), "s", len(setups))
	// Write amplification is measured on, and crash recovery checked
	// after, the last fixed-count upload phase: the set-up's for the
	// windowed workloads, the main phase's for the ingest one.
	ingest := sp.inMain(opStore)
	storeFS, storeBytes := e.uploadFS, e.userBytes[0]+e.userBytes[1]
	if !ingest {
		if err := e.checkRecovery(res); err != nil {
			return nil, err
		}
	}

	fsBefore := e.fs.counts()
	main := e.runPhase(h.mainPhase(sp, total), seed+1000)
	if ingest {
		byKind[opStore] = nil // the main phase is the source of the store metrics
	}
	record(main)
	// Compaction is the main phase's business. Several hundred probe ops
	// would each wait on snapshots that grow with every job they retain,
	// and on the disk, so the server they run against is reopened with
	// compaction off.
	e.noCompaction = true
	if ingest {
		storeFS = e.fs.counts().sub(fsBefore)
		storeBytes = e.userBytes[0] + e.userBytes[1] - storeBytes
		if err := e.checkRecovery(res); err != nil {
			return nil, err
		}
	} else if sp.snapshotEvery > 0 {
		if _, err := e.reopen(); err != nil {
			return nil, err
		}
	}
	if sp.jobsPerServer > 0 {
		// The probes audit the delegated jobs, which the servers rotated
		// in during the main phase never held.
		if err := e.rotateServer(true); err != nil {
			return nil, err
		}
	}

	// Probes are fixed counts, so the state they build (retained job
	// records, snapshot cycles) and with it peak memory do not depend on
	// how fast this machine happened to be.
	for i, k := range sp.probes() {
		if sp.probeOpsPerSecond[k] == 0 {
			return nil, fmt.Errorf("workload %s probes %s ops but sizes no probe for them", sp.name, k)
		}
		ph := phase{kinds: [2]opKind{k, k}, users: [2]int{0, 1},
			count: int(math.Ceil(float64(sp.probeOpsPerSecond[k]) * total.Seconds()))}
		record(e.runPhase(ph, seed+2000+int64(i)))
	}

	for _, k := range []opKind{opAudit, opJob, opUpdate} {
		res.set(k.String()+"s_per_s", rate(byKind[k]), "1/s", len(byKind[k]))
	}
	var auditWire []float64
	for _, s := range byKind[opAudit] {
		if s.err == nil {
			auditWire = append(auditWire, float64(s.wire))
		}
	}
	res.set("audit_wire_bytes", median(auditWire), "B", len(auditWire))
	res.set("store_blocks_per_s", rate(byKind[opStore]), "1/s", len(byKind[opStore]))
	res.set("disk_bytes_per_user_byte", float64(storeFS.bytes)/float64(storeBytes), "B/B", int(storeFS.syncs))

	h.checkCheaters(e, res, seed)

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss, "MB", 1)
	n, med, slow, stolen := h.spd.summary()
	res.notes = append(res.notes, fmt.Sprintf(
		"machine speed: median %.3f of reference, slowest tenth below %.3f (%d timings), %.1f %% of processor time stolen; every time above is wall time × the speed around it",
		med, slow, n, 100*stolen))
	if res.failed > 0 {
		res.fail("%d of %d operations failed", res.failed, res.attempted)
	}
	return res, nil
}

// mainPhase is the workload's main phase sized for total seconds of
// measurement.
func (h *harness) mainPhase(sp *spec, total time.Duration) phase {
	ph := phase{kinds: sp.main, users: [2]int{0, 1}, warm: h.warmup}
	if sp.sameUser {
		ph.users = [2]int{0, 0}
	}
	if sp.mainReqsPerSecond > 0 {
		ph.count = int(math.Ceil(float64(sp.mainReqsPerSecond) * total.Seconds()))
	} else {
		ph.dur = time.Duration(float64(total) * mainShare)
	}
	return ph
}

// checkRecovery crashes the server, recovers a new incarnation from its
// directory and requires every acked block to be there.
func (e *env) checkRecovery(res *result) error {
	if _, err := e.reopen(); err != nil {
		return err
	}
	for i, p := range e.users {
		if got := e.srv.StoredBlockCount(p.user.ID()); int64(got) != e.acked[i] {
			res.fail("user %d: %d blocks acked but %d stored after crash-reopen", i, e.acked[i], got)
		}
	}
	res.notes = append(res.notes, fmt.Sprintf("crash and reopen: %d WAL record(s) replayed over snapshot LSN %d, acked = stored",
		e.srv.Recovery().WALRecords, e.srv.Recovery().SnapshotLSN))
	return nil
}

// checkCheaters plants one cheater per protocol half and requires the DA
// to convict exactly what was planted: a verification-skipping
// "optimisation" must not be able to win this benchmark.
func (h *harness) checkCheaters(e *env, res *result, seed int64) {
	// Storage: corrupt one stored block under its signature, audit every
	// position, expect that position and no other.
	p := e.users[0]
	planted := uint64(seed) % uint64(e.sp.blocks)
	bad := append([]byte(nil), p.blocks[planted]...)
	bad[0] ^= 0xff
	prev, ok := e.srv.TamperBlock(p.user.ID(), planted, bad)
	if !ok {
		res.fail("planted storage cheat: no block at %d", planted)
		return
	}
	r, err := e.agency.AuditStorage(e.clients[0], p.user.ID(), p.warrant, core.StorageAuditConfig{
		DatasetSize: e.sp.blocks, SampleSize: e.sp.blocks, Rounds: 1,
		Rng: rand.New(rand.NewSource(seed)), BatchSignatures: true, Workers: 1,
	})
	e.srv.TamperBlock(p.user.ID(), planted, prev)
	switch {
	case err != nil:
		res.fail("planted storage cheat: audit error: %v", err)
	case len(r.Failures) != 1 || r.Failures[0].Index != planted:
		res.fail("planted storage cheat at %d: convicted %v", planted, r.Failures)
	default:
		res.notes = append(res.notes, fmt.Sprintf("planted storage cheat at block %d: convicted (%s)", planted, r.Failures[0].Check))
	}

	// Computation: a second server that guesses half its results commits
	// to a small job; a full-coverage audit must flag exactly the
	// sub-tasks whose committed result differs from an honest server's.
	if err := h.checkComputationCheater(e, res, seed); err != nil {
		res.fail("planted computation cheat: %v", err)
	}
}

const cheatJobTasks = 128

func (h *harness) checkComputationCheater(e *env, res *result, seed int64) error {
	honest, _, err := e.freshServer(nil)
	if err != nil {
		return err
	}
	defer honest.Close()
	cheat, cheatDir, err := e.freshServer(&core.ComputationCheater{CSC: 0.5, Rng: rand.New(rand.NewSource(seed))})
	if err != nil {
		return err
	}
	defer cheat.Close()

	p := e.users[1]
	job, err := workload.NewGenerator(seed).GenJob(p.user.ID(), workload.JobConfig{NumSubTasks: cheatJobTasks, DatasetSize: e.sp.blocks})
	if err != nil {
		return err
	}
	req := &wire.ComputeRequest{UserID: p.user.ID(), JobID: "planted", Tasks: core.TasksToWire(job)}
	want, ok := honest.Handle(req).(*wire.ComputeResponse)
	if !ok || want.Error != "" {
		return fmt.Errorf("honest reference refused the job")
	}

	prevSrv, prevDir := e.srv, e.srvDir
	e.install(cheat, cheatDir)
	defer e.install(prevSrv, prevDir)
	got, err := p.user.SubmitJob(e.clients[1], req.JobID, job)
	if err != nil {
		return err
	}
	differs := map[uint64]bool{}
	for i := range want.Results {
		if string(want.Results[i]) != string(got.Results[i]) {
			differs[uint64(i)] = true
		}
	}
	if len(differs) == 0 {
		return fmt.Errorf("the cheater guessed every result right; pick another seed")
	}
	w, err := p.user.Delegate(agencyID, req.JobID, h.now().Add(time.Hour))
	if err != nil {
		return err
	}
	r, err := e.agency.AuditJob(e.clients[1], &core.JobDelegation{
		UserID: p.user.ID(), ServerID: got.ServerID, JobID: req.JobID, Tasks: req.Tasks,
		Results: got.Results, Root: got.Root, RootSig: got.RootSig, Warrant: w,
	}, core.AuditConfig{SampleSize: cheatJobTasks, Rounds: 1, Rng: rand.New(rand.NewSource(seed)),
		BatchSignatures: true, Workers: 1})
	if err != nil {
		return err
	}
	convicted := map[uint64]bool{}
	for _, f := range r.Failures {
		if f.Check != core.CheckComputation || !differs[f.Index] {
			return fmt.Errorf("conviction outside what was planted: index %d, %s", f.Index, f.Check)
		}
		convicted[f.Index] = true
	}
	if len(convicted) != len(differs) {
		return fmt.Errorf("%d wrong results planted, %d convicted", len(differs), len(convicted))
	}
	res.notes = append(res.notes, fmt.Sprintf("planted computation cheat: %d of %d results wrong, all convicted", len(differs), cheatJobTasks))
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
