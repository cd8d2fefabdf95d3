package experiments

import (
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"runtime"
	"time"

	"seccloud/internal/core"
	"seccloud/internal/funcs"
	"seccloud/internal/ibc"
	"seccloud/internal/netsim"
	"seccloud/internal/obs"
	"seccloud/internal/pairing"
	"seccloud/internal/workload"
)

// MultiTenantConfig shapes the multi-tenant scale experiment: registered
// populations of 10⁵–10⁶ identities, Zipf-skewed audit traffic, and the
// scheduler's cross-user aggregate verification contrasted against the
// per-user entry point (one AuditJob call per session, re-validating the
// delegation every time — what a naive multi-tenant deployment does).
type MultiTenantConfig struct {
	// UserCounts is the registered population sweep.
	UserCounts []int
	// Sessions is the audit session count per cell.
	Sessions int
	// ZipfS is the traffic skew exponent (> 1).
	ZipfS float64
	// Blocks is each materialized tenant's dataset size.
	Blocks int
	// SampleSize is the per-session challenge budget.
	SampleSize int
	// Workers bounds drain concurrency (never changes report contents).
	Workers int
	// FlushLimit caps signatures per cross-tenant aggregate (≤ 0 = one
	// flush per drain).
	FlushLimit int
	// Seed drives the trace, datasets and challenge draws.
	Seed int64
	// Hub, when non-nil, receives scheduler/registry instrumentation.
	Hub *obs.Hub
}

// MultiTenantRow is one (population, mode) cell.
type MultiTenantRow struct {
	// Users is the registered population.
	Users int
	// Mode is "cross" (scheduler, cross-user aggregates) or "per_user"
	// (one AuditJob per session, per-call delegation validation).
	Mode string
	// Sessions / Distinct / Materialized describe the trace.
	Sessions     int
	Distinct     int
	Materialized int
	// RegisterTime is the cost of registering the whole population.
	RegisterTime time.Duration
	// OnboardTime is the one-time materialization cost for the working set
	// (keys, store, job, delegation validation) — paid once under the
	// scheduler, implicitly re-paid per call by the per-user baseline.
	OnboardTime time.Duration
	// Elapsed is the DA-side wall time to resolve every session.
	Elapsed time.Duration
	// ThroughputPerSec is sessions resolved per second of DA time.
	ThroughputPerSec float64
	// P50 / P99 are verdict-latency quantiles (session arrival at the DA
	// to final verdict, queueing included).
	P50 time.Duration
	P99 time.Duration
	// Flushes / SigItems / Fallbacks count aggregate verifications.
	Flushes   int
	SigItems  int
	Fallbacks int
	// Accusations must stay 0 in honest cells.
	Accusations int
}

// MultiTenantBlame is the blame-attribution sanity cell: one tampered
// tenant inside a cross-user aggregate.
type MultiTenantBlame struct {
	Tenants     int
	Fallbacks   int
	Accusations int
	FalseFlags  int
}

// MultiTenantSummary carries the acceptance figures.
type MultiTenantSummary struct {
	// ThroughputRatio is cross-batched over per-user throughput at the
	// LARGEST population (the ≥ 3× acceptance figure).
	ThroughputRatio float64
	// MaxUsers is the population that ratio was measured at.
	MaxUsers int
	// Deterministic reports whether re-draining the smallest cell at a
	// different worker count reproduced the fingerprint byte-for-byte.
	Deterministic bool
	// Accusations totals honest-cell accusations (must be 0).
	Accusations int
	// Blame is the tampered-tenant cell.
	Blame MultiTenantBlame
}

// mtSystem is one multi-tenant deployment: a server, the DA, and the
// scheduler's registry, with every trace-hit tenant materialized.
type mtSystem struct {
	agency      *core.Agency
	registry    *core.TenantRegistry
	client      netsim.Client
	server      *core.Server
	source      *workload.MultiTenant
	trace       []int
	ids         map[int]string
	delegations map[int]*core.JobDelegation
	registerT   time.Duration
	onboardT    time.Duration
}

// newMTSystem registers a population of n identities, draws the session
// trace, and materializes exactly the tenants the trace hits.
func newMTSystem(pp *pairing.Params, cfg MultiTenantConfig, n int) (*mtSystem, error) {
	sio, err := ibc.Setup(pp, rand.Reader)
	if err != nil {
		return nil, err
	}
	sp := sio.Params()
	daKey, err := sio.Extract("da:mt")
	if err != nil {
		return nil, err
	}
	serverKey, err := sio.Extract("cs:mt-0")
	if err != nil {
		return nil, err
	}
	agency := core.NewAgency(sp, daKey, rand.Reader).WithWorkers(cfg.Workers).WithObs(cfg.Hub)
	srv, err := core.NewServer(sp, serverKey, core.ServerConfig{Random: rand.Reader, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	client := netsim.NewLoopback(srv, netsim.LinkConfig{}).WithObs(cfg.Hub)

	source, err := workload.NewMultiTenant(cfg.Seed, workload.MultiTenantConfig{
		Tenants:         n,
		Sessions:        cfg.Sessions,
		ZipfS:           cfg.ZipfS,
		BlocksPerTenant: cfg.Blocks,
	})
	if err != nil {
		return nil, err
	}

	sys := &mtSystem{
		agency:      agency,
		registry:    core.NewTenantRegistry(256),
		client:      client,
		server:      srv,
		source:      source,
		ids:         make(map[int]string),
		delegations: make(map[int]*core.JobDelegation),
	}
	if cfg.Hub != nil {
		sys.registry.WithObs(cfg.Hub)
	}

	regStart := time.Now()
	for i := 0; i < n; i++ {
		sys.registry.Register(source.TenantID(i), cfg.Blocks, cfg.SampleSize)
	}
	sys.registerT = time.Since(regStart)

	sys.trace = source.SessionTrace()
	onboardStart := time.Now()
	for _, idx := range sys.trace {
		if _, done := sys.delegations[idx]; done {
			continue
		}
		id := source.TenantID(idx)
		key, err := sio.Extract(id)
		if err != nil {
			return nil, err
		}
		usr := core.NewUser(sp, key, rand.Reader)
		ds := source.TenantDataset(idx)
		req, err := usr.PrepareStore(ds, srv.ID(), agency.ID())
		if err != nil {
			return nil, err
		}
		if err := usr.Store(client, req); err != nil {
			return nil, err
		}
		jobID := fmt.Sprintf("job-%08d", idx)
		job := workload.UniformJob(id, funcs.Spec{Name: "sum"}, cfg.Blocks)
		resp, err := usr.SubmitJob(client, jobID, job)
		if err != nil {
			return nil, err
		}
		warrant, err := usr.Delegate(agency.ID(), jobID, time.Now().Add(24*time.Hour))
		if err != nil {
			return nil, err
		}
		sys.ids[idx] = id
		sys.delegations[idx] = &core.JobDelegation{
			UserID:   id,
			ServerID: resp.ServerID,
			JobID:    jobID,
			Tasks:    core.TasksToWire(job),
			Results:  resp.Results,
			Root:     resp.Root,
			RootSig:  resp.RootSig,
			Warrant:  warrant,
		}
	}
	sys.onboardT = time.Since(onboardStart)
	return sys, nil
}

// newScheduler builds a scheduler over the system's registry and onboards
// every materialized tenant (delegation validated once here).
func (sys *mtSystem) newScheduler(cfg MultiTenantConfig, workers int, rngSeed int64) (*core.AuditScheduler, error) {
	sched := core.NewAuditScheduler(sys.agency, sys.registry, core.SchedulerConfig{
		Workers:          workers,
		CrossTenantBatch: true,
		FlushLimit:       cfg.FlushLimit,
		SampleSize:       cfg.SampleSize,
		Rng:              mrand.New(mrand.NewSource(rngSeed)),
	})
	if cfg.Hub != nil {
		sched.WithObs(cfg.Hub)
	}
	for idx, d := range sys.delegations {
		if _, _, _, err := sys.registry.Session(sys.ids[idx]); err == nil {
			continue // already onboarded by an earlier scheduler over this registry
		}
		if err := sched.Onboard(sys.client, d, cfg.SampleSize); err != nil {
			return nil, err
		}
	}
	return sched, nil
}

// mtMeasureRepeats is how many times each timed cell runs; the fastest
// repeat is reported. One-shot wall-clock measurements of multi-second
// cells swing with GC state and scheduler noise; best-of-n with a forced
// collection before each repeat measures the work, not the heap history.
const mtMeasureRepeats = 2

// crossCell drains the trace through the scheduler and measures it.
// Every repeat rebuilds the scheduler with the same RNG seed, so the
// repeats must produce byte-identical reports — a free determinism check
// on top of the explicit worker-count one in MultiTenant.
func crossCell(sys *mtSystem, cfg MultiTenantConfig, users int) (MultiTenantRow, string, error) {
	var rep *core.MultiTenantReport
	var fp string
	for r := 0; r < mtMeasureRepeats; r++ {
		sched, err := sys.newScheduler(cfg, cfg.Workers, cfg.Seed+11)
		if err != nil {
			return MultiTenantRow{}, "", err
		}
		for _, idx := range sys.trace {
			sched.Enqueue(sys.ids[idx])
		}
		runtime.GC()
		got, err := sched.Drain()
		if err != nil {
			return MultiTenantRow{}, "", err
		}
		if r == 0 {
			fp = got.Fingerprint()
		} else if got.Fingerprint() != fp {
			return MultiTenantRow{}, "", fmt.Errorf("cross cell repeat %d diverged from repeat 0", r)
		}
		if rep == nil || got.Elapsed < rep.Elapsed {
			rep = got
		}
	}
	row := MultiTenantRow{
		Users:        users,
		Mode:         "cross",
		Sessions:     len(sys.trace),
		Distinct:     workload.DistinctTenants(sys.trace),
		Materialized: len(sys.delegations),
		RegisterTime: sys.registerT,
		OnboardTime:  sys.onboardT,
		Elapsed:      rep.Elapsed,
		Flushes:      rep.Flushes,
		SigItems:     rep.BatchedSigItems,
		Fallbacks:    rep.BlameFallbacks,
		Accusations:  rep.Accusations(),
	}
	lats := make([]time.Duration, 0, len(rep.Verdicts))
	for i := range rep.Verdicts {
		lats = append(lats, rep.Verdicts[i].Latency)
	}
	row.P50 = quantile(lats, 0.50)
	row.P99 = quantile(lats, 0.99)
	if rep.Elapsed > 0 {
		row.ThroughputPerSec = float64(len(sys.trace)) / rep.Elapsed.Seconds()
	}
	return row, rep.Fingerprint(), nil
}

// perUserCell resolves the same trace through the per-user entry point:
// one AuditJob call per session, with the delegation re-validated on every
// call (the warrant and root signatures are found in the agency's memo
// after a tenant's first session; the commitment rebuild runs each time)
// and each session's signatures aggregated only within that session.
func perUserCell(sys *mtSystem, cfg MultiTenantConfig, users int) (MultiTenantRow, error) {
	row := MultiTenantRow{
		Users:        users,
		Mode:         "per_user",
		Sessions:     len(sys.trace),
		Distinct:     workload.DistinctTenants(sys.trace),
		Materialized: len(sys.delegations),
		RegisterTime: sys.registerT,
		OnboardTime:  sys.onboardT,
	}
	var lats []time.Duration
	for r := 0; r < mtMeasureRepeats; r++ {
		// Re-seeding per repeat replays the exact same challenge draws,
		// so every repeat audits identical work.
		rng := mrand.New(mrand.NewSource(cfg.Seed + 23))
		repLats := make([]time.Duration, 0, len(sys.trace))
		repRow := MultiTenantRow{}
		runtime.GC()
		start := time.Now()
		for _, idx := range sys.trace {
			callStart := time.Now()
			report, err := sys.agency.AuditJob(sys.client, sys.delegations[idx], core.AuditConfig{
				SampleSize:      cfg.SampleSize,
				BatchSignatures: true,
				Rng:             mrand.New(mrand.NewSource(rng.Int63())),
			})
			if err != nil {
				return MultiTenantRow{}, fmt.Errorf("per-user audit of tenant %d: %w", idx, err)
			}
			repLats = append(repLats, time.Since(callStart))
			repRow.Flushes++ // one per-session aggregate each call
			repRow.SigItems += len(report.Sampled)
			if !report.Valid() {
				repRow.Accusations++
			}
		}
		repRow.Elapsed = time.Since(start)
		if r == 0 || repRow.Elapsed < row.Elapsed {
			row.Elapsed = repRow.Elapsed
			row.Flushes = repRow.Flushes
			row.SigItems = repRow.SigItems
			row.Accusations = repRow.Accusations
			lats = repLats
		}
	}
	row.P50 = quantile(lats, 0.50)
	row.P99 = quantile(lats, 0.99)
	if row.Elapsed > 0 {
		row.ThroughputPerSec = float64(len(sys.trace)) / row.Elapsed.Seconds()
	}
	return row, nil
}

// blameCell tampers one tenant's stored blocks inside a small cross-user
// deployment and checks that the aggregate's fallback accuses exactly that
// tenant.
func blameCell(pp *pairing.Params, cfg MultiTenantConfig) (MultiTenantBlame, error) {
	small := cfg
	small.Sessions = 12
	sys, err := newMTSystem(pp, small, 1000)
	if err != nil {
		return MultiTenantBlame{}, err
	}
	sched, err := sys.newScheduler(small, small.Workers, small.Seed+31)
	if err != nil {
		return MultiTenantBlame{}, err
	}
	// Tamper the Zipf head — rank 0 is guaranteed traffic.
	cheaterID := sys.source.TenantID(0)
	for pos := 0; pos < small.Blocks; pos++ {
		if _, ok := sys.server.TamperBlock(cheaterID, uint64(pos), []byte("mt-bench-rot")); !ok {
			return MultiTenantBlame{}, fmt.Errorf("tampering block %d of %s found nothing", pos, cheaterID)
		}
	}
	for _, idx := range sys.trace {
		sched.Enqueue(sys.ids[idx])
	}
	rep, err := sched.Drain()
	if err != nil {
		return MultiTenantBlame{}, err
	}
	blame := MultiTenantBlame{
		Tenants:   workload.DistinctTenants(sys.trace),
		Fallbacks: rep.BlameFallbacks,
	}
	for i := range rep.Verdicts {
		v := &rep.Verdicts[i]
		if v.Report.Valid() {
			continue
		}
		if v.UserID == cheaterID {
			blame.Accusations++
		} else {
			blame.FalseFlags++
		}
	}
	return blame, nil
}

// MultiTenant runs the full experiment: the population sweep in both modes,
// the worker-count determinism check, and the blame sanity cell.
func MultiTenant(pp *pairing.Params, cfg MultiTenantConfig) ([]MultiTenantRow, MultiTenantSummary, error) {
	if len(cfg.UserCounts) == 0 || cfg.Sessions <= 0 || cfg.Blocks <= 0 || cfg.SampleSize <= 0 {
		return nil, MultiTenantSummary{}, fmt.Errorf("experiments: bad multitenant config %+v", cfg)
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.3
	}

	var rows []MultiTenantRow
	summary := MultiTenantSummary{Deterministic: true}
	var maxCross, maxPer *MultiTenantRow
	for ci, users := range cfg.UserCounts {
		sys, err := newMTSystem(pp, cfg, users)
		if err != nil {
			return nil, MultiTenantSummary{}, fmt.Errorf("population %d: %w", users, err)
		}
		cross, fp, err := crossCell(sys, cfg, users)
		if err != nil {
			return nil, MultiTenantSummary{}, fmt.Errorf("population %d cross: %w", users, err)
		}
		per, err := perUserCell(sys, cfg, users)
		if err != nil {
			return nil, MultiTenantSummary{}, fmt.Errorf("population %d per-user: %w", users, err)
		}
		rows = append(rows, cross, per)
		summary.Accusations += cross.Accusations + per.Accusations
		if maxCross == nil || users > summary.MaxUsers {
			summary.MaxUsers = users
			maxCross, maxPer = &rows[len(rows)-2], &rows[len(rows)-1]
		}

		// Determinism: re-drain the smallest population sequentially and
		// compare fingerprints byte-for-byte against the pooled drain.
		if ci == 0 {
			sched, err := sys.newScheduler(cfg, 1, cfg.Seed+11)
			if err != nil {
				return nil, MultiTenantSummary{}, err
			}
			for _, idx := range sys.trace {
				sched.Enqueue(sys.ids[idx])
			}
			rep, err := sched.Drain()
			if err != nil {
				return nil, MultiTenantSummary{}, err
			}
			if rep.Fingerprint() != fp {
				summary.Deterministic = false
			}
		}
	}
	if maxCross != nil && maxPer != nil && maxPer.ThroughputPerSec > 0 {
		summary.ThroughputRatio = maxCross.ThroughputPerSec / maxPer.ThroughputPerSec
	}

	blame, err := blameCell(pp, cfg)
	if err != nil {
		return nil, MultiTenantSummary{}, fmt.Errorf("blame cell: %w", err)
	}
	summary.Blame = blame
	return rows, summary, nil
}
