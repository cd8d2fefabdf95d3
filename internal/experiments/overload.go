package experiments

import (
	"context"
	"crypto/rand"
	"fmt"
	"math"
	mrand "math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"seccloud/internal/core"
	"seccloud/internal/ibc"
	"seccloud/internal/netsim"
	"seccloud/internal/obs"
	"seccloud/internal/pairing"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

// OverloadConfig shapes the overload-resilience experiment: an open-loop
// request storm against admission-gated servers, with the DA auditing
// straight into the pressure.
type OverloadConfig struct {
	// Servers is the fleet size (2 is enough to show the mechanisms).
	Servers int
	// Blocks is the outsourced dataset size.
	Blocks int
	// MaxInflight bounds each server's concurrent execution slots.
	MaxInflight int
	// QueueLimit is the protected configuration's admission queue bound;
	// the unprotected baseline runs the same schedule with an unbounded
	// FIFO queue instead.
	QueueLimit int
	// ServiceTime is the real wall-clock cost charged per request.
	ServiceTime time.Duration
	// Patience is how long a storm client waits before abandoning its
	// request (the classic open-loop client timeout).
	Patience time.Duration
	// CellDuration is how long each load cell runs.
	CellDuration time.Duration
	// AuditDeadline bounds each audit run during the storm.
	AuditDeadline time.Duration
	// LoadMultipliers are the offered-load multiples of fleet capacity
	// (Servers × MaxInflight ÷ ServiceTime) swept per protection mode.
	LoadMultipliers []float64
	// SampleSize / Rounds shape the audits run inside the storm.
	SampleSize int
	Rounds     int
	// Seed drives workloads and challenge sampling.
	Seed int64
	// Hub, when non-nil, receives admission, audit, retry-budget and
	// transport instrumentation for the run.
	Hub *obs.Hub
}

// OverloadRow is one (offered load, protection mode) cell.
type OverloadRow struct {
	// OfferedLoad is the storm's arrival rate as a multiple of capacity.
	OfferedLoad float64
	// Protected reports whether the admission queue was bounded
	// (shed + LIFO) or the unbounded FIFO baseline.
	Protected bool
	// Offered / Completed / Shed / Abandoned classify every storm
	// request: answered in time, refused with a typed shed, or given up
	// on while queued.
	Offered   int
	Completed int
	Shed      int
	Abandoned int
	// GoodputPerSec is completed requests per second — replies that a
	// still-waiting client actually received.
	GoodputPerSec float64
	// P50 / P99 are latency quantiles of completed storm requests.
	P50 time.Duration
	P99 time.Duration
	// MaxQueueDepth is the deepest any server's admission queue got:
	// bounded by QueueLimit under protection, unbounded growth without.
	MaxQueueDepth int
	// Audits counts DA audits completed inside the storm window;
	// Accusations counts those that produced cheating evidence — an
	// overloaded honest server must never be accused, so this must be 0.
	Audits      int
	Accusations int
	// AuditShedRounds / AuditTimeoutRounds count challenge rounds lost
	// to admission sheds and to the audit deadline.
	AuditShedRounds    int
	AuditTimeoutRounds int
	// AuditsDegraded counts audits whose planned sample the overload
	// controller shrank before dispatch.
	AuditsDegraded int
	// BudgetDenied counts retries refused by the shared retry budget.
	BudgetDenied int
	// EffectiveSampleFraction averages achieved/planned sample across
	// the window's audits.
	EffectiveSampleFraction float64
}

// OverloadHedgeRow contrasts fleet audits against a queue-delayed primary
// with and without hedged challenge rounds.
type OverloadHedgeRow struct {
	// Hedge reports whether hedged rounds were enabled.
	Hedge bool
	// Audits counts fleet audits completed in the window.
	Audits int
	// HedgedRounds counts rounds won by the hedged duplicate.
	HedgedRounds int
	// AuditP50 / AuditP99 are per-audit wall-clock quantiles.
	AuditP50 time.Duration
	AuditP99 time.Duration
	// Accusations must stay 0: a slow replica is busy, not cheating.
	Accusations int
}

// overloadSystem is one gated deployment plus the DA's credentials.
type overloadSystem struct {
	user    *core.User
	agency  *core.Agency
	clients []netsim.Client
	gates   []*netsim.Admission
	ids     []string
	warrant wire.Warrant
}

// newOverloadSystem builds servers behind real-service-time handlers and
// per-server admission gates. queueFor returns the queue bound for each
// server index (negative = unbounded).
func newOverloadSystem(pp *pairing.Params, cfg OverloadConfig, queueFor func(i int) int) (*overloadSystem, error) {
	sio, err := ibc.Setup(pp, rand.Reader)
	if err != nil {
		return nil, err
	}
	sp := sio.Params()
	userKey, err := sio.Extract("user:ovl")
	if err != nil {
		return nil, err
	}
	daKey, err := sio.Extract("da:ovl")
	if err != nil {
		return nil, err
	}
	sys := &overloadSystem{
		user:   core.NewUser(sp, userKey, rand.Reader),
		agency: core.NewAgency(sp, daKey, rand.Reader).WithObs(cfg.Hub),
	}
	for i := 0; i < cfg.Servers; i++ {
		key, err := sio.Extract(fmt.Sprintf("cs:ovl-%d", i))
		if err != nil {
			return nil, err
		}
		srv, err := core.NewServer(sp, key, core.ServerConfig{Random: rand.Reader})
		if err != nil {
			return nil, err
		}
		gate := netsim.NewAdmission(netsim.AdmissionConfig{
			MaxInflight: cfg.MaxInflight,
			MaxQueue:    queueFor(i),
			RetryAfter:  cfg.ServiceTime,
		}).WithObs(cfg.Hub, fmt.Sprintf("ovl-%d", i))
		lb := netsim.NewLoopback(&serviceTimeHandler{inner: srv, d: cfg.ServiceTime}, netsim.LinkConfig{}).
			WithObs(cfg.Hub).WithAdmission(gate)
		sys.clients = append(sys.clients, lb)
		sys.gates = append(sys.gates, gate)
		sys.ids = append(sys.ids, srv.ID())
	}

	ds := workload.NewGenerator(cfg.Seed).GenDataset(sys.user.ID(), cfg.Blocks, 8)
	verifiers := append(append([]string(nil), sys.ids...), sys.agency.ID())
	req, err := sys.user.PrepareStore(ds, verifiers...)
	if err != nil {
		return nil, err
	}
	for i := range sys.clients {
		if err := sys.user.Store(sys.clients[i], req); err != nil {
			return nil, fmt.Errorf("storing to replica %d: %w", i, err)
		}
	}
	sys.warrant, err = core.WildcardWarrant(sys.user, sys.agency.ID(), time.Now().Add(time.Hour))
	return sys, err
}

// serviceTimeHandler charges a real service time per request while the
// admission slot is held.
type serviceTimeHandler struct {
	inner netsim.Handler
	d     time.Duration
}

func (h *serviceTimeHandler) Handle(m wire.Message) wire.Message {
	time.Sleep(h.d)
	return h.inner.Handle(m)
}

// storm fires open-loop arrivals at rate mult × capacity against the
// system until stopAt, each request in its own goroutine with its own
// patience. Returns classified counts and completed-request latencies.
func storm(sys *overloadSystem, cfg OverloadConfig, mult float64, stopAt time.Time) (offered, completed, shed, abandoned int64, lats []time.Duration) {
	interval := time.Duration(float64(cfg.ServiceTime) / (float64(cfg.Servers*cfg.MaxInflight) * mult))
	if interval <= 0 {
		interval = time.Microsecond
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var nOffered, nCompleted, nShed, nAbandoned int64
	tick := time.NewTicker(interval)
	defer tick.Stop()
	i := 0
	for now := range tick.C {
		if now.After(stopAt) {
			break
		}
		i++
		srv := i % cfg.Servers
		nOffered++
		wg.Add(1)
		go func(srv int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), cfg.Patience)
			defer cancel()
			start := time.Now()
			_, err := sys.clients[srv].RoundTripContext(ctx, &wire.StorageAuditRequest{UserID: "storm"})
			switch {
			case err == nil:
				d := time.Since(start)
				mu.Lock()
				lats = append(lats, d)
				mu.Unlock()
				atomic.AddInt64(&nCompleted, 1)
			case netsim.IsOverloaded(err):
				atomic.AddInt64(&nShed, 1)
			default:
				atomic.AddInt64(&nAbandoned, 1)
			}
		}(srv)
	}
	wg.Wait()
	return nOffered, atomic.LoadInt64(&nCompleted), atomic.LoadInt64(&nShed), atomic.LoadInt64(&nAbandoned), lats
}

// quantile returns the q-quantile of ds (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// noRetrySleep makes retry backoff instantaneous — decided, not slept —
// so the audit loop's pacing comes from the network, not the retrier.
func noRetrySleep(context.Context, time.Duration) error { return nil }

// overloadCell runs one (multiplier, protection) cell: the storm and the
// DA's audit loop run concurrently against fresh servers.
func overloadCell(pp *pairing.Params, cfg OverloadConfig, mult float64, protected bool) (OverloadRow, error) {
	queue := cfg.QueueLimit
	if !protected {
		queue = -1
	}
	sys, err := newOverloadSystem(pp, cfg, func(int) int { return queue })
	if err != nil {
		return OverloadRow{}, err
	}
	row := OverloadRow{OfferedLoad: mult, Protected: protected}
	stopAt := time.Now().Add(cfg.CellDuration)

	stormDone := make(chan struct{})
	var offered, completed, shed, abandoned int64
	var lats []time.Duration
	go func() {
		defer close(stormDone)
		offered, completed, shed, abandoned, lats = storm(sys, cfg, mult, stopAt)
	}()

	// The DA audits into the storm: shed rounds, deadline expiry, retry
	// budgets and sample degradation all run against live pressure.
	budget := netsim.NewRetryBudget(10, 0.1).WithObs(cfg.Hub)
	ctl := core.NewOverloadController(core.OverloadConfig{}).WithObs(cfg.Hub)
	rng := mrand.New(mrand.NewSource(cfg.Seed))
	var effectiveSum float64
	deniedBefore := budget.Denied()
	for target := 0; time.Now().Before(stopAt); target = (target + 1) % cfg.Servers {
		retry := netsim.NewRetrier(rng.Int63())
		retry.MaxAttempts = 2
		retry.Sleep = noRetrySleep
		report, err := sys.agency.AuditStorage(sys.clients[target], sys.user.ID(), sys.warrant, core.AuditConfig{
			DatasetSize:     cfg.Blocks,
			SampleSize:      cfg.SampleSize,
			Rounds:          cfg.Rounds,
			BatchSignatures: true,
			Rng:             mrand.New(mrand.NewSource(rng.Int63())),
			Retry:           retry,
			Budget:          budget,
			Overload:        ctl,
			Deadline:        cfg.AuditDeadline,
		})
		if err != nil {
			return OverloadRow{}, fmt.Errorf("audit under %gx load (protected=%v): %w", mult, protected, err)
		}
		row.Audits++
		if !report.Valid() {
			row.Accusations++
		}
		row.AuditShedRounds += report.ShedRounds()
		row.AuditTimeoutRounds += report.NetworkFaultRounds()
		if report.DegradedByOverload {
			row.AuditsDegraded++
		}
		if report.PlannedSampleSize > 0 {
			effectiveSum += float64(report.EffectiveSampleSize) / float64(report.PlannedSampleSize)
		}
	}
	row.BudgetDenied = int(budget.Denied() - deniedBefore)
	if row.Audits > 0 {
		row.EffectiveSampleFraction = effectiveSum / float64(row.Audits)
	}

	<-stormDone
	row.Offered = int(offered)
	row.Completed = int(completed)
	row.Shed = int(shed)
	row.Abandoned = int(abandoned)
	row.GoodputPerSec = float64(completed) / cfg.CellDuration.Seconds()
	row.P50 = quantile(lats, 0.50)
	row.P99 = quantile(lats, 0.99)
	for _, g := range sys.gates {
		if s := g.Snapshot(); s.MaxQueueDepth > row.MaxQueueDepth {
			row.MaxQueueDepth = s.MaxQueueDepth
		}
	}
	return row, nil
}

// hedgeCell storms ONLY the primary replica behind an unbounded FIFO
// queue — the slow-server pathology, no sheds to fail over on — and runs
// fleet audits against it with or without hedged rounds.
func hedgeCell(pp *pairing.Params, cfg OverloadConfig, hedge bool) (OverloadHedgeRow, error) {
	sys, err := newOverloadSystem(pp, cfg, func(i int) int {
		if i == 0 {
			return -1 // the delayed primary queues without bound
		}
		return cfg.QueueLimit
	})
	if err != nil {
		return OverloadHedgeRow{}, err
	}
	fleet, err := core.NewFleet(sys.clients, sys.ids, core.BreakerConfig{FailThreshold: 1 << 30})
	if err != nil {
		return OverloadHedgeRow{}, err
	}
	row := OverloadHedgeRow{Hedge: hedge}
	stopAt := time.Now().Add(cfg.CellDuration)

	stormDone := make(chan struct{})
	go func() {
		defer close(stormDone)
		// Redirect the whole storm at the primary.
		one := cfg
		one.Servers = 1
		sub := &overloadSystem{clients: sys.clients[:1]}
		storm(sub, one, 4, stopAt)
	}()

	rng := mrand.New(mrand.NewSource(cfg.Seed + 1))
	var wallTimes []time.Duration
	for time.Now().Before(stopAt) {
		start := time.Now()
		fr, err := sys.agency.AuditStorageFleet(fleet, sys.user.ID(), sys.warrant, core.FleetAuditConfig{
			Storage: core.AuditConfig{
				DatasetSize:     cfg.Blocks,
				SampleSize:      cfg.SampleSize,
				Rounds:          cfg.Rounds,
				BatchSignatures: true,
				Rng:             mrand.New(mrand.NewSource(rng.Int63())),
				Deadline:        cfg.AuditDeadline,
			},
			Primary:    0,
			Hedge:      hedge,
			HedgeDelay: 2 * cfg.ServiceTime,
		})
		if err != nil {
			return OverloadHedgeRow{}, fmt.Errorf("hedge=%v fleet audit: %w", hedge, err)
		}
		wallTimes = append(wallTimes, time.Since(start))
		row.Audits++
		row.HedgedRounds += fr.Report.HedgedRounds()
		if !fr.Report.Valid() {
			row.Accusations++
		}
	}
	<-stormDone
	row.AuditP50 = quantile(wallTimes, 0.50)
	row.AuditP99 = quantile(wallTimes, 0.99)
	return row, nil
}

// Overload runs the full experiment: the load × protection sweep plus the
// hedged-round contrast.
func Overload(pp *pairing.Params, cfg OverloadConfig) ([]OverloadRow, []OverloadHedgeRow, error) {
	if cfg.Servers <= 0 || cfg.Blocks <= 0 || cfg.MaxInflight <= 0 ||
		cfg.ServiceTime <= 0 || cfg.SampleSize <= 0 || cfg.Rounds <= 0 {
		return nil, nil, fmt.Errorf("experiments: bad overload config %+v", cfg)
	}
	if cfg.Patience <= 0 {
		cfg.Patience = 25 * cfg.ServiceTime
	}
	if cfg.CellDuration <= 0 {
		cfg.CellDuration = 600 * time.Millisecond
	}
	if cfg.AuditDeadline <= 0 {
		cfg.AuditDeadline = cfg.CellDuration
	}
	if len(cfg.LoadMultipliers) == 0 {
		cfg.LoadMultipliers = []float64{1, 2, 4}
	}

	var rows []OverloadRow
	for _, protected := range []bool{true, false} {
		for _, mult := range cfg.LoadMultipliers {
			row, err := overloadCell(pp, cfg, mult, protected)
			if err != nil {
				return nil, nil, err
			}
			rows = append(rows, row)
		}
	}
	var hedgeRows []OverloadHedgeRow
	for _, hedge := range []bool{false, true} {
		row, err := hedgeCell(pp, cfg, hedge)
		if err != nil {
			return nil, nil, err
		}
		hedgeRows = append(hedgeRows, row)
	}
	return rows, hedgeRows, nil
}
