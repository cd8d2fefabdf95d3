// Package epoch simulates SecCloud deployments over time under the
// paper's mobile-adversary model (§III-B, following HAIL [17]): "our
// adversary controls at most b servers for any given epoch". Each epoch,
// the adversary (re)selects which servers it corrupts and with what
// strategy; the user keeps submitting jobs through the CSP; the DA audits
// with a configurable per-epoch sampling budget.
//
// The simulation measures what the paper's analysis promises but never
// plots: how quickly a sampling auditor detects corruption, how many
// wrong results slip through before detection, and how the audit budget
// trades off against exposure.
package epoch

import (
	"context"
	"crypto/rand"
	"fmt"
	"math"
	mrand "math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"seccloud/internal/core"
	"seccloud/internal/funcs"
	"seccloud/internal/ibc"
	"seccloud/internal/netsim"
	"seccloud/internal/obs"
	"seccloud/internal/ops"
	"seccloud/internal/pairing"
	"seccloud/internal/sampling"
	"seccloud/internal/store"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

// Config shapes a simulation run.
type Config struct {
	// Servers is the fleet size n.
	Servers int
	// Corrupted is the adversary's per-epoch budget b (b < n).
	Corrupted int
	// Epochs is the number of simulated epochs.
	Epochs int
	// BlocksPerUser is the outsourced dataset size.
	BlocksPerUser int
	// JobsPerEpoch is how many computing jobs run per epoch.
	JobsPerEpoch int
	// SampleSize is the DA's per-sub-job audit budget t (0 = no audits,
	// pure exposure measurement).
	SampleSize int
	// CheaterCSC is the corrupted servers' computing confidence (they
	// guess the remaining fraction).
	CheaterCSC float64
	// Seed drives server selection, workloads and sampling.
	Seed int64
	// Workers bounds the DA's audit verification pool and each server's
	// store/compute hashing pool (0 or 1 = sequential). Worker count never
	// changes simulation outcomes, only wall-clock time.
	Workers int

	// FaultDrop is the per-message-leg drop probability on every server
	// link (the network-failure adversary).
	FaultDrop float64
	// FaultCorrupt is the per-leg frame-corruption probability.
	FaultCorrupt float64
	// FaultDelay, when non-zero, is extra modeled latency charged to
	// every message leg.
	FaultDelay time.Duration
	// RetryAttempts is the per-message retry budget when faults are on;
	// 0 picks a default sized to survive the configured loss rate.
	RetryAttempts int

	// WALDir, when non-empty, gives every server crash-safe durability: a
	// per-server WAL+snapshot directory under this root. Syncs are elided
	// (NoSync) — the simulation injects process crashes, not power loss.
	WALDir string
	// SnapshotEvery is each server's log-compaction cadence (records per
	// snapshot); 0 picks a default. Forced to 1 when CrashPoint is
	// "mid-snapshot" so the armed crash always finds a snapshot to die in.
	SnapshotEvery int
	// CrashEvery, when > 0, kills one server (round-robin) at the start of
	// every CrashEvery-th epoch and restarts it from its WAL directory, so
	// recovery itself runs under audit pressure. Requires WALDir.
	CrashEvery int
	// CrashPoint names where in the durability pipeline the injected crash
	// fires ("before-log", "after-log", "mid-snapshot", "torn-tail");
	// empty means "after-log".
	CrashPoint string

	// KillEvery, when > 0, takes one server (round-robin) down for the
	// WHOLE of every KillEvery-th epoch: requests to it drop at the
	// transport, jobs fail over to live replicas, and fleet audits must
	// complete by re-issuing rounds elsewhere. Unlike CrashEvery this
	// models an outage/partition, not a process death — no WAL needed,
	// the server returns at the end of the epoch with its state intact.
	KillEvery int
	// FleetSampleSize, when > 0, runs one fleet storage audit per server
	// per epoch (each server takes a turn as primary) with this sampling
	// budget, exercising failover, quorum cross-examination, and repair.
	FleetSampleSize int
	// QuorumK is the witness count for cross-examining a BadProof
	// (0 = default 2).
	QuorumK int
	// Repair executes audit-driven repair for localized corruption.
	Repair bool
	// BadReplicaEpoch, when > 0, silently corrupts BadBlocks blocks on
	// server BadReplica at the start of that epoch — the single-bad-
	// replica scenario the quorum must classify as localized (and, with
	// Repair set, heal).
	BadReplicaEpoch int
	// BadReplica is the replica the corruption lands on.
	BadReplica int
	// BadBlocks is how many blocks (positions 0..BadBlocks-1) rot.
	BadBlocks int

	// MaxInflight, when > 0, puts every server behind an admission gate
	// bounding concurrent request execution — the finite capacity that
	// makes overload real. Required by the overload schedule.
	MaxInflight int
	// QueueLimit bounds the waiters behind each server's inflight slots.
	// 0 sheds immediately when all slots are busy; a negative value is an
	// UNBOUNDED FIFO queue — the unprotected baseline whose latency grows
	// with its backlog. Only meaningful with MaxInflight > 0.
	QueueLimit int
	// ServiceTime charges every server request this much real wall-clock
	// time, so admission gates see genuine occupancy under bursts.
	ServiceTime time.Duration
	// OverloadEvery, when > 0, fires an open-loop burst of background
	// requests at every server at the start of every OverloadEvery-th
	// epoch — issued without waiting for replies, exactly the arrival
	// pattern admission control exists for. Requires MaxInflight > 0.
	OverloadEvery int
	// OfferedLoad sizes the burst as a multiple of the fleet's concurrent
	// capacity (Servers × MaxInflight): 1.0 exactly fills every execution
	// slot, 4.0 is a 4× overload. 0 defaults to 4.
	OfferedLoad float64
	// AuditDeadline, when > 0, bounds each audit's wall clock; expired
	// work is cancelled or skipped, never executed late.
	AuditDeadline time.Duration
	// RetryBudgetTokens, when > 0, shares one token-bucket retry budget
	// (10% refund ratio) across all audits of the run, so correlated
	// failures cannot multiply offered load by MaxAttempts.
	RetryBudgetTokens int
	// DegradeSampling lets the DA shrink audit samples along the
	// Theorem-3 curve when the recent shed/timeout rate crosses the
	// overload threshold, stamping reduced confidence into evidence.
	DegradeSampling bool
	// HedgeFleetRounds duplicates slow fleet audit challenge rounds to a
	// second healthy replica after the fleet's p95 delay; first answer
	// wins, the loser is cancelled.
	HedgeFleetRounds bool

	// Hub receives the simulation's metrics and audit traces: transport
	// latency/fault counters, per-round audit verdicts, breaker states,
	// WAL instruments, and crypto op counts. Nil creates a private hub, so
	// Result.Metrics is always registry-derived. A shared hub accumulates
	// across runs; derive per-run deltas from Result.Metrics instead.
	Hub *obs.Hub
}

// overloadEnabled reports whether the open-loop burst schedule is active.
func (c *Config) overloadEnabled() bool { return c.OverloadEvery > 0 }

// burstRequests is the per-burst request count.
func (c *Config) burstRequests() int {
	load := c.OfferedLoad
	if load <= 0 {
		load = 4
	}
	return int(math.Round(load * float64(c.Servers*c.MaxInflight)))
}

// fleetEnabled reports whether the fleet-robustness layer is active.
func (c *Config) fleetEnabled() bool {
	return c.KillEvery > 0 || c.FleetSampleSize > 0 || c.BadReplicaEpoch > 0
}

// faultsEnabled reports whether the network-failure adversary is active.
func (c *Config) faultsEnabled() bool {
	return c.FaultDrop > 0 || c.FaultCorrupt > 0 || c.FaultDelay > 0
}

// retryAttempts sizes the retry budget.
func (c *Config) retryAttempts() int {
	if c.RetryAttempts > 0 {
		return c.RetryAttempts
	}
	if !c.faultsEnabled() {
		return 1
	}
	return 8
}

func (c *Config) validate() error {
	if c.Servers <= 0 || c.Corrupted < 0 || c.Corrupted >= c.Servers {
		return fmt.Errorf("epoch: need 0 ≤ corrupted < servers, got %d/%d", c.Corrupted, c.Servers)
	}
	if c.Epochs <= 0 || c.BlocksPerUser <= 0 || c.JobsPerEpoch <= 0 {
		return fmt.Errorf("epoch: epochs, blocks and jobs must be positive")
	}
	if c.SampleSize < 0 {
		return fmt.Errorf("epoch: negative sample size %d", c.SampleSize)
	}
	if c.CheaterCSC < 0 || c.CheaterCSC > 1 {
		return fmt.Errorf("epoch: cheater CSC %v outside [0,1]", c.CheaterCSC)
	}
	if c.FaultDrop < 0 || c.FaultDrop > 1 || c.FaultCorrupt < 0 || c.FaultCorrupt > 1 {
		return fmt.Errorf("epoch: fault rates must be in [0,1], got drop=%v corrupt=%v",
			c.FaultDrop, c.FaultCorrupt)
	}
	if c.FaultDelay < 0 {
		return fmt.Errorf("epoch: negative fault delay %v", c.FaultDelay)
	}
	if c.CrashEvery < 0 || c.SnapshotEvery < 0 {
		return fmt.Errorf("epoch: crash/snapshot cadences must be non-negative")
	}
	if c.CrashEvery > 0 && c.WALDir == "" {
		return fmt.Errorf("epoch: crash injection requires a WAL directory")
	}
	if c.KillEvery < 0 || c.FleetSampleSize < 0 || c.BadReplicaEpoch < 0 {
		return fmt.Errorf("epoch: fleet cadences must be non-negative")
	}
	if c.BadReplicaEpoch > 0 {
		if c.BadReplica < 0 || c.BadReplica >= c.Servers {
			return fmt.Errorf("epoch: bad replica %d outside the fleet of %d", c.BadReplica, c.Servers)
		}
		if c.BadBlocks <= 0 || c.BadBlocks > c.BlocksPerUser {
			return fmt.Errorf("epoch: bad blocks %d outside 1..%d", c.BadBlocks, c.BlocksPerUser)
		}
	}
	if _, ok := store.CrashPointByName(c.crashPoint()); !ok {
		return fmt.Errorf("epoch: unknown crash point %q", c.CrashPoint)
	}
	if c.MaxInflight < 0 || c.ServiceTime < 0 || c.OverloadEvery < 0 ||
		c.OfferedLoad < 0 || c.AuditDeadline < 0 || c.RetryBudgetTokens < 0 {
		return fmt.Errorf("epoch: overload knobs must be non-negative")
	}
	if c.OverloadEvery > 0 && c.MaxInflight <= 0 {
		return fmt.Errorf("epoch: the overload schedule requires MaxInflight > 0 (finite server capacity)")
	}
	return nil
}

// crashPoint resolves the configured crash point name.
func (c *Config) crashPoint() string {
	if c.CrashPoint == "" {
		return store.CrashAfterLog.String()
	}
	return c.CrashPoint
}

// snapshotEvery resolves the compaction cadence.
func (c *Config) snapshotEvery() int {
	if c.crashPoint() == store.CrashMidSnapshot.String() {
		return 1 // every append must make a snapshot due, or the crash never fires
	}
	if c.SnapshotEvery > 0 {
		return c.SnapshotEvery
	}
	return 8
}

// EpochStats summarizes one epoch.
type EpochStats struct {
	// Epoch is the 1-based epoch number.
	Epoch int
	// CorruptedServers are the adversary's picks this epoch.
	CorruptedServers []int
	// JobsRun is the number of sub-jobs executed.
	JobsRun int
	// AuditsRun is the number of sub-job audits executed.
	AuditsRun int
	// Detections is the number of audits that flagged cheating.
	Detections int
	// FlaggedServers are the server indices flagged by audits.
	FlaggedServers []int
	// CorruptResultsAccepted counts wrong sub-task results that reached
	// the user without their sub-job being flagged this epoch (exposure).
	CorruptResultsAccepted int
	// JobsFailed counts sub-jobs the CSP could not complete even after
	// retries (lost to the network-failure adversary).
	JobsFailed int
	// NetworkFaultRounds counts audit challenge rounds lost to transport
	// faults (recorded, never converted into cheating evidence).
	NetworkFaultRounds int
	// DegradedAudits counts audits whose effective sample was smaller
	// than planned because of network faults.
	DegradedAudits int
	// CrashedServers are the servers killed and recovered this epoch.
	CrashedServers []int
	// KilledServers are the servers down for this whole epoch.
	KilledServers []int
	// JobFailovers counts sub-jobs the CSP moved off their slot server.
	JobFailovers int
	// FleetAudits / FleetFailovers count fleet storage audits and the
	// rounds they re-issued to another replica.
	FleetAudits    int
	FleetFailovers int
	// LocalizedVerdicts / ProviderWideVerdicts / InconclusiveVerdicts
	// count quorum cross-examination outcomes.
	LocalizedVerdicts    int
	ProviderWideVerdicts int
	InconclusiveVerdicts int
	// RepairsConfirmed counts repairs whose targeted re-audit passed.
	RepairsConfirmed int
	// BurstFired is the open-loop background request count this epoch.
	BurstFired int
	// ShedRounds counts audit challenge rounds refused by admission
	// control (typed sheds — recorded, never accusatory).
	ShedRounds int
	// BudgetDenied counts retries refused by the shared retry budget.
	BudgetDenied int
	// HedgedRounds counts fleet audit rounds won by a hedged duplicate.
	HedgedRounds int
	// OverloadDegradedAudits counts audits whose planned sample was
	// shrunk by the overload controller before dispatch.
	OverloadDegradedAudits int
}

// Result is the whole simulation outcome.
type Result struct {
	Config Config
	Epochs []EpochStats
	// FirstDetectionEpoch is the first epoch with a detection (0 = never).
	FirstDetectionEpoch int
	// TotalExposure sums CorruptResultsAccepted over all epochs.
	TotalExposure int
	// FalseFlags counts audits that flagged a server the adversary did
	// not control that epoch (must be zero: the scheme has no false
	// positives against honest servers — including under network faults).
	FalseFlags int
	// AuditsRun totals audits across epochs.
	AuditsRun int
	// DegradedAudits totals audits with a shrunken effective sample.
	DegradedAudits int
	// NetworkFaultRounds totals challenge rounds lost to the transport.
	NetworkFaultRounds int
	// JobsFailed totals sub-jobs lost to the network.
	JobsFailed int
	// Crashes counts injected process crashes; Recoveries counts the
	// successful WAL restarts that followed (they must match, and every
	// recovered server must keep passing audits — FalseFlags stays 0).
	Crashes    int
	Recoveries int
	// Kills counts whole-epoch outages injected by KillEvery.
	Kills int
	// JobFailovers totals sub-jobs moved off their slot server.
	JobFailovers int
	// FleetAudits totals fleet storage audits; DegradedFleetAudits those
	// that could not complete their full sample even with failover.
	FleetAudits         int
	DegradedFleetAudits int
	// FleetFailovers totals re-issued fleet audit rounds.
	FleetFailovers int
	// Quorum verdict totals.
	LocalizedVerdicts    int
	ProviderWideVerdicts int
	InconclusiveVerdicts int
	// RepairsAttempted / RepairsConfirmed total audit-driven repairs and
	// those whose targeted re-audit passed.
	RepairsAttempted int
	RepairsConfirmed int
	// BurstsFired totals open-loop background requests across epochs.
	BurstsFired int
	// ShedRounds / BudgetDenied / HedgedRounds / OverloadDegradedAudits
	// total the per-epoch overload counters.
	ShedRounds             int
	BudgetDenied           int
	HedgedRounds           int
	OverloadDegradedAudits int
	// RequestsShed is the server-side view: requests (audit or burst)
	// refused by the admission gates.
	RequestsShed uint64
	// MaxQueueDepth is the deepest any server's admission queue ever got —
	// bounded by QueueLimit under protection, unbounded growth without.
	MaxQueueDepth int
	// Metrics is the end-of-run summary derived from the metrics registry
	// (not from the hand-rolled counters above); with a fresh hub the two
	// views agree exactly.
	Metrics MetricsSummary
}

// MetricsSummary is the registry-derived view of a run: every field is
// read back from the instruments the audit pipeline recorded into,
// providing an independent cross-check of the hand-rolled accumulation.
type MetricsSummary struct {
	// AuditsRun / FleetAudits count returned job / fleet audit reports.
	AuditsRun   int
	FleetAudits int
	// NetworkFaultRounds counts job-audit rounds lost to the transport
	// (verdicts network-fault and timeout).
	NetworkFaultRounds int
	// FleetFailovers counts re-issued fleet audit rounds.
	FleetFailovers int
	// RepairsAttempted / RepairsConfirmed count audit-driven repairs.
	RepairsAttempted int
	RepairsConfirmed int
	// FalseFlags counts audits that flagged a genuinely honest server.
	FalseFlags int
}

// SummarizeRegistry derives a MetricsSummary from a registry snapshot.
func SummarizeRegistry(s obs.Snapshot) MetricsSummary {
	return MetricsSummary{
		AuditsRun:   int(s.Total("audits_total", map[string]string{"type": "job"})),
		FleetAudits: int(s.Total("audits_total", map[string]string{"type": "fleet"})),
		NetworkFaultRounds: int(s.Total("audit_rounds_total", map[string]string{"type": "job", "verdict": "network-fault"}) +
			s.Total("audit_rounds_total", map[string]string{"type": "job", "verdict": "timeout"})),
		FleetFailovers:   int(s.Total("fleet_failovers_total", nil)),
		RepairsAttempted: int(s.Total("fleet_repairs_total", map[string]string{"stage": "attempted"})),
		RepairsConfirmed: int(s.Total("fleet_repairs_total", map[string]string{"stage": "confirmed"})),
		FalseFlags:       int(s.Total("sim_false_flags_total", nil)),
	}
}

// FleetAvailability is the fraction of fleet storage audits that
// completed their full planned sample — failover hides outages, so this
// stays 1.0 as long as some replica can answer every round (1.0 when no
// fleet audits ran).
func (r *Result) FleetAvailability() float64 {
	if r.FleetAudits == 0 {
		return 1
	}
	return 1 - float64(r.DegradedFleetAudits)/float64(r.FleetAudits)
}

// AuditSuccessRate is the fraction of audits that completed their full
// planned sample despite the fault injector (1.0 when no audits ran).
func (r *Result) AuditSuccessRate() float64 {
	if r.AuditsRun == 0 {
		return 1
	}
	return 1 - float64(r.DegradedAudits)/float64(r.AuditsRun)
}

// switchablePolicy lets the simulation flip a server between honest and
// cheating across epochs without rebuilding server state.
type switchablePolicy struct {
	active core.CheatPolicy
	honest core.Honest
	on     bool
}

func (s *switchablePolicy) Name() string {
	if s.on {
		return "epoch:" + s.active.Name()
	}
	return "epoch:honest"
}

func (s *switchablePolicy) OnStore(pos uint64, data []byte, sig wire.BlockSig) ([]byte, bool) {
	if s.on {
		return s.active.OnStore(pos, data, sig)
	}
	return s.honest.OnStore(pos, data, sig)
}

func (s *switchablePolicy) RedirectPosition(taskIdx int, pos uint64) uint64 {
	if s.on {
		return s.active.RedirectPosition(taskIdx, pos)
	}
	return pos
}

func (s *switchablePolicy) OnResult(taskIdx int, task wire.TaskSpec, honest func() ([]byte, error)) ([]byte, error) {
	if s.on {
		return s.active.OnResult(taskIdx, task, honest)
	}
	return honest()
}

// latentHandler charges a real service time to every request, so
// admission gates see genuine occupancy while a request executes.
type latentHandler struct {
	inner netsim.Handler
	d     time.Duration
}

func (h *latentHandler) Handle(m wire.Message) wire.Message {
	time.Sleep(h.d)
	return h.inner.Handle(m)
}

// Run executes the simulation.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := mrand.New(mrand.NewSource(cfg.Seed))
	hub := cfg.Hub
	if hub == nil {
		hub = obs.NewHub()
	}
	falseFlags := hub.Counter("sim_false_flags_total").With()

	sio, err := ibc.Setup(pairing.InsecureTest256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	sp := sio.Params()
	userKey, err := sio.Extract("user:epoch")
	if err != nil {
		return nil, err
	}
	daKey, err := sio.Extract("da:epoch")
	if err != nil {
		return nil, err
	}
	user := core.NewUser(sp, userKey, rand.Reader)
	agency := core.NewAgency(sp, daKey, rand.Reader).WithWorkers(cfg.Workers).WithObs(hub)
	// Crypto op counts flow into the registry at scrape time.
	ops.Export(hub.Registry(), "g1", sp.G1().Counters())

	// The retry machinery runs on a virtual clock: backoff is decided but
	// never slept, so lossy-link simulations stay fast and deterministic.
	noSleep := func(context.Context, time.Duration) error { return nil }
	newRetrier := func(seed int64) *netsim.Retrier {
		r := netsim.NewRetrier(seed)
		r.MaxAttempts = cfg.retryAttempts()
		r.Sleep = noSleep
		r.OnRetry = netsim.RetryHook(hub)
		return r
	}

	// The DA's overload protections: one degradation controller and one
	// retry budget shared across the whole run, so audit N's pressure
	// informs audit N+1 and correlated failures cannot amplify.
	var overloadCtl *core.OverloadController
	if cfg.DegradeSampling {
		overloadCtl = core.NewOverloadController(core.OverloadConfig{}).WithObs(hub)
	}
	var budget *netsim.RetryBudget
	if cfg.RetryBudgetTokens > 0 {
		budget = netsim.NewRetryBudget(float64(cfg.RetryBudgetTokens), 0.1).WithObs(hub)
	}

	policies := make([]*switchablePolicy, cfg.Servers)
	clients := make([]netsim.Client, cfg.Servers)
	cspClients := make([]netsim.Client, cfg.Servers)
	handlers := make([]*netsim.SwappableHandler, cfg.Servers)
	downs := make([]*netsim.DownableHandler, cfg.Servers)
	crashers := make([]*store.Crasher, cfg.Servers)
	var gates []*netsim.Admission
	if cfg.MaxInflight > 0 {
		gates = make([]*netsim.Admission, cfg.Servers)
	}
	// newServer builds server i's incarnation; with a WALDir this runs the
	// full recovery path (snapshot load, WAL replay, Merkle cross-checks)
	// every time it is called on a non-empty directory.
	newServer := func(i int, crash *store.Crasher) (*core.Server, error) {
		key, err := sio.Extract(fmt.Sprintf("cs:epoch-%d", i))
		if err != nil {
			return nil, err
		}
		sc := core.ServerConfig{
			Policy:  policies[i],
			Random:  rand.Reader,
			Workers: cfg.Workers,
		}
		if cfg.WALDir != "" {
			sc.Durability = &core.DurabilityConfig{
				Dir:           filepath.Join(cfg.WALDir, fmt.Sprintf("cs-%d", i)),
				SnapshotEvery: cfg.snapshotEvery(),
				NoSync:        true,
				Crash:         crash,
				Obs:           hub,
			}
		}
		return core.NewServer(sp, key, sc)
	}
	for i := 0; i < cfg.Servers; i++ {
		policies[i] = &switchablePolicy{
			active: &core.ComputationCheater{
				CSC: cfg.CheaterCSC,
				Rng: mrand.New(mrand.NewSource(cfg.Seed + int64(i) + 1)),
			},
		}
		crashers[i] = &store.Crasher{}
		srv, err := newServer(i, crashers[i])
		if err != nil {
			return nil, err
		}
		handlers[i] = netsim.NewSwappableHandler(srv)
		// The downable wrapper sits between the stable identity and the
		// link: the kill schedule flips it so the whole epoch sees the
		// server as unreachable, with its state (and WAL) intact.
		downs[i] = netsim.NewDownableHandler(handlers[i])
		var h netsim.Handler = downs[i]
		if cfg.ServiceTime > 0 {
			h = &latentHandler{inner: h, d: cfg.ServiceTime}
		}
		lb := netsim.NewLoopback(h, netsim.LinkConfig{}).WithObs(hub)
		if gates != nil {
			// One gate per server, attached at the loopback so every path
			// reaching the server — CSP jobs, audits, burst traffic — is
			// bounded by the same inflight and queue limits. The service
			// latency sleeps inside the gate, so occupancy is real.
			gates[i] = netsim.NewAdmission(netsim.AdmissionConfig{
				MaxInflight: cfg.MaxInflight,
				MaxQueue:    cfg.QueueLimit,
				RetryAfter:  2 * time.Millisecond,
			}).WithObs(hub, fmt.Sprintf("cs-%d", i))
			lb = lb.WithAdmission(gates[i])
		}
		if cfg.faultsEnabled() {
			delayRate := 0.0
			if cfg.FaultDelay > 0 {
				delayRate = 1
			}
			lb = lb.WithFaults(netsim.FaultConfig{
				Seed:        cfg.Seed + 1000 + int64(i),
				DropRate:    cfg.FaultDrop,
				CorruptRate: cfg.FaultCorrupt,
				DelayRate:   delayRate,
				Delay:       cfg.FaultDelay,
			})
		}
		clients[i] = lb
		// The CSP's store/compute path survives the lossy link through a
		// transparent retry decorator; the DA's audit path instead uses
		// its own fault-aware round machinery on the raw link.
		cspClients[i] = netsim.NewRetryClient(lb, newRetrier(cfg.Seed+2000+int64(i)))
	}

	// The fleet shares one health tracker between every path that talks
	// to the servers: audits and CSP traffic feed the same breakers, so a
	// server that stops answering jobs is already suspect when the next
	// audit round would have gone to it.
	var fleet *core.Fleet
	if cfg.fleetEnabled() {
		ids := make([]string, cfg.Servers)
		for i := range ids {
			ids[i] = fmt.Sprintf("cs:epoch-%d", i)
		}
		fleet, err = core.NewFleet(clients, ids, core.BreakerConfig{})
		if err != nil {
			return nil, err
		}
		core.ObserveFleet(hub, fleet)
		for i := range cspClients {
			cspClients[i] = fleet.Instrument(i, cspClients[i])
		}
	}
	csp, err := core.NewCSP(cspClients)
	if err != nil {
		return nil, err
	}
	if fleet != nil {
		csp = csp.WithHealth(fleet.Health())
	}

	// Outsource once; data persists across epochs.
	gen := workload.NewGenerator(cfg.Seed)
	ds := gen.GenDataset(user.ID(), cfg.BlocksPerUser, 8)
	verifiers := make([]string, 0, cfg.Servers+1)
	for i := 0; i < cfg.Servers; i++ {
		verifiers = append(verifiers, fmt.Sprintf("cs:epoch-%d", i))
	}
	verifiers = append(verifiers, agency.ID())
	storeReq, err := user.PrepareStore(ds, verifiers...)
	if err != nil {
		return nil, err
	}
	if err := csp.ReplicateStore(user, storeReq); err != nil {
		return nil, err
	}
	warrant, err := core.WildcardWarrant(user, agency.ID(), time.Now().Add(24*time.Hour))
	if err != nil {
		return nil, err
	}
	reg := funcs.NewRegistry()

	result := &Result{Config: cfg}
	// badPositions tracks which injected-rot positions are still unhealed
	// on the bad replica.
	badPositions := make(map[uint64]bool)
	for ep := 1; ep <= cfg.Epochs; ep++ {
		stats := EpochStats{Epoch: ep}

		// The crash schedule: kill one server (round-robin) at its armed
		// crash point, then restart it from its WAL directory. The dying
		// mutation is a routine same-content rewrite of block 0, so the
		// dataset the audits check is unchanged whether or not the record
		// survived the crash.
		if cfg.CrashEvery > 0 && ep%cfg.CrashEvery == 0 {
			v := (ep/cfg.CrashEvery - 1) % cfg.Servers
			point, _ := store.CrashPointByName(cfg.crashPoint())
			crashers[v].Arm(point)
			err := user.UpdateBlock(cspClients[v], 0, ds.Blocks[0], verifiers...)
			if err == nil || !crashers[v].Fired() {
				return nil, fmt.Errorf("epoch %d: crash at %v on server %d did not fire (err=%v)",
					ep, point, v, err)
			}
			result.Crashes++
			stats.CrashedServers = append(stats.CrashedServers, v)
			// Restart: a fresh incarnation recovered from disk, behind the
			// same network identity. Crashers are one-shot, so the new
			// incarnation gets a new one.
			crashers[v] = &store.Crasher{}
			srv, err := newServer(v, crashers[v])
			if err != nil {
				return nil, fmt.Errorf("epoch %d: restarting server %d: %w", ep, v, err)
			}
			if !srv.Recovery().Recovered {
				return nil, fmt.Errorf("epoch %d: server %d restart recovered nothing", ep, v)
			}
			handlers[v].Swap(srv)
			result.Recoveries++
			// The client re-issues the unacked mutation (fresh sequence
			// number); durable-or-lost, the state converges either way.
			if err := user.UpdateBlock(cspClients[v], 0, ds.Blocks[0], verifiers...); err != nil {
				return nil, fmt.Errorf("epoch %d: redelivery to recovered server %d: %w", ep, v, err)
			}
		}

		// The outage schedule: one server (round-robin) is unreachable for
		// this whole epoch. If the crash schedule already picked the same
		// server this epoch, shift by one — the crash machinery needs to
		// reach its victim to kill it.
		killVictim := -1
		if cfg.KillEvery > 0 && ep%cfg.KillEvery == 0 {
			killVictim = (ep/cfg.KillEvery - 1) % cfg.Servers
			if len(stats.CrashedServers) > 0 && killVictim == stats.CrashedServers[0] {
				killVictim = (killVictim + 1) % cfg.Servers
			}
			downs[killVictim].SetDown(true)
			stats.KilledServers = append(stats.KilledServers, killVictim)
			result.Kills++
		}

		// The silent-corruption injection: BadBlocks blocks rot on one
		// replica, beneath the durability layer — no WAL record, no
		// signature change, exactly what a quorum cross-examination must
		// classify as localized.
		if cfg.BadReplicaEpoch > 0 && ep == cfg.BadReplicaEpoch {
			srv := handlers[cfg.BadReplica].Current().(*core.Server)
			for b := 0; b < cfg.BadBlocks; b++ {
				// Bit-flip the real block rather than truncating it: the
				// rotten bytes stay structurally decodable, so compute jobs
				// run (and return wrong results) instead of erroring out —
				// silent corruption, not a crash.
				rot := append([]byte(nil), ds.Blocks[b]...)
				for i := range rot {
					rot[i] ^= 0xA5
				}
				if _, ok := srv.TamperBlock(user.ID(), uint64(b), rot); !ok {
					return nil, fmt.Errorf("epoch %d: tampering block %d on server %d found nothing", ep, b, cfg.BadReplica)
				}
				badPositions[uint64(b)] = true
			}
		}

		// The mobile adversary re-picks its b servers.
		picks := core.SampleIndices(rng, cfg.Servers, cfg.Corrupted)
		corrupted := make(map[int]bool, len(picks))
		for _, p := range picks {
			stats.CorruptedServers = append(stats.CorruptedServers, int(p))
			corrupted[int(p)] = true
		}
		for i, pol := range policies {
			pol.on = corrupted[i]
		}

		// The overload schedule: OfferedLoad × capacity background clients
		// hammer the admission gates for the whole epoch, each re-offering
		// the moment its previous request resolves — offered concurrency
		// stays constant no matter how slowly the servers answer, which is
		// what makes the overload open-loop. Shed clients honor the
		// server's retry-after hint instead of spinning. The audits run
		// INTO this pressure; the burst is only reaped at epoch end.
		var burstWG sync.WaitGroup
		var burstStop chan struct{}
		var burstSent int64
		burstActive := cfg.overloadEnabled() && ep%cfg.OverloadEvery == 0
		if burstActive {
			burstStop = make(chan struct{})
			for k := 0; k < cfg.burstRequests(); k++ {
				i := k % cfg.Servers
				burstWG.Add(1)
				go func(i int) {
					defer burstWG.Done()
					for {
						select {
						case <-burstStop:
							return
						default:
						}
						atomic.AddInt64(&burstSent, 1)
						_, err := clients[i].RoundTripContext(context.Background(), &wire.StorageAuditRequest{UserID: "overload-burst"})
						if netsim.IsOverloaded(err) {
							time.Sleep(2 * time.Millisecond)
						}
					}
				}(i)
			}
		}

		for j := 0; j < cfg.JobsPerEpoch; j++ {
			jobID := fmt.Sprintf("epoch-%d-job-%d", ep, j)
			job := workload.UniformJob(user.ID(), funcs.Spec{Name: "digest"}, cfg.BlocksPerUser)
			subs, err := csp.RunJob(user, jobID, job)
			if err != nil {
				if cfg.faultsEnabled() || killVictim >= 0 || burstActive {
					// The network ate the job even after retries; record
					// the loss and keep the simulation running.
					stats.JobsFailed++
					continue
				}
				return nil, fmt.Errorf("epoch %d job %d: %w", ep, j, err)
			}
			stats.JobsRun += len(subs)
			for _, sub := range subs {
				if sub.ServerIdx != sub.Slot {
					stats.JobFailovers++
				}
			}

			flagged := make(map[int]bool)
			if cfg.SampleSize > 0 {
				auditCfg := core.AuditConfig{
					SampleSize:      cfg.SampleSize,
					BatchSignatures: true,
					Deadline:        cfg.AuditDeadline,
					Budget:          budget,
					Overload:        overloadCtl,
				}
				if cfg.faultsEnabled() || cfg.overloadEnabled() {
					// The DA splits the sample across rounds and retries
					// each a few times; rounds still lost degrade the
					// effective sample instead of aborting the audit. The
					// smaller budget (vs. the CSP's) makes degradation
					// observable in fault sweeps.
					auditCfg.Rounds = 3
					auditCfg.Analysis = &sampling.Params{CSC: cfg.CheaterCSC, SSC: 0, R: math.Inf(1)}
				}
				for i, d := range core.Delegations(user, subs, warrant) {
					auditCfg.Rng = mrand.New(mrand.NewSource(rng.Int63()))
					if cfg.faultsEnabled() || cfg.overloadEnabled() {
						r := newRetrier(rng.Int63())
						r.MaxAttempts = 3
						auditCfg.Retry = r
					}
					// Audits run on the raw faulty link so the agency's
					// own fault-aware machinery is what gets exercised —
					// through the fleet's instrumentation when it exists,
					// so audit outcomes feed the breakers too.
					auditClient := clients[subs[i].ServerIdx]
					if fleet != nil {
						auditClient = fleet.Client(subs[i].ServerIdx)
					}
					report, err := agency.AuditJob(auditClient, d, auditCfg)
					if err != nil {
						return nil, fmt.Errorf("epoch %d audit: %w", ep, err)
					}
					stats.AuditsRun++
					stats.NetworkFaultRounds += report.NetworkFaultRounds()
					stats.ShedRounds += report.ShedRounds()
					stats.BudgetDenied += report.BudgetDenied
					if report.DegradedByOverload {
						stats.OverloadDegradedAudits++
					}
					if report.Degraded() {
						stats.DegradedAudits++
					}
					if !report.Valid() {
						stats.Detections++
						sIdx := subs[i].ServerIdx
						flagged[sIdx] = true
						stats.FlaggedServers = append(stats.FlaggedServers, sIdx)
						// A flag is false only when the server was neither
						// adversary-controlled nor carrying injected rot:
						// the bad replica genuinely serves wrong bytes.
						rotten := len(badPositions) > 0 && sIdx == cfg.BadReplica
						if !corrupted[sIdx] && !rotten {
							result.FalseFlags++
							falseFlags.Inc()
						}
					}
				}
			}

			// Exposure: wrong results from unflagged sub-jobs reach the user.
			for _, sub := range subs {
				if flagged[sub.ServerIdx] {
					continue // user drops flagged results (Return Step)
				}
				for k, ti := range sub.TaskIndices {
					want, err := reg.Eval(funcs.Spec{Name: "digest"}, [][]byte{ds.Blocks[ti]})
					if err != nil {
						return nil, err
					}
					if string(want) != string(sub.Resp.Results[k]) {
						stats.CorruptResultsAccepted++
					}
				}
			}
		}
		// Fleet storage audits: every server takes one turn as primary, so
		// a killed primary forces observable failover and the bad replica
		// is always challenged directly at least once per epoch.
		if fleet != nil && cfg.FleetSampleSize > 0 {
			for pi := 0; pi < cfg.Servers; pi++ {
				fcfg := core.FleetAuditConfig{
					Storage: core.AuditConfig{
						DatasetSize:     cfg.BlocksPerUser,
						SampleSize:      cfg.FleetSampleSize,
						Rounds:          2,
						BatchSignatures: true,
						Rng:             mrand.New(mrand.NewSource(rng.Int63())),
						Deadline:        cfg.AuditDeadline,
						Budget:          budget,
						Overload:        overloadCtl,
					},
					Primary: pi,
					QuorumK: cfg.QuorumK,
					Repair:  cfg.Repair,
					Hedge:   cfg.HedgeFleetRounds,
				}
				if cfg.faultsEnabled() || cfg.overloadEnabled() {
					r := newRetrier(rng.Int63())
					r.MaxAttempts = 3
					fcfg.Storage.Retry = r
				}
				fr, err := agency.AuditStorageFleet(fleet, user.ID(), warrant, fcfg)
				if err != nil {
					return nil, fmt.Errorf("epoch %d fleet audit (primary %d): %w", ep, pi, err)
				}
				stats.FleetAudits++
				stats.FleetFailovers += len(fr.Failovers)
				stats.ShedRounds += fr.ShedRounds()
				stats.HedgedRounds += fr.HedgedRounds()
				stats.BudgetDenied += fr.BudgetDenied
				if fr.DegradedByOverload {
					stats.OverloadDegradedAudits++
				}
				if fr.Degraded() {
					result.DegradedFleetAudits++
				}
				for _, q := range fr.Quorums {
					switch q.Class {
					case core.QuorumLocalized:
						stats.LocalizedVerdicts++
					case core.QuorumProviderWide:
						stats.ProviderWideVerdicts++
					default:
						stats.InconclusiveVerdicts++
					}
					// A storage accusation against a replica that is
					// neither adversary-controlled nor carrying injected
					// rot is a false flag.
					rotten := len(badPositions) > 0 && q.Accused == cfg.BadReplica
					if !corrupted[q.Accused] && !rotten {
						result.FalseFlags++
						falseFlags.Inc()
					}
				}
				for _, rp := range fr.Repairs {
					result.RepairsAttempted++
					if !rp.Confirmed {
						continue
					}
					stats.RepairsConfirmed++
					if rp.Plan.Target == cfg.BadReplica {
						for _, pos := range rp.Plan.Positions {
							delete(badPositions, pos)
						}
					}
				}
			}
		}

		// Reap the open-loop burst so goroutines never outlive their epoch
		// (bounded queues shed the excess instantly; the unbounded
		// baseline drains here, charging its backlog to this epoch).
		if burstActive {
			close(burstStop)
			burstWG.Wait()
			stats.BurstFired = int(atomic.LoadInt64(&burstSent))
			result.BurstsFired += stats.BurstFired
		}

		// The killed server returns at the end of the epoch, state intact.
		if killVictim >= 0 {
			downs[killVictim].SetDown(false)
		}

		if stats.Detections > 0 && result.FirstDetectionEpoch == 0 {
			result.FirstDetectionEpoch = ep
		}
		result.TotalExposure += stats.CorruptResultsAccepted
		result.AuditsRun += stats.AuditsRun
		result.DegradedAudits += stats.DegradedAudits
		result.NetworkFaultRounds += stats.NetworkFaultRounds
		result.JobsFailed += stats.JobsFailed
		result.JobFailovers += stats.JobFailovers
		result.FleetAudits += stats.FleetAudits
		result.FleetFailovers += stats.FleetFailovers
		result.LocalizedVerdicts += stats.LocalizedVerdicts
		result.ProviderWideVerdicts += stats.ProviderWideVerdicts
		result.InconclusiveVerdicts += stats.InconclusiveVerdicts
		result.RepairsConfirmed += stats.RepairsConfirmed
		result.ShedRounds += stats.ShedRounds
		result.BudgetDenied += stats.BudgetDenied
		result.HedgedRounds += stats.HedgedRounds
		result.OverloadDegradedAudits += stats.OverloadDegradedAudits
		result.Epochs = append(result.Epochs, stats)
	}
	for _, g := range gates {
		s := g.Snapshot()
		result.RequestsShed += s.Shed
		if s.MaxQueueDepth > result.MaxQueueDepth {
			result.MaxQueueDepth = s.MaxQueueDepth
		}
	}
	result.Metrics = SummarizeRegistry(hub.Registry().Snapshot())
	return result, nil
}
