package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seccloud/internal/netsim"
	"seccloud/internal/obs"
	"seccloud/internal/wire"
)

// Fleet robustness — the paper's CSP fans work across "hundreds of Cloud
// Computing servers" (§III-A), and core.CSP replicates every store to the
// whole fleet. This file makes the audit pipeline exploit that
// replication instead of being stalled by it:
//
//   - a per-server circuit breaker tracks transport health so a dead
//     replica stops eating timeouts;
//   - storage-audit rounds fail over to another replica when the
//     challenged one is down, recording the switch in the signed
//     evidence, so a crash never converts into a RoundBadProof;
//   - a BadProof triggers quorum cross-examination: the same positions
//     are challenged on k other replicas, splitting "one replica rotted"
//     from "the provider is cheating everywhere";
//   - localized corruption is repaired from a replica whose designated
//     signatures verify (eq. 5/7 gates the copy), through the normal
//     WAL'd store path, confirmed by a targeted re-audit.
//
// Everything here is deterministic given the fault schedule and the
// challenge RNG: breakers count failures (no clocks), failover walks
// replicas in index order, and rounds run sequentially so breaker state
// evolves identically across runs.

// ServerState is a replica's health as seen by the circuit breaker.
type ServerState int

// The breaker states.
const (
	// StateClosed: the replica is healthy; requests flow.
	StateClosed ServerState = iota + 1
	// StateOpen: consecutive transport failures tripped the breaker;
	// requests are skipped until the cooldown allows a probe.
	StateOpen
	// StateHalfOpen: the cooldown elapsed; the next request is a probe
	// whose outcome closes or re-opens the breaker.
	StateHalfOpen
)

// String renders the state.
func (s ServerState) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// BreakerConfig shapes a circuit breaker. The breaker is deliberately
// clock-free: opening is triggered by consecutive failure COUNTS and the
// cooldown is measured in denied Allow calls, so simulations with fake
// clocks and real deployments behave identically and reproducibly.
type BreakerConfig struct {
	// FailThreshold is how many consecutive transport failures open the
	// breaker; ≤ 0 means the default (3).
	FailThreshold int
	// OpenCooldown is how many Allow calls an open breaker denies before
	// letting a half-open probe through; ≤ 0 means the default (2).
	OpenCooldown int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.OpenCooldown <= 0 {
		c.OpenCooldown = 2
	}
	return c
}

// Breaker is one replica's circuit breaker, fed by transport outcomes.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    ServerState
	fails    int // consecutive transport failures while closed
	cooldown int // remaining Allow denials while open
	trips    int // lifetime closed/half-open → open transitions
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults(), state: StateClosed}
}

// State returns the current state.
func (b *Breaker) State() ServerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// Allow reports whether a request should be sent to this replica. While
// open it burns one cooldown unit per call; when the cooldown reaches
// zero the breaker goes half-open and admits a probe.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateOpen:
		b.cooldown--
		if b.cooldown > 0 {
			return false
		}
		b.state = StateHalfOpen
		return true
	default: // closed, half-open
		return true
	}
}

// Report feeds one transport outcome. A success resets the failure run
// and closes a half-open breaker; a failure re-opens a half-open breaker
// immediately and opens a closed one at the threshold.
func (b *Breaker) Report(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.fails = 0
		if b.state == StateHalfOpen {
			b.state = StateClosed
		}
		return
	}
	switch b.state {
	case StateHalfOpen:
		b.tripLocked()
	case StateClosed:
		b.fails++
		if b.fails >= b.cfg.FailThreshold {
			b.tripLocked()
		}
	}
}

func (b *Breaker) tripLocked() {
	b.state = StateOpen
	b.cooldown = b.cfg.OpenCooldown
	b.fails = 0
	b.trips++
}

// FleetHealth aggregates the per-replica breakers.
type FleetHealth struct {
	breakers []*Breaker
}

// NewFleetHealth builds n closed breakers.
func NewFleetHealth(n int, cfg BreakerConfig) *FleetHealth {
	h := &FleetHealth{breakers: make([]*Breaker, n)}
	for i := range h.breakers {
		h.breakers[i] = NewBreaker(cfg)
	}
	return h
}

// NumServers returns the fleet size.
func (h *FleetHealth) NumServers() int { return len(h.breakers) }

// Breaker returns replica i's breaker.
func (h *FleetHealth) Breaker(i int) *Breaker { return h.breakers[i] }

// States snapshots every replica's state.
func (h *FleetHealth) States() []ServerState {
	out := make([]ServerState, len(h.breakers))
	for i, b := range h.breakers {
		out[i] = b.State()
	}
	return out
}

// healthClient decorates a transport client so that every round trip
// feeds the replica's breaker: transport-class failures (disconnects,
// timeouts, corrupt frames) count against it, anything that produced a
// reply — including protocol errors, which implicate logic, not the
// link, and typed overload sheds, which come from a live server — counts
// as liveness. A trip that failed because the caller cancelled its ctx
// reports nothing: that is the losing leg of a hedge (or an abandoned
// audit), and it says nothing about the replica. A deadline expiry still
// counts as a failure.
type healthClient struct {
	netsim.Client
	b *Breaker
}

func (c *healthClient) RoundTripContext(ctx context.Context, m wire.Message) (wire.Message, error) {
	resp, err := c.Client.RoundTripContext(ctx, m)
	if err != nil && errors.Is(ctx.Err(), context.Canceled) {
		return resp, err
	}
	c.b.Report(err == nil || !(netsim.IsRetryable(err) || netsim.IsTimeout(err)))
	return resp, err
}

// Fleet is a set of replica links sharing one health tracker. The audit
// and CSP paths consult the breakers before sending; the instrumented
// clients keep the breakers honest about every outcome.
type Fleet struct {
	clients []netsim.Client // instrumented
	ids     []string
	health  *FleetHealth
	// latency tracks successful round latencies for adaptive hedge delays;
	// hedge counts the duplicates actually launched and won.
	latency *netsim.LatencyTracker
	hedge   *netsim.HedgeStats
}

// NewFleet wraps the replica clients with breaker instrumentation. ids
// name the replicas for evidence (nil derives "server-<i>"); a non-nil
// ids must match clients in length.
func NewFleet(clients []netsim.Client, ids []string, cfg BreakerConfig) (*Fleet, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("core: fleet needs at least one replica")
	}
	if ids != nil && len(ids) != len(clients) {
		return nil, fmt.Errorf("core: fleet has %d clients but %d ids", len(clients), len(ids))
	}
	f := &Fleet{
		clients: make([]netsim.Client, len(clients)),
		ids:     make([]string, len(clients)),
		health:  NewFleetHealth(len(clients), cfg),
		latency: netsim.NewLatencyTracker(64),
		hedge:   &netsim.HedgeStats{},
	}
	for i, cl := range clients {
		f.clients[i] = &healthClient{Client: cl, b: f.health.breakers[i]}
		if ids != nil {
			f.ids[i] = ids[i]
		} else {
			f.ids[i] = fmt.Sprintf("server-%d", i)
		}
	}
	return f, nil
}

// NumServers returns the fleet size.
func (f *Fleet) NumServers() int { return len(f.clients) }

// Health exposes the shared health tracker.
func (f *Fleet) Health() *FleetHealth { return f.health }

// ServerID returns replica i's identity.
func (f *Fleet) ServerID(i int) string { return f.ids[i] }

// Client returns replica i's breaker-instrumented link, for callers
// (CSP, targeted audits) that should feed the shared health state.
func (f *Fleet) Client(i int) netsim.Client { return f.clients[i] }

// Instrument wraps an arbitrary client for replica i — typically a retry
// decorator over the same link — so its outcomes feed the shared
// breaker. A retried-and-recovered call reports one success; an
// exhausted retry budget reports one failure.
func (f *Fleet) Instrument(i int, c netsim.Client) netsim.Client {
	return &healthClient{Client: c, b: f.health.breakers[i]}
}

// nextReplica picks the lowest-index replica not yet tried, or -1.
// Index order keeps failover deterministic for a fixed fault schedule.
func (f *Fleet) nextReplica(tried map[int]bool) int {
	for i := range f.clients {
		if !tried[i] {
			return i
		}
	}
	return -1
}

// HedgeStats returns a copy of the fleet's hedge counters.
func (f *Fleet) HedgeStats() netsim.HedgeStats {
	return netsim.HedgeStats{
		Launched: atomic.LoadInt64(&f.hedge.Launched),
		Wins:     atomic.LoadInt64(&f.hedge.Wins),
	}
}

// hedgeTarget picks the lowest-index replica other than primary (and not
// yet tried this round) whose breaker is fully closed. Half-open replicas
// keep their one-probe discipline and open ones are skipped: a hedge must
// go somewhere actually likely to answer faster.
func (f *Fleet) hedgeTarget(primary int, tried map[int]bool) int {
	for i := range f.clients {
		if i == primary || tried[i] {
			continue
		}
		if f.health.Breaker(i).State() == StateClosed {
			return i
		}
	}
	return -1
}

// hedgeDelay resolves the hedge trigger: an explicit override, else the
// observed p95 round latency (floored at 1ms), else 5ms while the window
// warms up.
func (f *Fleet) hedgeDelay(override time.Duration) time.Duration {
	if override > 0 {
		return override
	}
	if d := f.latency.P95(); d > 0 {
		if d < time.Millisecond {
			return time.Millisecond
		}
		return d
	}
	return 5 * time.Millisecond
}

// tripClient adapts the engine's round trip (retry policy plus per-attempt
// timeout) into a netsim.Client so a hedge can race two fully retried
// legs. Attempts are counted atomically: the losing leg may still be
// draining when the winner returns.
type tripClient struct {
	inner    netsim.Client
	ln       *link
	attempts int64
}

func (c *tripClient) RoundTripContext(ctx context.Context, m wire.Message) (wire.Message, error) {
	resp, n, err := c.ln.trip(ctx, c.inner, m)
	atomic.AddInt64(&c.attempts, int64(n))
	return resp, err
}

func (c *tripClient) Stats() netsim.StatsSnapshot { return c.inner.Stats() }

func (c *tripClient) Close() error { return nil }

// hedgedTrip issues one challenge round at the primary replica, racing a
// hedged duplicate at the next closed-breaker replica when cfg.Hedge is
// set and one exists. It reports the total attempts across both legs, and
// hedgeTo ≥ 0 when the duplicate's answer won.
func (f *Fleet) hedgedTrip(
	ctx context.Context, ln *link, primary int, tried map[int]bool,
	cfg *FleetAuditConfig, req wire.Message,
) (resp wire.Message, attempts int, hedgeTo int, err error) {
	pc := &tripClient{inner: f.clients[primary], ln: ln}
	sec := -1
	if cfg.Hedge {
		sec = f.hedgeTarget(primary, tried)
	}
	if sec < 0 {
		start := time.Now()
		resp, err = pc.RoundTripContext(ctx, req)
		if err == nil {
			f.latency.Observe(time.Since(start))
		}
		return resp, int(atomic.LoadInt64(&pc.attempts)), -1, err
	}
	sc := &tripClient{inner: f.clients[sec], ln: ln}
	start := time.Now()
	resp, won, err := netsim.HedgedRoundTrip(ctx, pc, sc, f.hedgeDelay(cfg.HedgeDelay), req, f.hedge)
	if err == nil && !won {
		f.latency.Observe(time.Since(start))
	}
	hedgeTo = -1
	if won && err == nil {
		hedgeTo = sec
	}
	attempts = int(atomic.LoadInt64(&pc.attempts) + atomic.LoadInt64(&sc.attempts))
	return resp, attempts, hedgeTo, err
}

// FailoverEvent records one audit round being re-issued to another
// replica. It is rendered into the signed evidence, so the verdict
// carries WHO actually answered each challenge.
type FailoverEvent struct {
	// Round is the challenge round that moved.
	Round int
	// From and To are replica indices.
	From, To int
	// Reason is "breaker-open" or the transport outcome that forced the
	// switch ("network-fault", "timeout").
	Reason string
}

// QuorumClass is the verdict of a quorum cross-examination.
type QuorumClass int

// The classifications.
const (
	// QuorumLocalized: a minority of replicas (typically one) failed the
	// checks — single-replica corruption, repairable from the majority.
	QuorumLocalized QuorumClass = iota + 1
	// QuorumProviderWide: a majority of the examined replicas failed the
	// same checks — the provider, not one disk, is cheating.
	QuorumProviderWide
	// QuorumInconclusive: not enough replicas answered, or the vote
	// tied; the accusation stands but cannot be localized.
	QuorumInconclusive
)

// String renders the classification.
func (c QuorumClass) String() string {
	switch c {
	case QuorumLocalized:
		return "localized"
	case QuorumProviderWide:
		return "provider-wide"
	case QuorumInconclusive:
		return "inconclusive"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// ReplicaVote is one witness replica's answer in a cross-examination.
type ReplicaVote struct {
	// Server is the witness replica index.
	Server int
	// Completed records that the witness answered at all; a witness that
	// is down or breaker-denied abstains rather than votes.
	Completed bool
	// Bad reports whether the witness's answer failed the same eq. 5/7
	// checks the accused failed.
	Bad bool
	// Detail carries the first failing check or the abstention reason.
	Detail string
}

// QuorumResult is the outcome of cross-examining one accusation.
type QuorumResult struct {
	// Accused is the replica whose audit produced the BadProof.
	Accused int
	// Positions are the block positions whose checks failed.
	Positions []uint64
	// Votes are the witness answers, in replica-index order.
	Votes []ReplicaVote
	// Class is the verdict over the completed votes.
	Class QuorumClass
}

// classifyVotes applies the quorum rule over completed votes only:
// strictly more bad than good answers means the provider is cheating
// across replicas; strictly fewer means the corruption is localized to
// the accused; a tie — including zero completed votes — is inconclusive.
func classifyVotes(votes []ReplicaVote) QuorumClass {
	good, bad := tallyVotes(votes)
	switch {
	case good == 0 && bad == 0:
		return QuorumInconclusive
	case bad > good:
		return QuorumProviderWide
	case good > bad:
		return QuorumLocalized
	default:
		return QuorumInconclusive
	}
}

// tallyVotes counts the completed votes by verdict; abstentions count for
// neither side.
func tallyVotes(votes []ReplicaVote) (good, bad int) {
	for _, v := range votes {
		switch {
		case !v.Completed:
		case v.Bad:
			bad++
		default:
			good++
		}
	}
	return good, bad
}

// RepairPlan names exactly what audit-driven repair will copy: the
// positions whose designated signatures failed on Target, sourced from
// Source — a replica whose answers for those positions verified.
type RepairPlan struct {
	// Target is the replica to heal.
	Target int
	// Source is the replica to copy from (-1 if no verified source).
	Source int
	// Positions are the block positions to re-replicate.
	Positions []uint64
}

// RepairResult is the outcome of executing a RepairPlan.
type RepairResult struct {
	Plan RepairPlan
	// Applied reports that the target acked the re-replicated blocks
	// (through its normal, WAL-durable store path).
	Applied bool
	// Confirmed reports that a targeted re-audit of exactly the repaired
	// positions passed on the target.
	Confirmed bool
	// Detail carries the failure reason when the repair did not confirm.
	Detail string
	// Elapsed is the DA-side wall-clock time from plan to confirmation.
	Elapsed time.Duration
}

// FleetAuditConfig shapes a fleet storage audit.
type FleetAuditConfig struct {
	// Storage is the underlying per-round audit shape (sample size,
	// rounds, retry, timeout, batching, workers). Resume is not
	// supported here and must be nil.
	Storage AuditConfig
	// Primary is the replica the audit challenges first.
	Primary int
	// QuorumK is how many witness replicas a BadProof is cross-examined
	// on; 0 means the default (2), negative disables cross-examination.
	QuorumK int
	// Repair executes the repair plan for accusations the quorum
	// classifies as localized.
	Repair bool
	// Hedge races each challenge round against a duplicate at the next
	// closed-breaker replica once the hedge delay elapses with the primary
	// still silent; the first answer wins and the loser is cancelled.
	// Duplicates are safe: audit reads are idempotent and yield
	// byte-identical replies.
	Hedge bool
	// HedgeDelay is the wait before launching the duplicate; 0 adapts to
	// the fleet's observed p95 round latency.
	HedgeDelay time.Duration
}

func (cfg *FleetAuditConfig) quorumK() int {
	if cfg.QuorumK == 0 {
		return 2
	}
	return cfg.QuorumK
}

// fleetDispatch is the fleet dispatcher: each round is aimed at the
// primary and re-issued to the next replica in index order — same
// positions, so the paper's sampling game is unchanged; only the responder
// moves — when the current one's breaker is open or the round trip fails
// with a transport-class error. A round completes against the FIRST
// replica that answers and is lost only when every replica is unreachable.
type fleetDispatch struct {
	f         *Fleet
	cfg       *FleetAuditConfig
	failovers []FailoverEvent
}

// sequential: the breaker state a round observes depends on the rounds
// before it, and running them in order makes the whole pipeline — and the
// evidence it signs — a deterministic function of the challenge RNG and
// the fault schedule.
func (d *fleetDispatch) sequential() bool { return true }

func (d *fleetDispatch) send(ctx context.Context, ln *link, ri int, rs *obs.Span, req wire.Message, rec *RoundRecord) (wire.Message, *roundLoss, error) {
	f := d.f
	tried := make(map[int]bool)
	server := d.cfg.Primary
	loss := &roundLoss{outcome: RoundNetworkFault, detail: "no replica available"}
	failTo := func(reason string) {
		tried[server] = true
		next := f.nextReplica(tried)
		if next >= 0 {
			d.failovers = append(d.failovers, FailoverEvent{Round: ri, From: server, To: next, Reason: reason})
			rec.FailedOver = true
			hop := rs.Child("failover", "from", strconv.Itoa(server), "to", strconv.Itoa(next), "reason", reason)
			hop.End()
		}
		server = next
	}
	for server >= 0 {
		if !f.health.Breaker(server).Allow() {
			loss.detail = "no replica available: breakers open"
			failTo("breaker-open")
			continue
		}
		resp, attempts, hedgeTo, err := f.hedgedTrip(ctx, ln, server, tried, d.cfg, req)
		rec.Attempts += attempts
		if err != nil {
			if loss, err = ln.lost(err); err != nil {
				return nil, nil, err
			}
			failTo(loss.outcome.String())
			continue
		}
		rec.Replica = server
		if hedgeTo >= 0 {
			rec.Replica = hedgeTo
			rec.Hedged = true
		}
		return resp, nil, nil
	}
	return nil, loss, nil
}

// AuditStorageFleet runs a storage audit against a replicated fleet: the
// rounds of AuditStorage, dispatched through fleetDispatch so a crashed or
// shedding replica moves the round instead of losing it — transport
// failures stay non-accusatory exactly as in AuditStorage. The report's
// RoundRecords carry the serving replica of every round, its Failovers,
// Quorums and Repairs the fleet trail, and its Elapsed the whole
// pipeline, cross-examination and repair included.
//
// Failures are attributed to the replica that SERVED the failing round
// (RoundRecord.Replica), cross-examined on quorumK witnesses, and — when
// the quorum localizes the corruption and cfg.Repair is set — healed from
// a witness whose signatures verified.
func (a *Agency) AuditStorageFleet(
	f *Fleet, userID string, warrant wire.Warrant, cfg FleetAuditConfig,
) (*AuditReport, error) {
	kind := &storageKind{a: a, userID: userID, warrant: warrant}
	disp := &fleetDispatch{f: f, cfg: &cfg}
	run := a.startRun(auditRun{
		typ: "fleet", userID: userID, cfg: &cfg.Storage, kind: kind,
		disp:    disp,
		batched: cfg.Storage.BatchSignatures,
	}, "user", userID, "primary", strconv.Itoa(cfg.Primary))
	defer run.close()
	if cfg.Primary < 0 || cfg.Primary >= f.NumServers() {
		return nil, fmt.Errorf("core: fleet audit primary %d out of range [0,%d)", cfg.Primary, f.NumServers())
	}
	if cfg.Storage.Resume != nil {
		return nil, fmt.Errorf("core: fleet audits do not support checkpoint resume")
	}
	if err := run.draw(cfg.Storage.DatasetSize); err != nil {
		return nil, err
	}
	report := run.report
	if err := run.rounds(); err != nil {
		return nil, err
	}
	report.Failovers = disp.failovers
	for ri := range report.Rounds {
		if report.Rounds[ri].Outcome.Lost() {
			report.Rounds[ri].Replica = -1 // nobody answered
		}
	}
	if err := run.settle(); err != nil {
		return nil, err
	}

	// Attribute accusations to serving replicas: a failed index accuses
	// the replica that served its round, a structurally refused round
	// accuses the refusing replica of every position it was asked for.
	failed := make(map[uint64]bool)
	for _, fail := range report.Failures[run.preCheck:] {
		failed[fail.Index] = true
	}
	accused := make(map[int][]uint64)
	for _, rec := range report.Rounds {
		refused := rec.Outcome == RoundBadProof && !rec.Completed
		for _, pos := range rec.Indices {
			if rec.Replica >= 0 && (refused || failed[pos]) {
				accused[rec.Replica] = append(accused[rec.Replica], pos)
			}
		}
	}

	// Quorum cross-examination and (optionally) repair, one accused
	// replica at a time, in index order.
	if len(accused) > 0 && cfg.quorumK() > 0 {
		replicas := make([]int, 0, len(accused))
		for r := range accused {
			replicas = append(replicas, r)
		}
		sort.Ints(replicas)
		for _, acc := range replicas {
			pos := accused[acc]
			sort.Slice(pos, func(i, j int) bool { return pos[i] < pos[j] })
			qs := run.root.Child("quorum", "accused", strconv.Itoa(acc))
			q, witnesses := a.crossExamine(run.ctx, f, kind, cfg, acc, pos)
			qs.Annotate("class", q.Class.String())
			qs.End()
			report.Quorums = append(report.Quorums, q)
			if cfg.Repair && q.Class == QuorumLocalized {
				ps := run.root.Child("repair", "target", strconv.Itoa(acc))
				rr := a.executeRepair(run.ctx, f, kind, cfg, acc, pos, witnesses)
				ps.Annotate("applied", strconv.FormatBool(rr.Applied))
				ps.Annotate("confirmed", strconv.FormatBool(rr.Confirmed))
				ps.End()
				report.Repairs = append(report.Repairs, rr)
			}
		}
	}
	run.finish()
	return report, nil
}

// decodeStoredSig decodes and owner-checks one stored block's designated
// signature, appending the deferred pairing check on success.
func (a *Agency) decodeStoredSig(userID string, pos uint64, block []byte, sig wire.BlockSig, checks *[]sigCheck) error {
	des, err := DecodeBlockSig(a.scheme.Params(), &sig, a.verifierID())
	if err != nil {
		return err
	}
	if des.SignerID != userID {
		return fmt.Errorf("block signed by %q, want %q", des.SignerID, userID)
	}
	*checks = append(*checks, sigCheck{index: pos, msg: BlockMessage(pos, block), des: des})
	return nil
}

// verifyStoredBlock runs the full eq. 5/7 check for one (position, block,
// signature) triple: decode, owner binding, designated verification.
func (a *Agency) verifyStoredBlock(userID string, pos uint64, block []byte, sig wire.BlockSig) error {
	des, err := DecodeBlockSig(a.scheme.Params(), &sig, a.verifierID())
	if err != nil {
		return fmt.Errorf("block %d: %w", pos, err)
	}
	if des.SignerID != userID {
		return fmt.Errorf("block %d signed by %q, want %q", pos, des.SignerID, userID)
	}
	msg := BlockMessage(pos, block)
	if a.thr != nil {
		// Threshold mode: the pairing runs through a quorum round; a
		// quorum failure is a terminal error here too, never a bad block.
		errs, _, terr := a.verifySigBatchThreshold(context.Background(),
			[]sigCheck{{index: pos, msg: msg, des: des}}, false, nil, &ThresholdTrail{})
		if terr != nil {
			return terr
		}
		if errs[0] != nil {
			return fmt.Errorf("block %d: %w", pos, errs[0])
		}
		return nil
	}
	if err := a.scheme.Verify(des, msg, a.key); err != nil {
		return fmt.Errorf("block %d: %w", pos, err)
	}
	return nil
}

// verifyStoredBlocks runs verifyStoredBlock over a shape-checked answer
// for positions, stopping at the first block that fails.
func (a *Agency) verifyStoredBlocks(userID string, positions []uint64, sa *wire.StorageAuditResponse) error {
	for i, pos := range positions {
		if err := a.verifyStoredBlock(userID, pos, sa.Blocks[i], sa.Sigs[i]); err != nil {
			return err
		}
	}
	return nil
}

// witnessAnswer is a witness's verified payload, kept as a repair source.
type witnessAnswer struct {
	server int
	blocks [][]byte
	sigs   []wire.BlockSig
}

// crossExamine challenges the accused replica's failed positions on up to
// quorumK witness replicas (index order, skipping the accused) and
// classifies the accusation. Witnesses whose answers verify are returned
// as candidate repair sources.
func (a *Agency) crossExamine(
	ctx context.Context, f *Fleet, kind *storageKind,
	cfg FleetAuditConfig, accused int, positions []uint64,
) (*QuorumResult, []*witnessAnswer) {
	q := &QuorumResult{Accused: accused, Positions: positions}
	var good []*witnessAnswer
	k := cfg.quorumK()
	for w := 0; w < f.NumServers() && len(q.Votes) < k; w++ {
		if w == accused {
			continue
		}
		vote := ReplicaVote{Server: w}
		if !f.health.Breaker(w).Allow() {
			vote.Detail = "breaker-open"
			q.Votes = append(q.Votes, vote)
			continue
		}
		resp, _, err := roundTrip(ctx, f.clients[w], cfg.Storage.Retry, cfg.Storage.RoundTimeout, kind.request(positions))
		if err != nil {
			// Transport or terminal: either way the witness abstains —
			// cross-examination gathers evidence, it must not abort the
			// audit that triggered it.
			vote.Detail = err.Error()
			q.Votes = append(q.Votes, vote)
			continue
		}
		vote.Completed = true
		sa, refusal := kind.accept(resp, len(positions))
		if refusal != "" {
			vote.Bad, vote.Detail = true, refusal
		} else if err := a.verifyStoredBlocks(kind.userID, positions, sa); err != nil {
			vote.Bad, vote.Detail = true, err.Error()
		} else {
			good = append(good, &witnessAnswer{server: w, blocks: sa.Blocks, sigs: sa.Sigs})
		}
		q.Votes = append(q.Votes, vote)
	}
	q.Class = classifyVotes(q.Votes)
	return q, good
}

// executeRepair re-replicates the accused replica's failed positions from
// the first witness whose answers verified, then confirms with a targeted
// re-audit of exactly those positions.
//
// Soundness: every copied block's designated signature was verified
// against (position ‖ data) under eq. 5/7 before the copy, so a cheating
// source cannot poison the repair — it would need a signature forgery.
// The copy goes through the target's ordinary store path, so it inherits
// log-before-ack durability when the server runs with a WAL.
func (a *Agency) executeRepair(
	ctx context.Context, f *Fleet, kind *storageKind, cfg FleetAuditConfig,
	target int, positions []uint64, witnesses []*witnessAnswer,
) *RepairResult {
	start := a.clock()
	rr := &RepairResult{Plan: RepairPlan{Target: target, Source: -1, Positions: positions}}
	defer func() { rr.Elapsed = a.clock().Sub(start) }()
	if len(witnesses) == 0 {
		rr.Detail = "no replica with verified signatures to source from"
		return rr
	}
	src := witnesses[0]
	rr.Plan.Source = src.server
	// Re-gate defensively: only blocks whose eq. 5/7 signature verifies
	// may cross replicas, even if the witness already passed.
	if err := a.verifyStoredBlocks(kind.userID, positions, &wire.StorageAuditResponse{Blocks: src.blocks, Sigs: src.sigs}); err != nil {
		rr.Detail = fmt.Sprintf("source block failed verification: %v", err)
		return rr
	}
	resp, _, err := roundTrip(ctx, f.clients[target], cfg.Storage.Retry, cfg.Storage.RoundTimeout, &wire.StoreRequest{
		UserID:    kind.userID,
		Positions: positions,
		Blocks:    src.blocks,
		Sigs:      src.sigs,
	})
	if err != nil {
		rr.Detail = fmt.Sprintf("re-replicating to target: %v", err)
		return rr
	}
	sr, ok := resp.(*wire.StoreResponse)
	if !ok || !sr.OK {
		detail := fmt.Sprintf("unexpected store response %T", resp)
		if ok {
			detail = "target refused repair store: " + sr.Error
		}
		rr.Detail = detail
		return rr
	}
	rr.Applied = true

	// Confirm: the target must now answer the exact repaired positions
	// with verifying signatures.
	resp, _, err = roundTrip(ctx, f.clients[target], cfg.Storage.Retry, cfg.Storage.RoundTimeout, kind.request(positions))
	if err != nil {
		rr.Detail = fmt.Sprintf("re-audit after repair: %v", err)
		return rr
	}
	sa, refusal := kind.accept(resp, len(positions))
	if refusal != "" {
		rr.Detail = "re-audit after repair returned a malformed answer"
		return rr
	}
	if err := a.verifyStoredBlocks(kind.userID, positions, sa); err != nil {
		rr.Detail = fmt.Sprintf("re-audit after repair: %v", err)
		return rr
	}
	rr.Confirmed = true
	return rr
}

// summarizeFailovers renders the failover trail canonically for the
// signed evidence: "round:from>to/reason" joined by commas.
func summarizeFailovers(events []FailoverEvent) string {
	parts := make([]string, len(events))
	for i, e := range events {
		parts[i] = fmt.Sprintf("%d:%d>%d/%s", e.Round, e.From, e.To, e.Reason)
	}
	return strings.Join(parts, ",")
}

// summarizeQuorums renders the quorum verdicts canonically:
// "accused=i/class/good=g/bad=b" joined by commas.
func summarizeQuorums(quorums []*QuorumResult) string {
	parts := make([]string, len(quorums))
	for i, q := range quorums {
		good, bad := tallyVotes(q.Votes)
		parts[i] = fmt.Sprintf("accused=%d/%s/good=%d/bad=%d", q.Accused, q.Class, good, bad)
	}
	return strings.Join(parts, ",")
}
