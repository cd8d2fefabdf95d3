package chaos

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"math"
	mrand "math/rand"
	"path/filepath"
	"strconv"
	"time"

	"seccloud/internal/core"
	"seccloud/internal/dvs"
	"seccloud/internal/funcs"
	"seccloud/internal/ibc"
	"seccloud/internal/netsim"
	"seccloud/internal/obs"
	"seccloud/internal/threshold"
	"seccloud/internal/transport"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

// splitmix64 derives independent sub-seeds from the run seed; every
// consumer of randomness (link faults, disks, audit sampling, retriers)
// gets its own stream, keyed by a stable label, so fault draws in one
// dimension never shift the draws of another.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func subSeed(seed int64, dim string, a, b int) int64 {
	h := uint64(seed)
	for _, c := range []byte(dim) {
		h = splitmix64(h ^ uint64(c))
	}
	h = splitmix64(h ^ uint64(a)<<32 ^ uint64(b))
	return int64(h >> 1) // keep it positive, rand.NewSource is fine either way
}

// posKey addresses one replica's copy of one block.
type posKey struct {
	srv int
	pos uint64
}

// ledger is the harness's ground truth: for every (replica, position) it
// holds the set of byte strings the system is ALLOWED to be storing
// there. An acked update collapses the set to exactly the new content —
// that is what "acked" means. A failed update ADDS the attempted content
// instead: a blocked response leg or a post-log crash may legitimately
// have applied the write even though the client saw an error, and the
// harness, like a real client, cannot know which. Anything outside the
// set — an acked write that vanished, bytes nobody ever wrote — is a
// durability violation.
type ledger struct {
	acceptable map[posKey]map[string]bool
	// tamperContent records the nemesis's REAL cheating: srv → pos →
	// rotten bytes. Serving rot at these keys is expected (and accusing
	// the server for it is not a false flag); recovery must still come
	// back clean, because rot is planted in memory, never in the WAL.
	tamperContent map[int]map[uint64][]byte
	// tenantRot holds the ranks of the tenants whose every block the
	// nemesis rotted: accusing one of them is a detection, not a false
	// flag, and a completed session of one must accuse it.
	tenantRot map[int]bool
}

func newLedger(servers int, blocks [][]byte) *ledger {
	l := &ledger{
		acceptable:    make(map[posKey]map[string]bool),
		tamperContent: make(map[int]map[uint64][]byte),
		tenantRot:     make(map[int]bool),
	}
	for s := 0; s < servers; s++ {
		for p, b := range blocks {
			l.acceptable[posKey{s, uint64(p)}] = map[string]bool{string(b): true}
		}
	}
	return l
}

func (l *ledger) acked(srv int, pos uint64, content []byte) {
	l.acceptable[posKey{srv, pos}] = map[string]bool{string(content): true}
}

func (l *ledger) maybe(srv int, pos uint64, content []byte) {
	k := posKey{srv, pos}
	if l.acceptable[k] == nil {
		l.acceptable[k] = make(map[string]bool)
	}
	l.acceptable[k][string(content)] = true
}

func (l *ledger) tamper(srv int, pos uint64, rot []byte) {
	if l.tamperContent[srv] == nil {
		l.tamperContent[srv] = make(map[uint64][]byte)
	}
	l.tamperContent[srv][pos] = rot
}

// tampered reports whether the nemesis registered real rot on srv.
func (l *ledger) tampered(srv int) bool { return len(l.tamperContent[srv]) > 0 }

// expectedServed is the acceptable set for what srv serves at pos right
// now: the ledgered rot if the nemesis tampered this copy, otherwise the
// acceptable content set.
func (l *ledger) expectedServed(srv int, pos uint64) map[string]bool {
	if rot, ok := l.tamperContent[srv][pos]; ok {
		return map[string]bool{string(rot): true}
	}
	return l.acceptable[posKey{srv, pos}]
}

// cluster is one live SecCloud deployment under the nemesis: n replica
// servers with FaultFS-backed WALs, a DA and a CSP reaching them through
// partitionable, fault-injectable, clock-skewed links, plus the ledger
// the invariant engine checks against. With a quorum step the DA is a
// combiner over share-holders of the dealt verifier key.
type cluster struct {
	cfg       Config
	reference bool // fault-free replay: only tamper/plant steps apply

	sio       *ibc.SIO
	scheme    *dvs.Scheme
	user      *core.User
	agency    *core.Agency
	fleet     *core.Fleet
	csp       *core.CSP
	warrant   wire.Warrant
	ds        *workload.Dataset
	verifiers []string

	handlers []*transport.SwappableHandler
	policies []*cheatPolicy
	gates    []*transport.Admission
	downs    []*netsim.DownableHandler
	disks    []*netsim.FaultFS // each server's disk; crash points fire here
	links    []*netsim.Loopback
	clocks   []*netsim.Clock
	daClock  *netsim.Clock
	part     *netsim.Partition

	daClients  []transport.Client // raw partitioned links the fleet audits over
	cspClients []transport.Client // retrying, breaker-instrumented store path

	holders []*holder    // share-holders of the dealt key; nil for a single DA
	tenants *tenantFleet // the tenants step's traffic; nil without one

	dir string
	hub *obs.Hub
	led *ledger

	killed       []bool // whole-epoch outage (state intact)
	crashPending []bool // process died, awaiting epoch-boundary restart
	sickEver     []bool // disk faults were active at some point
	forgeNext    []bool // plant: corrupt this primary's next evidence blob
	shedding     []bool // the nemesis holds every admission slot this epoch

	// chain is the run's evidence trail: one encoded Evidence blob and
	// one signed checkpoint per fleet audit, verified wholesale at the
	// end — if chaos can make the DA emit a blob that no longer decodes
	// and publicly verifies, the paper's public-verifiability story dies.
	chain []chainEntry

	outcomes    []auditOutcome
	jobOutcomes []jobOutcome
	violations  *violationLog

	opsTotal, opsFailed int
	opsFailedFinal      int // op failures in the last (quiet) epoch
	opIndex             int
	falseFlags          int
	accusations         int
	detected            bool
	lostRounds          int
	failovers           int
	auditErrors         int
	jobDetections       int
	exposure            int
	shedRounds          int
}

// holder is one share-holder of the dealt verifier key, behind its own
// kill switch on a plain loopback. The combiner's breakers for holders
// never open, so every request to a holder is answered or failed by the
// holder itself: each one a killed or forging holder fails is one quorum
// recovery, and each forged answer one Byzantine partial — the two counts
// the registry keeps.
type holder struct {
	*netsim.DownableHandler
	share          *threshold.AuditorShare
	byz            bool
	failed, forged int
}

// Handle counts the request if a fault makes it fail, then serves it.
func (h *holder) Handle(m wire.Message) wire.Message {
	switch {
	case h.Down():
		h.failed++
	case h.byz:
		h.failed++
		h.forged++
	}
	return h.DownableHandler.Handle(m)
}

// setByzantine makes the holder forge its partials, or stop forging.
func (h *holder) setByzantine(on bool) {
	h.byz = on
	h.share.SetByzantine(on)
}

type chainEntry struct {
	Epoch, Primary int
	Raw            []byte
	Checkpoint     *core.CheckpointEvidence
}

// auditOutcome is the per-fleet-audit record the agreement invariant
// compares between the chaos run and the fault-free reference replay.
type auditOutcome struct {
	Epoch, Primary int
	Err            string
	Valid          bool
	Accused        []int
	Classes        []string
	Failovers      int
	LostRounds     int
	Degraded       bool
	// Sampled and Failed are the challenged and the failing positions;
	// Quorum is the share set that decided the verdict (nil: single DA).
	Sampled, Failed []uint64
	Quorum          []int
	// CleanFleet: every breaker closed, nobody killed or crash-pending
	// when the audit started. Only then is exact verdict agreement with
	// the reference demanded; a degraded fleet may legally route rounds
	// differently. Holder faults leave the fleet clean: a quorum audit
	// must agree with the single DA whoever computed it.
	CleanFleet bool
}

// jobOutcome is one sub-job audit as the agreement invariant compares it
// with the reference replay's audit of the same slot.
type jobOutcome struct {
	Epoch, Slot, Server int
	Valid               bool
	Degraded            bool
	Sampled, Failed     []uint64
	Quorum              []int
	// Clean: the fleet was clean when the audit started and the sub-job
	// ran on its own slot's server, so the reference saw the same thing.
	Clean bool
}

const (
	tamperReserve = 2 // top positions ops never touch; tamper lands here
	serverIDFmt   = "cs:chaos-%d"
	// daID is the designated verifier: the DA's key, or with a quorum the
	// dealt key, which designations and the warrant name either way, so
	// servers see the same traffic as in the reference replay.
	daID = "da:chaos"
	// admissionSlots is every server's execution slots; its gate keeps no
	// queue, so a request finding them all held is shed at once.
	admissionSlots = 4
)

// cheatPolicy is every server's policy: honest, except in an epoch where
// a cheat step made it a computation cheater at confidence csc. Each
// sub-task's draw comes from a stream keyed by (seed, epoch, server,
// task) — never from a shared stream — so retries and failovers under
// weather cannot shift a later task's draw, and the chaos run forges
// exactly the results the reference replay forges.
type cheatPolicy struct {
	core.Honest
	seed          int64
	server, epoch int
	on            bool
	csc           float64
	forged        map[uint64]bool // tasks (by block position) answered with a guess this epoch
}

// Name implements core.CheatPolicy.
func (p *cheatPolicy) Name() string {
	if p.on {
		return fmt.Sprintf("chaos:cheat(csc=%g)", p.csc)
	}
	return "chaos:honest"
}

// OnResult guesses the result with probability 1 − csc while cheating.
func (p *cheatPolicy) OnResult(taskIdx int, task wire.TaskSpec, honest func() ([]byte, error)) ([]byte, error) {
	if !p.on {
		return honest()
	}
	pos := task.Positions[0]
	cheater := &core.ComputationCheater{
		CSC: p.csc,
		Rng: mrand.New(mrand.NewSource(subSeed(p.seed, "cheat-"+strconv.Itoa(p.server), p.epoch, int(pos)))),
	}
	computed := false
	res, err := cheater.OnResult(taskIdx, task, func() ([]byte, error) {
		computed = true
		return honest()
	})
	if err == nil && !computed {
		p.forged[pos] = true
	}
	return res, err
}

// reset makes the server honest for a new epoch: the mobile adversary
// re-picks every epoch.
func (p *cheatPolicy) reset(ep int) {
	p.epoch, p.on, p.csc, p.forged = ep, false, 0, map[uint64]bool{}
}

// blockBytes pads s with spaces to whole 8-byte words: the job's digest
// reads every block as a vector of int64s.
func blockBytes(s string) []byte {
	for len(s)%8 != 0 {
		s += " "
	}
	return []byte(s)
}

func xorA5(b []byte) []byte {
	rot := append([]byte(nil), b...)
	for i := range rot {
		rot[i] ^= 0xA5
	}
	return rot
}

// newCluster builds and seeds a deployment: keys, servers with
// FaultFS-backed WALs (real fsyncs — sync faults must have something to
// fail), links, fleet breakers, the outsourced dataset, and the ledger.
// The schedule's shape steps shape it: a quorum step deals the DA's key
// to share-holders (except in the reference replay, which keeps the
// single DA that holds it), and a tenants step registers the tenants.
func newCluster(cfg Config, dir string, reference bool, sched Schedule) (*cluster, error) {
	hub := cfg.Hub
	if hub == nil {
		hub = obs.NewHub()
	}
	c := &cluster{
		cfg:          cfg,
		reference:    reference,
		dir:          dir,
		hub:          hub,
		part:         netsim.NewPartition(),
		daClock:      netsim.NewClock(),
		killed:       make([]bool, cfg.Servers),
		crashPending: make([]bool, cfg.Servers),
		sickEver:     make([]bool, cfg.Servers),
		forgeNext:    make([]bool, cfg.Servers),
		shedding:     make([]bool, cfg.Servers),
		violations: &violationLog{
			scrub:   dir,
			counter: hub.Counter("chaos_violations_total", "invariant"),
		},
	}

	c.sio = cfg.SIO
	sp := c.sio.Params()
	c.scheme = dvs.NewScheme(sp)

	userKey, err := c.sio.Extract("user:chaos")
	if err != nil {
		return nil, err
	}
	daKey, err := c.sio.Extract(daID)
	if err != nil {
		return nil, err
	}
	c.user = core.NewUser(sp, userKey, rand.Reader)
	quorum := sched.shape(StepQuorum)
	if reference {
		quorum = nil
	}
	agencyKey := daKey
	if quorum != nil {
		// The combiner signs evidence with a key of its own.
		if agencyKey, err = c.sio.Extract(daID + "-combiner"); err != nil {
			return nil, err
		}
	}
	c.agency = core.NewAgency(sp, agencyKey, rand.Reader).
		WithWorkers(cfg.Workers).
		WithObs(c.hub).
		WithClock(c.daClock.Now)
	if quorum != nil {
		if err := c.dealQuorum(daKey, quorum.T, quorum.N); err != nil {
			return nil, err
		}
	}

	c.handlers = make([]*transport.SwappableHandler, cfg.Servers)
	c.policies = make([]*cheatPolicy, cfg.Servers)
	c.gates = make([]*transport.Admission, cfg.Servers)
	c.downs = make([]*netsim.DownableHandler, cfg.Servers)
	c.disks = make([]*netsim.FaultFS, cfg.Servers)
	c.links = make([]*netsim.Loopback, cfg.Servers)
	c.clocks = make([]*netsim.Clock, cfg.Servers)
	c.daClients = make([]transport.Client, cfg.Servers)
	c.cspClients = make([]transport.Client, cfg.Servers)

	noSleep := func(context.Context, time.Duration) error { return nil }

	for i := 0; i < cfg.Servers; i++ {
		// The disk persists across restarts — a sick disk stays sick when
		// the process comes back, which is exactly why recovery must cope.
		c.disks[i] = netsim.NewFaultFS(netsim.FaultFSConfig{Seed: subSeed(cfg.Seed, "disk", i, 0)})
		c.clocks[i] = netsim.NewClock()
		c.policies[i] = &cheatPolicy{seed: cfg.Seed, server: i, forged: map[uint64]bool{}}
		c.gates[i] = transport.NewAdmission(transport.AdmissionConfig{MaxInflight: admissionSlots}).
			WithObs(c.hub, nodeLabel(i))

		srv, err := c.newServer(i)
		if err != nil {
			return nil, err
		}
		c.handlers[i] = transport.NewSwappableHandler(srv)
		gate := netsim.NewCrashGate(c.disks[i], c.handlers[i], func() { c.server(i).Crash() })
		c.downs[i] = netsim.NewDownableHandler(gate)
		c.links[i] = netsim.NewLoopback(c.downs[i], netsim.LinkConfig{}).
			WithObs(c.hub).
			WithClock(c.clocks[i]).
			WithAdmission(c.gates[i])

		// Both paths traverse the same physical link (same fault injector,
		// same outage switch) but enter the partition map under their own
		// names, so a cut can sever the DA's view while the CSP's works.
		c.daClients[i] = netsim.PartitionClient(c.links[i], c.part, "da", nodeLabel(i))
		r := transport.NewRetrier(subSeed(cfg.Seed, "retry-csp", i, 0))
		r.MaxAttempts = 4
		r.Sleep = noSleep
		c.cspClients[i] = transport.NewRetryClient(
			netsim.PartitionClient(c.links[i], c.part, "csp", nodeLabel(i)), r)
	}

	ids := make([]string, cfg.Servers)
	for i := range ids {
		ids[i] = fmt.Sprintf(serverIDFmt, i)
	}
	c.fleet, err = core.NewFleet(c.daClients, ids, core.BreakerConfig{})
	if err != nil {
		return nil, err
	}
	core.ObserveFleet(c.hub, c.fleet)
	for i := range c.cspClients {
		// Store traffic feeds the same breakers the audits consult.
		c.cspClients[i] = c.fleet.Instrument(i, c.cspClients[i])
	}

	// Outsource the dataset to every replica, fault-free (the nemesis
	// only wakes at epoch 1).
	gen := workload.NewGenerator(cfg.Seed)
	c.ds = gen.GenDataset(c.user.ID(), cfg.Blocks, 8)
	c.verifiers = append(ids[:len(ids):len(ids)], daID)
	storeReq, err := c.user.PrepareStore(c.ds, c.verifiers...)
	if err != nil {
		return nil, err
	}
	csp, err := core.NewCSP(c.cspClients)
	if err != nil {
		return nil, err
	}
	c.csp = csp.WithHealth(c.fleet.Health())
	if err := c.csp.ReplicateStore(c.user, storeReq); err != nil {
		return nil, err
	}
	c.warrant, err = core.WildcardWarrant(c.user, daID, time.Now().Add(24*time.Hour))
	if err != nil {
		return nil, err
	}
	c.led = newLedger(cfg.Servers, c.ds.Blocks)
	if ts := sched.shape(StepTenants); ts != nil {
		if c.tenants, err = newTenantFleet(c, ts); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// dealQuorum splits key t-of-n across share-holders and turns the agency
// into their combiner.
func (c *cluster) dealQuorum(key *ibc.PrivateKey, t, n int) error {
	sp := c.sio.Params()
	deal, err := threshold.SplitVerifierKey(sp, key, t, n, rand.Reader)
	if err != nil {
		return err
	}
	c.holders = make([]*holder, n)
	clients := make([]transport.Client, n)
	for i, share := range deal.Shares {
		as := threshold.NewAuditorShare(sp, share, rand.Reader)
		c.holders[i] = &holder{DownableHandler: netsim.NewDownableHandler(as), share: as}
		clients[i] = netsim.NewLoopback(c.holders[i], netsim.LinkConfig{})
	}
	_, err = c.agency.WithThreshold(core.ThresholdConfig{
		Public:  deal.Public,
		Clients: clients,
		Health:  core.NewFleetHealth(n, core.BreakerConfig{FailThreshold: math.MaxInt}),
	})
	return err
}

// quorumOf is the share set that decided an audit, nil for a single DA.
func quorumOf(tr *core.ThresholdTrail) []int {
	if tr == nil {
		return nil
	}
	return tr.Quorum
}

// failedPositions lists the positions of an audit's failures.
func failedPositions(fails []core.AuditFailure) []uint64 {
	out := make([]uint64, len(fails))
	for i, f := range fails {
		out[i] = f.Index
	}
	return out
}

func nodeLabel(i int) string { return fmt.Sprintf("%d", i) }

// server returns the *core.Server currently behind slot i's stable
// network identity — the harness's omniscient backdoor for tamper
// injection and state reads.
func (c *cluster) server(i int) *core.Server {
	return c.handlers[i].Current().(*core.Server)
}

// newServer builds server i's current incarnation over its (possibly
// sick) disk; on a non-empty directory this runs the full recovery path.
func (c *cluster) newServer(i int) (*core.Server, error) {
	key, err := c.sio.Extract(fmt.Sprintf(serverIDFmt, i))
	if err != nil {
		return nil, err
	}
	return core.NewServer(c.sio.Params(), key, core.ServerConfig{
		Policy:  c.policies[i],
		Random:  rand.Reader,
		Workers: c.cfg.Workers,
		Clock:   c.clocks[i].Now,
		Durability: &core.DurabilityConfig{
			Dir:           filepath.Join(c.dir, fmt.Sprintf("cs-%d", i)),
			SnapshotEvery: 4,
			// Real syncs: the chaos disk's fsync faults need an fsync to
			// fail, and torn-tail recovery needs real write ordering.
			NoSync: false,
			FS:     c.disks[i],
			Obs:    c.hub,
		},
	})
}

// restart replaces server i with a fresh incarnation recovered from its
// WAL directory, re-applying any ledgered tamper, of the user's blocks or
// a tenant's (rot lives in memory, a reboot heals it, and a cheater that
// survives reboots keeps cheating).
// Returns an error when recovery itself refuses — e.g. the disk is still
// rotting snapshots — in which case the caller leaves the server down
// and tries again later.
func (c *cluster) restart(i int) error {
	c.disks[i].Restart()
	srv, err := c.newServer(i)
	if err != nil {
		return err
	}
	for b := 0; b < tamperReserve; b++ {
		pos := uint64(c.cfg.Blocks - 1 - b)
		if rot, ok := c.led.tamperContent[i][pos]; ok {
			if _, ok := srv.TamperBlock(c.user.ID(), pos, rot); !ok {
				return fmt.Errorf("chaos: re-tamper pos %d on server %d found no block", pos, i)
			}
		}
	}
	for _, r := range c.rottenTenants(i) {
		if err := c.rotTenant(srv, r); err != nil {
			return err
		}
	}
	c.handlers[i].Swap(srv)
	c.crashPending[i] = false
	if !c.killed[i] {
		c.downs[i].SetDown(false)
	}
	return nil
}

// readState reads the blocks a server is serving right now, straight
// from its handler — the invariant engine is omniscient and does not
// traverse the (possibly partitioned) network.
func (c *cluster) readState(srv *core.Server, positions []uint64) ([][]byte, error) {
	resp := srv.Handle(&wire.StorageAuditRequest{
		UserID:    c.user.ID(),
		Positions: positions,
		Warrant:   c.warrant,
	})
	sar, ok := resp.(*wire.StorageAuditResponse)
	if !ok || sar.Error != "" {
		return nil, fmt.Errorf("chaos: state read failed: %v", resp)
	}
	if len(sar.Blocks) != len(positions) {
		return nil, fmt.Errorf("chaos: state read returned %d blocks, want %d", len(sar.Blocks), len(positions))
	}
	return sar.Blocks, nil
}

func allPositions(n int) []uint64 {
	ps := make([]uint64, n)
	for i := range ps {
		ps[i] = uint64(i)
	}
	return ps
}

// auditRetrier builds the per-audit retry helper (virtual backoff),
// seeded per audit dimension, epoch and server.
func (c *cluster) auditRetrier(dim string, ep, i int) *transport.Retrier {
	r := transport.NewRetrier(subSeed(c.cfg.Seed, dim, ep, i))
	r.MaxAttempts = 3
	r.Sleep = func(context.Context, time.Duration) error { return nil }
	return r
}

// runAudit runs one fleet storage audit with primary pi. The sampling
// Rng seed depends only on (run seed, epoch, primary), so the chaos run
// and the reference replay challenge the same positions.
func (c *cluster) runAudit(ep, pi int) auditOutcome {
	out := auditOutcome{Epoch: ep, Primary: pi, CleanFleet: c.fleetClean()}
	fcfg := core.FleetAuditConfig{
		Storage: core.AuditConfig{
			DatasetSize:     c.cfg.Blocks,
			SampleSize:      c.cfg.SampleSize,
			Rounds:          2,
			BatchSignatures: true,
			Rng:             mrand.New(mrand.NewSource(subSeed(c.cfg.Seed, "audit", ep, pi))),
			Retry:           c.auditRetrier("retry-audit", ep, pi),
		},
		Primary: pi,
		QuorumK: 2,
	}
	fr, err := c.agency.AuditStorageFleet(c.fleet, c.user.ID(), c.warrant, fcfg)
	if err != nil {
		// A fleet with every replica dark can fail the audit outright;
		// that is an availability fact, not a harness bug. Liveness
		// checks refuse it in the quiet phase. A quorum the schedule's
		// holder faults left intact must never be unavailable.
		out.Err = err.Error()
		c.auditErrors++
		if errors.Is(err, core.ErrQuorumUnavailable) {
			c.violations.addf("quorum", "epoch %d primary %d: %v", ep, pi, err)
		}
		return out
	}
	out.Valid = fr.Valid()
	out.Degraded = fr.Degraded()
	out.Sampled, out.Failed, out.Quorum = fr.Sampled, failedPositions(fr.Failures), quorumOf(fr.Threshold)
	out.Failovers = len(fr.Failovers)
	c.failovers += out.Failovers
	// A round a gate refused moves to the next replica; it is lost as
	// shed only when every replica refused.
	c.shedRounds += fr.ShedRounds()
	for _, f := range fr.Failovers {
		if f.Reason == core.RoundShed.String() {
			c.shedRounds++
		}
	}
	for _, rr := range fr.Rounds {
		if rr.Outcome.Lost() {
			out.LostRounds++
		}
	}
	c.lostRounds += out.LostRounds
	for _, q := range fr.Quorums {
		out.Accused = append(out.Accused, q.Accused)
		out.Classes = append(out.Classes, q.Class.String())
		c.accusations++
		if c.led.tampered(q.Accused) {
			c.detected = true
		} else {
			// Zero tolerance: chaos may slow the system down, it must
			// never make the DA accuse an honest replica.
			c.falseFlags++
			c.violations.addf("false-flag", "epoch %d primary %d: accused honest server %d (%s)",
				ep, pi, q.Accused, q.Class)
		}
	}

	// Evidence trail: issue, encode, (maybe forge — that's a plant), and
	// bank for the end-of-run verification pass.
	ev, err := c.agency.IssueStorageEvidence(c.fleet.ServerID(pi), fr)
	if err != nil {
		c.violations.addf("evidence-chain", "epoch %d primary %d: issue: %v", ep, pi, err)
		return out
	}
	raw, err := core.EncodeEvidence(ev)
	if err != nil {
		c.violations.addf("evidence-chain", "epoch %d primary %d: encode: %v", ep, pi, err)
		return out
	}
	if c.forgeNext[pi] {
		raw[len(raw)/2] ^= 0x01
		c.forgeNext[pi] = false
	}
	cp := fr.Checkpoint()
	ce, err := c.agency.SignCheckpoint(cp)
	if err != nil {
		c.violations.addf("evidence-chain", "epoch %d primary %d: checkpoint: %v", ep, pi, err)
		return out
	}
	c.chain = append(c.chain, chainEntry{Epoch: ep, Primary: pi, Raw: raw, Checkpoint: ce})
	return out
}

// runJob is the computation half of an epoch: one job over the whole
// dataset through the CSP, then one audit of every sub-job on the server
// that executed it. The job counts as one client op, so a job the
// weather ate is an op failure, and a failure in the quiet phase breaks
// liveness. A job audit that accuses a server neither cheating this
// epoch nor carrying ledgered rot is a false flag; exposure counts the
// results the cheaters forged in sub-jobs no audit flagged.
func (c *cluster) runJob(ep int) error {
	job := workload.UniformJob(c.user.ID(), funcs.Spec{Name: "digest"}, c.cfg.Blocks)
	subs, err := c.csp.RunJob(c.user, fmt.Sprintf("e%d", ep), job)
	if serr := c.settleOp(ep, err, "job"); serr != nil || err != nil {
		return serr
	}
	for i, d := range core.Delegations(c.user, subs, c.warrant) {
		sub := subs[i]
		out := jobOutcome{Epoch: ep, Slot: sub.Slot, Server: sub.ServerIdx,
			Clean: c.fleetClean() && sub.ServerIdx == sub.Slot}
		rep, err := c.agency.AuditJob(c.fleet.Client(sub.ServerIdx), d, core.AuditConfig{
			SampleSize:      c.cfg.SampleSize,
			Rounds:          2,
			BatchSignatures: true,
			Rng:             mrand.New(mrand.NewSource(subSeed(c.cfg.Seed, "job-audit", ep, sub.Slot))),
			Retry:           c.auditRetrier("retry-job", ep, sub.Slot),
		})
		if errors.Is(err, core.ErrQuorumUnavailable) {
			c.violations.addf("quorum", "epoch %d job audit of %s: %v", ep, sub.JobID, err)
			continue
		}
		if err != nil {
			return fmt.Errorf("chaos: epoch %d: audit of sub-job %s: %w", ep, sub.JobID, err)
		}
		out.Valid, out.Degraded = rep.Valid(), rep.Degraded()
		out.Sampled, out.Failed, out.Quorum = rep.Sampled, failedPositions(rep.Failures), quorumOf(rep.Threshold)
		c.shedRounds += rep.ShedRounds()
		c.jobOutcomes = append(c.jobOutcomes, out)
		pol := c.policies[sub.ServerIdx]
		if !out.Valid {
			c.jobDetections++
			switch {
			case c.led.tampered(sub.ServerIdx):
				c.detected = true
			case !pol.on:
				c.falseFlags++
				c.violations.addf("false-flag", "epoch %d job audit of %s: accused honest server %d",
					ep, sub.JobID, sub.ServerIdx)
			}
			continue
		}
		for _, t := range sub.Tasks {
			if pol.forged[t.Positions[0]] {
				c.exposure++
			}
		}
	}
	return nil
}

// settleOp accounts one client op: it reaps any crash point the op fired
// and counts a failure, in the final epoch a liveness failure. The
// reference replay runs without weather, so an op failing there is a
// harness error.
func (c *cluster) settleOp(ep int, err error, what string) error {
	c.opsTotal++
	if c.reference {
		if err != nil {
			return fmt.Errorf("chaos: reference replay %s failed (epoch %d): %w", what, ep, err)
		}
		return nil
	}
	c.reapCrashes()
	if err != nil {
		c.opsFailed++
		if ep == c.cfg.ActiveEpochs+c.cfg.QuietEpochs {
			c.opsFailedFinal++
		}
	}
	return nil
}

// fleetClean reports whether every breaker is closed and every server is
// reachable and admitting — the precondition for demanding exact verdict
// agreement with the reference replay.
func (c *cluster) fleetClean() bool {
	for i := 0; i < c.cfg.Servers; i++ {
		if c.killed[i] || c.crashPending[i] || c.shedding[i] {
			return false
		}
		if c.fleet.Health().Breaker(i).State() != core.StateClosed {
			return false
		}
	}
	return true
}
