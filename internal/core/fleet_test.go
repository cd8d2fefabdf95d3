package core

import (
	"bytes"
	"fmt"
	mrand "math/rand"
	"strings"
	"testing"
	"time"

	"seccloud/internal/netsim"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

// fleetSystem is a replicated deployment with a kill switch per server.
type fleetSystem struct {
	*system
	downs   []*netsim.DownableHandler
	fleet   *Fleet
	ds      *workload.Dataset
	req     *wire.StoreRequest
	warrant wire.Warrant
}

// newFleetSystem stands up n honest servers behind downable handlers,
// replicates a blocks-sized dataset to all of them (signed for every
// server plus the DA), and issues a storage-audit warrant.
func newFleetSystem(t testing.TB, n, blocks int) *fleetSystem {
	t.Helper()
	return newFleetSystemOn(t, newSystem(t, make([]CheatPolicy, n)...), blocks, nil)
}

// newFleetSystemOn is newFleetSystem over an existing system's servers.
// wrap, when set, decorates replica i's link after the dataset is stored.
func newFleetSystemOn(
	t testing.TB, sys *system, blocks int,
	wrap func(i int, c netsim.Client) netsim.Client,
) *fleetSystem {
	t.Helper()
	fs := &fleetSystem{system: sys}
	clients := make([]netsim.Client, len(sys.servers))
	ids := make([]string, len(sys.servers))
	for i, srv := range sys.servers {
		dh := netsim.NewDownableHandler(srv)
		fs.downs = append(fs.downs, dh)
		clients[i] = netsim.NewLoopback(dh, netsim.LinkConfig{})
		ids[i] = srv.ID()
	}
	fs.ds = workload.NewGenerator(7).GenDataset(sys.user.ID(), blocks, 4)
	verifiers := append(append([]string(nil), ids...), sys.agency.ID())
	var err error
	fs.req, err = sys.user.PrepareStore(fs.ds, verifiers...)
	if err != nil {
		t.Fatalf("PrepareStore: %v", err)
	}
	for i := range clients {
		if err := sys.user.Store(clients[i], fs.req); err != nil {
			t.Fatalf("Store to server %d: %v", i, err)
		}
		if wrap != nil {
			clients[i] = wrap(i, clients[i])
		}
	}
	if fs.fleet, err = NewFleet(clients, ids, BreakerConfig{}); err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	fs.warrant, err = sys.user.Delegate(sys.agency.ID(), "", time.Now().Add(time.Hour))
	if err != nil {
		t.Fatalf("Delegate: %v", err)
	}
	return fs
}

func (fs *fleetSystem) auditCfg(sampleSize, rounds int, seed int64) FleetAuditConfig {
	return FleetAuditConfig{
		Storage: AuditConfig{
			DatasetSize:     fs.ds.NumBlocks(),
			SampleSize:      sampleSize,
			Rounds:          rounds,
			Rng:             mrand.New(mrand.NewSource(seed)),
			BatchSignatures: true,
		},
	}
}

func TestBreakerTransitions(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailThreshold: 3, OpenCooldown: 2})
	if got := b.State(); got != StateClosed {
		t.Fatalf("initial state = %v, want closed", got)
	}
	// Failures below the threshold keep it closed; a success resets the run.
	b.Report(false)
	b.Report(false)
	b.Report(true)
	b.Report(false)
	b.Report(false)
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after interrupted failure run = %v, want closed", got)
	}
	// Third consecutive failure trips it.
	b.Report(false)
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after %d consecutive failures = %v, want open", 3, got)
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}
	// Open: the first Allow is denied (cooldown 2), the second admits a probe.
	if b.Allow() {
		t.Fatal("open breaker allowed a request before cooldown elapsed")
	}
	if !b.Allow() {
		t.Fatal("breaker denied the half-open probe")
	}
	if got := b.State(); got != StateHalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", got)
	}
	// Failed probe → straight back to open.
	b.Report(false)
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	if b.Trips() != 2 {
		t.Fatalf("trips = %d, want 2", b.Trips())
	}
	// Cooldown again, then a successful probe closes it.
	b.Allow()
	if !b.Allow() {
		t.Fatal("breaker denied the second probe")
	}
	b.Report(true)
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	if !b.Allow() {
		t.Fatal("closed breaker denied a request")
	}
}

// TestFleetHedgeDelay pins the one hedge-delay policy: an explicit
// override wins; otherwise the observed p95 round latency, floored at
// 1 ms; and 5 ms while nothing has been observed.
func TestFleetHedgeDelay(t *testing.T) {
	echo := netsim.HandlerFunc(func(m wire.Message) wire.Message { return m })
	observe := func(n int, d func(i int) time.Duration) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = d(i)
		}
		return out
	}
	cases := []struct {
		name     string
		observed []time.Duration
		override time.Duration
		want     time.Duration
	}{
		{name: "cold", want: 5 * time.Millisecond},
		{name: "override", override: 7 * time.Millisecond, want: 7 * time.Millisecond,
			observed: observe(64, func(int) time.Duration { return 30 * time.Millisecond })},
		{name: "floored", want: time.Millisecond,
			observed: observe(64, func(int) time.Duration { return 100 * time.Microsecond })},
		{name: "warm", want: 60 * time.Millisecond,
			observed: observe(64, func(i int) time.Duration { return time.Duration(i+1) * time.Millisecond })},
	}
	for _, tc := range cases {
		f, err := NewFleet([]netsim.Client{netsim.NewLoopback(echo, netsim.LinkConfig{})}, nil, BreakerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range tc.observed {
			f.latency.Observe(d)
		}
		if got := f.hedgeDelay(tc.override); got != tc.want {
			t.Errorf("%s: hedgeDelay = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestClassifyVotes(t *testing.T) {
	v := func(completed, bad bool) ReplicaVote {
		return ReplicaVote{Completed: completed, Bad: bad}
	}
	cases := []struct {
		name  string
		votes []ReplicaVote
		want  QuorumClass
	}{
		{"k1-good", []ReplicaVote{v(true, false)}, QuorumLocalized},
		{"k1-bad", []ReplicaVote{v(true, true)}, QuorumProviderWide},
		{"tie", []ReplicaVote{v(true, false), v(true, true)}, QuorumInconclusive},
		{"all-bad", []ReplicaVote{v(true, true), v(true, true), v(true, true)}, QuorumProviderWide},
		{"majority-good", []ReplicaVote{v(true, false), v(true, false), v(true, true)}, QuorumLocalized},
		{"none-completed", []ReplicaVote{v(false, false), v(false, false)}, QuorumInconclusive},
		{"abstentions-dont-count", []ReplicaVote{v(false, false), v(true, true)}, QuorumProviderWide},
		{"empty", nil, QuorumInconclusive},
	}
	for _, tc := range cases {
		if got := classifyVotes(tc.votes); got != tc.want {
			t.Errorf("%s: classifyVotes = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestFleetAuditFailover: a dead primary must move the rounds to a live
// replica — completing the audit with zero failures — not accuse it.
func TestFleetAuditFailover(t *testing.T) {
	fs := newFleetSystem(t, 3, 12)
	fs.downs[0].SetDown(true)

	cfg := fs.auditCfg(6, 3, 42)
	cfg.Primary = 0
	fr, err := fs.agency.AuditStorageFleet(fs.fleet, fs.user.ID(), fs.warrant, cfg)
	if err != nil {
		t.Fatalf("AuditStorageFleet: %v", err)
	}
	if !fr.Valid() {
		t.Fatalf("audit of a crashed-but-honest primary produced failures: %+v", fr.Failures)
	}
	if fr.EffectiveSampleSize != 6 {
		t.Fatalf("effective sample = %d, want 6 (failover should complete every round)",
			fr.EffectiveSampleSize)
	}
	if len(fr.Failovers) == 0 {
		t.Fatal("no failover recorded despite a dead primary")
	}
	for ri, rec := range fr.Rounds {
		if rec.Outcome != RoundOK {
			t.Fatalf("round %d outcome = %v, want ok", ri, rec.Outcome)
		}
		if rec.Replica == 0 {
			t.Fatalf("round %d served by the dead primary", ri)
		}
		if !rec.FailedOver {
			t.Fatalf("round %d not marked failed-over", ri)
		}
	}

	// The signed evidence must carry the failover trail and verify.
	ev, err := fs.agency.IssueStorageEvidence(fs.fleet.ServerID(cfg.Primary), fr)
	if err != nil {
		t.Fatalf("IssueStorageEvidence: %v", err)
	}
	if ev.FailoverSummary == "" {
		t.Fatal("evidence has no failover summary")
	}
	if !ev.Valid {
		t.Fatal("evidence marks an honest fleet invalid")
	}
	if err := VerifyEvidence(fs.agency.scheme, ev); err != nil {
		t.Fatalf("VerifyEvidence: %v", err)
	}
}

// TestFleetAuditAllDown: with every replica dead the audit degrades to
// lost rounds — never to an accusation.
func TestFleetAuditAllDown(t *testing.T) {
	fs := newFleetSystem(t, 3, 8)
	for _, dh := range fs.downs {
		dh.SetDown(true)
	}
	cfg := fs.auditCfg(4, 2, 1)
	fr, err := fs.agency.AuditStorageFleet(fs.fleet, fs.user.ID(), fs.warrant, cfg)
	if err != nil {
		t.Fatalf("AuditStorageFleet: %v", err)
	}
	if !fr.Valid() {
		t.Fatalf("dead fleet accused of cheating: %+v", fr.Failures)
	}
	if fr.EffectiveSampleSize != 0 {
		t.Fatalf("effective sample = %d, want 0", fr.EffectiveSampleSize)
	}
	for ri, rec := range fr.Rounds {
		if rec.Outcome.Accusatory() {
			t.Fatalf("round %d outcome %v is accusatory", ri, rec.Outcome)
		}
		if rec.Replica != -1 {
			t.Fatalf("round %d claims replica %d served it", ri, rec.Replica)
		}
	}
}

// TestFleetFailoverDeterminism: identical RNG seeds and fault schedules
// must yield byte-identical signed evidence bodies across runs.
func TestFleetFailoverDeterminism(t *testing.T) {
	run := func() []byte {
		fs := newFleetSystem(t, 3, 12)
		fs.downs[1].SetDown(true)
		cfg := fs.auditCfg(8, 4, 99)
		cfg.Primary = 1
		fr, err := fs.agency.AuditStorageFleet(fs.fleet, fs.user.ID(), fs.warrant, cfg)
		if err != nil {
			t.Fatalf("AuditStorageFleet: %v", err)
		}
		ev, err := fs.agency.IssueStorageEvidence(fs.fleet.ServerID(cfg.Primary), fr)
		if err != nil {
			t.Fatalf("IssueStorageEvidence: %v", err)
		}
		return evidenceBody(ev)
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("evidence bodies differ across identical runs:\n%q\n%q", a, b)
	}
	if !strings.Contains(string(a), "|failover=") {
		t.Fatalf("evidence body missing failover field: %q", a)
	}
}

// TestFleetQuorumLocalizedRepair is the full heal pipeline: corrupt one
// replica, localize via quorum, repair from a verified source, confirm.
func TestFleetQuorumLocalizedRepair(t *testing.T) {
	fs := newFleetSystem(t, 4, 10)
	bad := 1
	for _, pos := range []uint64{2, 7} {
		if _, ok := fs.servers[bad].TamperBlock(fs.user.ID(), pos, []byte("rotten")); !ok {
			t.Fatalf("TamperBlock(%d) found nothing", pos)
		}
	}

	cfg := fs.auditCfg(10, 2, 5) // full sample: the corruption must be seen
	cfg.Primary = bad
	cfg.Repair = true
	fr, err := fs.agency.AuditStorageFleet(fs.fleet, fs.user.ID(), fs.warrant, cfg)
	if err != nil {
		t.Fatalf("AuditStorageFleet: %v", err)
	}
	if fr.Valid() {
		t.Fatal("corrupted replica passed the audit")
	}
	if len(fr.Quorums) != 1 {
		t.Fatalf("quorums = %d, want 1", len(fr.Quorums))
	}
	q := fr.Quorums[0]
	if q.Accused != bad {
		t.Fatalf("accused = %d, want %d", q.Accused, bad)
	}
	if q.Class != QuorumLocalized {
		t.Fatalf("classification = %v, want localized (votes: %+v)", q.Class, q.Votes)
	}
	if len(q.Positions) != 2 {
		t.Fatalf("accused positions = %v, want the 2 tampered ones", q.Positions)
	}
	if len(fr.Repairs) != 1 {
		t.Fatalf("repairs = %d, want 1", len(fr.Repairs))
	}
	rep := fr.Repairs[0]
	if !rep.Applied || !rep.Confirmed {
		t.Fatalf("repair not confirmed: %+v", rep)
	}
	if rep.Plan.Target != bad || rep.Plan.Source == bad || rep.Plan.Source < 0 {
		t.Fatalf("bad repair plan: %+v", rep.Plan)
	}

	// A follow-up audit of the repaired server must pass.
	after, err := fs.agency.AuditStorage(fs.fleet.Client(bad), fs.user.ID(), fs.warrant, AuditConfig{
		DatasetSize: fs.ds.NumBlocks(),
		SampleSize:  fs.ds.NumBlocks(),
		Rng:         mrand.New(mrand.NewSource(6)),
	})
	if err != nil {
		t.Fatalf("AuditStorage after repair: %v", err)
	}
	if !after.Valid() {
		t.Fatalf("repaired server still fails audit: %+v", after.Failures)
	}

	// The quorum verdict is part of the signed evidence.
	ev, err := fs.agency.IssueStorageEvidence(fs.fleet.ServerID(cfg.Primary), fr)
	if err != nil {
		t.Fatalf("IssueStorageEvidence: %v", err)
	}
	if !strings.Contains(ev.QuorumSummary, "localized") {
		t.Fatalf("quorum summary %q does not carry the classification", ev.QuorumSummary)
	}
	if err := VerifyEvidence(fs.agency.scheme, ev); err != nil {
		t.Fatalf("VerifyEvidence: %v", err)
	}
}

// TestFleetQuorumProviderWide: the same corruption on every replica must
// classify as provider-wide cheating — and must NOT be repaired, because
// there is no trustworthy source.
func TestFleetQuorumProviderWide(t *testing.T) {
	fs := newFleetSystem(t, 3, 8)
	for _, srv := range fs.servers {
		if _, ok := srv.TamperBlock(fs.user.ID(), 3, []byte("rotten")); !ok {
			t.Fatal("TamperBlock found nothing")
		}
	}
	cfg := fs.auditCfg(8, 2, 11)
	cfg.Primary = 0
	cfg.Repair = true
	fr, err := fs.agency.AuditStorageFleet(fs.fleet, fs.user.ID(), fs.warrant, cfg)
	if err != nil {
		t.Fatalf("AuditStorageFleet: %v", err)
	}
	if len(fr.Quorums) != 1 {
		t.Fatalf("quorums = %d, want 1", len(fr.Quorums))
	}
	if got := fr.Quorums[0].Class; got != QuorumProviderWide {
		t.Fatalf("classification = %v, want provider-wide", got)
	}
	if len(fr.Repairs) != 0 {
		t.Fatalf("provider-wide corruption triggered %d repairs", len(fr.Repairs))
	}
}

// TestReplicateStoreQuorum: replication must try every server, join the
// errors, and respect the configured write quorum.
func TestReplicateStoreQuorum(t *testing.T) {
	fs := newFleetSystem(t, 3, 4)
	csp, err := NewCSP([]netsim.Client{fs.fleet.Client(0), fs.fleet.Client(1), fs.fleet.Client(2)})
	if err != nil {
		t.Fatal(err)
	}
	fs.downs[1].SetDown(true)

	// Default quorum (all): one dead replica fails the store, but the
	// two live ones must still have been written.
	res, err := csp.ReplicateStoreDetail(fs.user, fs.req)
	if err == nil {
		t.Fatal("full-quorum store succeeded with a dead replica")
	}
	if !strings.Contains(err.Error(), "write quorum not met (2/3") {
		t.Fatalf("error does not report the quorum: %v", err)
	}
	if len(res.Acked) != 2 || res.Acked[0] != 0 || res.Acked[1] != 2 {
		t.Fatalf("acked = %v, want [0 2]", res.Acked)
	}
	if len(res.Errs) != 1 || !strings.Contains(res.Errs[0].Error(), "server 1") {
		t.Fatalf("errs = %v, want one error naming server 1", res.Errs)
	}

	// Quorum 2: the same situation succeeds, errors still reported.
	res, err = csp.WithWriteQuorum(2).ReplicateStoreDetail(fs.user, fs.req)
	if err != nil {
		t.Fatalf("quorum-2 store failed: %v", err)
	}
	if len(res.Acked) != 2 || len(res.Errs) != 1 {
		t.Fatalf("acked=%v errs=%v, want 2 acks and the dead server's error", res.Acked, res.Errs)
	}
}

// TestRunJobFailover: with a health tracker, a sub-job aimed at a dead
// server must execute on a live replica under its original slot ID.
func TestRunJobFailover(t *testing.T) {
	fs := newFleetSystem(t, 3, 9)
	csp, err := NewCSP([]netsim.Client{fs.fleet.Client(0), fs.fleet.Client(1), fs.fleet.Client(2)})
	if err != nil {
		t.Fatal(err)
	}
	csp.WithHealth(fs.fleet.Health())
	fs.downs[2].SetDown(true)

	job := &workload.Job{Owner: fs.user.ID()}
	for i := 0; i < 6; i++ {
		job.SubTasks = append(job.SubTasks, workload.SubTask{
			Spec:      workload.DefaultSpecPool()[0],
			Positions: []uint64{uint64(i)},
		})
	}
	subs, err := csp.RunJob(fs.user, "job-failover", job)
	if err != nil {
		t.Fatalf("RunJob with a dead replica: %v", err)
	}
	moved := 0
	for _, sub := range subs {
		if sub.ServerIdx == 2 {
			t.Fatalf("sub-job %s executed on the dead server", sub.JobID)
		}
		if sub.Slot != sub.ServerIdx {
			moved++
			if want := fmt.Sprintf("job-failover/s%d", sub.Slot); sub.JobID != want {
				t.Fatalf("failed-over sub-job renamed: %q, want %q", sub.JobID, want)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no sub-job failed over despite a dead slot server")
	}
	if _, err := MergeResults(job.Len(), subs); err != nil {
		t.Fatalf("MergeResults: %v", err)
	}
}
