package core

import (
	"context"
	"crypto/rand"
	"flag"
	"fmt"
	"io"
	"math"
	"math/big"
	mrand "math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"seccloud/internal/funcs"
	"seccloud/internal/ibc"
	"seccloud/internal/netsim"
	"seccloud/internal/pairing"
	"seccloud/internal/sampling"
	"seccloud/internal/threshold"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

// The golden matrix is the differential oracle for the audit round loop:
// every deterministic field of every report a seeded scenario produces —
// and the signed evidence body sealed from it — is rendered to text and
// compared byte-for-byte against testdata/golden, which was generated from
// the five hand-copied loops this engine replaced. `go test -run
// TestGolden -update ./internal/core` rewrites the files.
//
// Determinism: the SIO master secret, the user's signing randomness and
// the agency's batch randomization are seeded, so even the threshold
// CombinedDigest is reproducible. Faults that depend on arrival order
// (netsim.FaultConfig's seeded injector, a shared retry budget) run at
// Workers 1 only; the Workers 4 rows use faults keyed on the request's
// content, which no schedule can reorder.
var updateGolden = flag.Bool("update", false, "rewrite internal/core/testdata/golden from the current code")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from its golden.\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

// ---- deterministic fixtures ----

func seeded(seed int64) *mrand.Rand { return mrand.New(mrand.NewSource(seed)) }

// newGoldenSystem is newSystem with every source of protocol randomness
// that reaches a rendered field pinned.
func newGoldenSystem(t testing.TB, policies ...CheatPolicy) *system {
	t.Helper()
	sio, err := ibc.SetupDeterministic(pairing.InsecureTest256(), big.NewInt(0x5ecc10d))
	if err != nil {
		t.Fatalf("SetupDeterministic: %v", err)
	}
	sp := sio.Params()
	userKey, err := sio.Extract("user:alice")
	if err != nil {
		t.Fatal(err)
	}
	daKey, err := sio.Extract("da:auditor")
	if err != nil {
		t.Fatal(err)
	}
	sys := &system{
		sio:    sio,
		user:   NewUser(sp, userKey, seeded(101)),
		agency: NewAgency(sp, daKey, seeded(102)),
	}
	for i, pol := range policies {
		key, err := sio.Extract(fmt.Sprintf("cs:server-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(sp, key, ServerConfig{VerifyOnStore: true, Policy: pol, Random: rand.Reader})
		if err != nil {
			t.Fatal(err)
		}
		sys.servers = append(sys.servers, srv)
		sys.clients = append(sys.clients, netsim.NewLoopback(srv, netsim.LinkConfig{}))
	}
	return sys
}

// reqKey is the first challenged index of an audit request: the content
// key the scripted faults below decide on.
func reqKey(m wire.Message) (uint64, bool) {
	switch r := m.(type) {
	case *wire.ChallengeRequest:
		if len(r.Indices) > 0 {
			return r.Indices[0], true
		}
	case *wire.StorageAuditRequest:
		if len(r.Positions) > 0 {
			return r.Positions[0], true
		}
	}
	return 0, false
}

type keyedAction int

const (
	actPass  keyedAction = iota
	actDrop              // retryable transport loss
	actShed              // typed admission shed
	actBlock             // hold the request until its context dies
)

// keyedClient injects faults as a pure function of (request key, how many
// times that key was sent), so the outcome of every round is independent
// of the order concurrent rounds reach the link.
type keyedClient struct {
	inner netsim.Client
	act   func(key uint64, attempt int) keyedAction

	mu   sync.Mutex
	seen map[uint64]int
}

func newKeyedClient(inner netsim.Client, act func(key uint64, attempt int) keyedAction) *keyedClient {
	return &keyedClient{inner: inner, act: act, seen: make(map[uint64]int)}
}

func (c *keyedClient) RoundTripContext(ctx context.Context, m wire.Message) (wire.Message, error) {
	if key, ok := reqKey(m); ok {
		c.mu.Lock()
		c.seen[key]++
		act := c.act(key, c.seen[key])
		c.mu.Unlock()
		switch act {
		case actDrop:
			return nil, &netsim.TransportError{Op: "roundtrip", Err: fmt.Errorf("scripted drop")}
		case actShed:
			return nil, &netsim.OverloadedError{Op: "roundtrip", RetryAfter: 5 * time.Millisecond}
		case actBlock:
			<-ctx.Done()
			return nil, &netsim.TransportError{Op: "roundtrip", Timeout: true, Err: ctx.Err()}
		}
	}
	return c.inner.RoundTripContext(ctx, m)
}

func (c *keyedClient) Stats() netsim.StatsSnapshot { return c.inner.Stats() }
func (c *keyedClient) Close() error                { return nil }

// ---- rendering ----

func renderRounds(b *strings.Builder, rounds []RoundRecord) {
	for i, rr := range rounds {
		// A hedged round's attempt count includes the losing leg only if it
		// drained before the winner returned — timing, not evidence.
		attempts := fmt.Sprint(rr.Attempts)
		if rr.Hedged {
			attempts = "-"
		}
		fmt.Fprintf(b, "round %d indices=%v outcome=%s attempts=%s completed=%v replica=%d failed-over=%v hedged=%v detail=%q\n",
			i, rr.Indices, rr.Outcome, attempts, rr.Completed, rr.Replica, rr.FailedOver, rr.Hedged, rr.Detail)
	}
}

func renderFailures(b *strings.Builder, fails []AuditFailure) {
	for _, f := range fails {
		fmt.Fprintf(b, "fail index=%d check=%s detail=%q\n", f.Index, f.Check, f.Detail)
	}
}

func renderTrail(b *strings.Builder, tr *ThresholdTrail) {
	if tr == nil {
		b.WriteString("threshold none\n")
		return
	}
	fmt.Fprintf(b, "threshold quorum=%v crashed=%v byzantine=%v recoveries=%d digest=%s\n",
		tr.Quorum, tr.Crashed, tr.Byzantine, tr.Recoveries, tr.CombinedDigest)
}

func renderReport(b *strings.Builder, r *AuditReport) {
	fmt.Fprintf(b, "report job=%q user=%q sampled=%v size=%d planned=%d effective=%d\n",
		r.JobID, r.UserID, r.Sampled, r.SampleSize, r.PlannedSampleSize, r.EffectiveSampleSize)
	fmt.Fprintf(b, "valid=%v degraded=%v overload-degraded=%v budget-denied=%d batched=%v confidence=%g\n",
		r.Valid(), r.Degraded(), r.DegradedByOverload, r.BudgetDenied, r.SigChecksBatched, r.AchievedConfidence)
	renderRounds(b, r.Rounds)
	renderFailures(b, r.Failures)
	renderTrail(b, r.Threshold)
}

func renderEvidence(t *testing.T, b *strings.Builder, ev *Evidence, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("issuing evidence: %v", err)
	}
	fmt.Fprintf(b, "evidence %q\n", evidenceBody(ev))
}

func renderFleetReport(b *strings.Builder, primary int, r *AuditReport) {
	fmt.Fprintf(b, "fleet user=%q primary=%d failed-over=%v\n", r.UserID, primary, len(r.Failovers) > 0)
	renderReport(b, r)
	for _, e := range r.Failovers {
		fmt.Fprintf(b, "failover round=%d from=%d to=%d reason=%s\n", e.Round, e.From, e.To, e.Reason)
	}
	for _, q := range r.Quorums {
		fmt.Fprintf(b, "quorum accused=%d positions=%v class=%s\n", q.Accused, q.Positions, q.Class)
		for _, v := range q.Votes {
			fmt.Fprintf(b, "  vote server=%d completed=%v bad=%v detail=%q\n", v.Server, v.Completed, v.Bad, v.Detail)
		}
	}
	for _, rr := range r.Repairs {
		fmt.Fprintf(b, "repair target=%d source=%d positions=%v applied=%v confirmed=%v detail=%q\n",
			rr.Plan.Target, rr.Plan.Source, rr.Plan.Positions, rr.Applied, rr.Confirmed, rr.Detail)
	}
}

// ---- single-server matrix: {job, storage} × {honest, cheater} × link ----

const (
	goldenBlocks = 16
	goldenSample = 8
	goldenRounds = 4
	goldenSeed   = 4242
)

// newGoldenTarget is one (kind, cheat) deployment shared by that pair's
// link conditions: audits only read server state, so every condition sees
// the same stored data and the same committed job.
func newGoldenTarget(t *testing.T, storage, cheat bool) *auditTarget {
	t.Helper()
	var policy CheatPolicy
	switch {
	case cheat && storage:
		policy = &StorageCheater{KeepFraction: 0.5, Rng: seeded(7)}
	case cheat:
		policy = &ComputationCheater{CSC: 0.75, Rng: seeded(7)}
	}
	sys := newGoldenSystem(t, policy)
	ds := workload.NewGenerator(11).GenDataset(sys.user.ID(), goldenBlocks, 4)
	return sys.target(t, storage, ds, funcs.Spec{Name: "digest"}, "golden-job")
}

// goldenAudit runs one audit of the target and renders report and evidence.
func goldenAudit(t *testing.T, b *strings.Builder, tg *auditTarget, client netsim.Client, cfg AuditConfig) *AuditCheckpoint {
	t.Helper()
	r, err := tg.audit(client, cfg)
	if err != nil {
		fmt.Fprintf(b, "error %v\n", err)
		return nil
	}
	renderReport(b, r)
	ev, err := tg.evidence(r)
	renderEvidence(t, b, ev, err)
	return r.Checkpoint()
}

// goldenLink is one link condition: prepare wraps the clean link and sets
// the fault-handling fields of cfg.
type goldenLink struct {
	name    string
	workers []int
	prepare func(tg *auditTarget, clean netsim.Client, cfg *AuditConfig) netsim.Client
	// resume re-runs from the first report's checkpoint over the clean link.
	resume bool
	// expect must appear in the rendering, so a reseeded fixture cannot
	// silently stop exercising the condition.
	expect string
}

func goldenLinks() []goldenLink {
	both, seq := []int{1, 4}, []int{1}
	shedOdd := func(key uint64, _ int) keyedAction {
		if key%2 == 1 {
			return actShed
		}
		return actPass
	}
	return []goldenLink{
		{name: "clean", workers: both, expect: "effective=8",
			prepare: func(_ *auditTarget, clean netsim.Client, _ *AuditConfig) netsim.Client { return clean }},
		{name: "loss-faultconfig", workers: seq, expect: "outcome=network-fault",
			prepare: func(tg *auditTarget, _ netsim.Client, cfg *AuditConfig) netsim.Client {
				cfg.Retry = faultRetrier(7, 2)
				return tg.sys.faultyLink(0.4, 1003)
			}},
		{name: "loss-keyed", workers: both, expect: "attempts=2 completed=true",
			prepare: func(_ *auditTarget, clean netsim.Client, cfg *AuditConfig) netsim.Client {
				cfg.Retry = faultRetrier(7, 3)
				// Odd keys lose their first attempt and recover on retry;
				// keys divisible by four never get through.
				return newKeyedClient(clean, func(key uint64, attempt int) keyedAction {
					if key%4 == 0 || (key%2 == 1 && attempt == 1) {
						return actDrop
					}
					return actPass
				})
			}},
		{name: "shed", workers: both, expect: "outcome=shed",
			prepare: func(_ *auditTarget, clean netsim.Client, _ *AuditConfig) netsim.Client {
				return newKeyedClient(clean, shedOdd)
			}},
		{name: "deadline", workers: both, expect: "outcome=timeout",
			prepare: func(_ *auditTarget, clean netsim.Client, cfg *AuditConfig) netsim.Client {
				// Round 1 hangs until the audit deadline. Sequentially that
				// strands rounds 2 and 3 undispatched; with four workers the
				// other rounds are already in flight and complete.
				cfg.Deadline = 300 * time.Millisecond
				per := goldenSample / goldenRounds
				hang := SampleIndices(seeded(goldenSeed), goldenBlocks, goldenSample)[per]
				return newKeyedClient(clean, func(key uint64, _ int) keyedAction {
					if key == hang {
						return actBlock
					}
					return actPass
				})
			}},
		{name: "budget", workers: seq, expect: "budget-denied=4",
			prepare: func(tg *auditTarget, _ netsim.Client, cfg *AuditConfig) netsim.Client {
				cfg.Retry = faultRetrier(7, 4)
				cfg.Budget = netsim.NewRetryBudget(2, 0)
				return tg.sys.faultyLink(1.0, 99)
			}},
		{name: "overload-degraded", workers: both, expect: "overload-degraded=true",
			prepare: func(_ *auditTarget, clean netsim.Client, cfg *AuditConfig) netsim.Client {
				oc := NewOverloadController(OverloadConfig{Threshold: 0.3, Window: 16, MinFraction: 0.25})
				for i := 0; i < 16; i++ {
					oc.Observe(i%2 == 0)
				}
				cfg.Overload = oc
				return clean
			}},
		{name: "resume", workers: both, resume: true, expect: "outcome=shed",
			prepare: func(_ *auditTarget, clean netsim.Client, _ *AuditConfig) netsim.Client {
				return newKeyedClient(clean, shedOdd)
			}},
	}
}

func TestGoldenSingleServerMatrix(t *testing.T) {
	for _, storage := range []bool{false, true} {
		for _, cheat := range []bool{false, true} {
			kind, who := "job", "honest"
			if storage {
				kind = "storage"
			}
			if cheat {
				who = "cheater"
			}
			tg := newGoldenTarget(t, storage, cheat)
			clean := tg.sys.clients[0]
			analysis := &sampling.Params{CSC: 0.5, SSC: 0.5, R: math.Inf(1)}
			for _, link := range goldenLinks() {
				link := link
				name := fmt.Sprintf("%s-%s-%s", kind, who, link.name)
				t.Run(name, func(t *testing.T) {
					var b strings.Builder
					for _, workers := range link.workers {
						fmt.Fprintf(&b, "== workers=%d ==\n", workers)
						cfg := AuditConfig{
							SampleSize: goldenSample, Rounds: goldenRounds,
							Rng: seeded(goldenSeed), BatchSignatures: true, Analysis: analysis, Workers: workers,
						}
						client := link.prepare(tg, clean, &cfg)
						cp := goldenAudit(t, &b, tg, client, cfg)
						if link.resume {
							b.WriteString("-- resumed --\n")
							goldenAudit(t, &b, tg, clean, AuditConfig{
								Resume: cp, BatchSignatures: true, Analysis: analysis, Workers: workers,
							})
						}
					}
					if !strings.Contains(b.String(), link.expect) {
						t.Fatalf("scenario no longer exercises %q:\n%s", link.expect, b.String())
					}
					checkGolden(t, name, b.String())
				})
			}
		}
	}
}

// ---- fleet ----

func TestGoldenFleet(t *testing.T) {
	cases := []struct {
		name    string
		servers int
		wrap    func(i int, c netsim.Client) netsim.Client
		setup   func(t *testing.T, fs *fleetSystem, cfg *FleetAuditConfig)
		expect  string
	}{
		{name: "primary-killed", servers: 3, expect: "failover round=0 from=0 to=1",
			setup: func(_ *testing.T, fs *fleetSystem, _ *FleetAuditConfig) { fs.downs[0].SetDown(true) }},
		{name: "all-down", servers: 3, expect: "replica=-1",
			setup: func(_ *testing.T, fs *fleetSystem, _ *FleetAuditConfig) {
				for _, dh := range fs.downs {
					dh.SetDown(true)
				}
			}},
		{name: "hedge", servers: 3, expect: "hedged=true",
			wrap: func(i int, c netsim.Client) netsim.Client {
				if i == 0 {
					return &latentCtxClient{inner: c, d: 200 * time.Millisecond}
				}
				return c
			},
			setup: func(_ *testing.T, _ *fleetSystem, cfg *FleetAuditConfig) {
				cfg.Hedge, cfg.HedgeDelay = true, 5*time.Millisecond
			}},
		{name: "localized-rot-repair", servers: 4, expect: "class=localized",
			setup: func(t *testing.T, fs *fleetSystem, cfg *FleetAuditConfig) {
				for _, pos := range []uint64{2, 7} {
					if _, ok := fs.servers[1].TamperBlock(fs.user.ID(), pos, []byte("rotten")); !ok {
						t.Fatalf("TamperBlock(%d) found nothing", pos)
					}
				}
				cfg.Primary, cfg.Repair = 1, true
			}},
		{name: "provider-wide-rot", servers: 3, expect: "class=provider-wide",
			setup: func(t *testing.T, fs *fleetSystem, cfg *FleetAuditConfig) {
				for _, srv := range fs.servers {
					if _, ok := srv.TamperBlock(fs.user.ID(), 3, []byte("rotten")); !ok {
						t.Fatal("TamperBlock found nothing")
					}
				}
				cfg.Repair = true
			}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var b strings.Builder
			for _, workers := range []int{1, 4} {
				fmt.Fprintf(&b, "== workers=%d ==\n", workers)
				fs := newFleetSystemOn(t, newGoldenSystem(t, make([]CheatPolicy, tc.servers)...), 10, tc.wrap)
				cfg := FleetAuditConfig{Storage: AuditConfig{
					DatasetSize: 10, SampleSize: 10, Rounds: 3, Rng: seeded(goldenSeed),
					BatchSignatures: true, Workers: workers,
					Analysis: &sampling.Params{CSC: 0.5, SSC: 0.5, R: math.Inf(1)},
				}}
				tc.setup(t, fs, &cfg)
				fr, err := fs.agency.AuditStorageFleet(fs.fleet, fs.user.ID(), fs.warrant, cfg)
				if err != nil {
					t.Fatalf("AuditStorageFleet: %v", err)
				}
				renderFleetReport(&b, cfg.Primary, fr)
				ev, err := fs.agency.IssueStorageEvidence(fs.fleet.ServerID(cfg.Primary), fr)
				renderEvidence(t, &b, ev, err)
				fmt.Fprintf(&b, "breakers %v\n", fs.fleet.Health().States())
			}
			if !strings.Contains(b.String(), tc.expect) {
				t.Fatalf("scenario no longer exercises %q:\n%s", tc.expect, b.String())
			}
			checkGolden(t, "fleet-"+tc.name, b.String())
		})
	}
}

// ---- threshold ----

func TestGoldenThreshold(t *testing.T) {
	cases := []struct {
		name             string
		cheat            bool
		crashed, byzHold []int // 0-based holder indices
		expect           string
	}{
		{name: "crashed", crashed: []int{0}, expect: "crashed=[1]"},
		{name: "byzantine", byzHold: []int{0}, expect: "byzantine=[1]"},
		{name: "cheater-crashed", cheat: true, crashed: []int{1}, expect: "check=block-signature"},
		{name: "crashed-and-byzantine", crashed: []int{0}, byzHold: []int{1}, expect: "quorum unavailable"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var b strings.Builder
			for _, workers := range []int{1, 4} {
				fmt.Fprintf(&b, "== workers=%d ==\n", workers)
				tg := newGoldenTarget(t, true, false)
				sys := tg.sys
				if tc.cheat {
					// Rot with fixed bytes, not a StorageCheater: a deleted block
					// is served as fresh random data, which would reach the
					// combined digest through the aggregate's message hashes.
					for _, pos := range []uint64{0, 4} {
						if _, ok := sys.servers[0].TamperBlock(sys.user.ID(), pos, []byte("rotten")); !ok {
							t.Fatalf("TamperBlock(%d) found nothing", pos)
						}
					}
				}
				daKey, err := sys.sio.Extract(sys.agency.ID())
				if err != nil {
					t.Fatal(err)
				}
				deal, err := threshold.SplitVerifierKey(sys.sio.Params(), daKey, 2, 3, rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				clients := make([]netsim.Client, len(deal.Shares))
				for i, share := range deal.Shares {
					h := threshold.NewAuditorShare(sys.sio.Params(), share, rand.Reader)
					d := netsim.NewDownableHandler(h)
					for _, c := range tc.crashed {
						d.SetDown(d.Down() || c == i)
					}
					for _, z := range tc.byzHold {
						if z == i {
							h.SetByzantine(true)
						}
					}
					clients[i] = netsim.NewLoopback(d, netsim.LinkConfig{})
				}
				if sys.agency, err = sys.agency.WithThreshold(ThresholdConfig{Public: deal.Public, Clients: clients}); err != nil {
					t.Fatal(err)
				}
				goldenAudit(t, &b, tg, sys.clients[0], AuditConfig{
					SampleSize: goldenSample, Rounds: goldenRounds,
					Rng: seeded(goldenSeed), BatchSignatures: true, Workers: workers,
				})
			}
			if !strings.Contains(b.String(), tc.expect) {
				t.Fatalf("scenario no longer exercises %q:\n%s", tc.expect, b.String())
			}
			checkGolden(t, "threshold-2of3-"+tc.name, b.String())
		})
	}
}

// ---- scheduler ----

func renderDrain(t *testing.T, b *strings.Builder, f *tenantFixture, rep *MultiTenantReport) {
	t.Helper()
	fmt.Fprintf(b, "drain valid=%v accusations=%d items=%d flushes=%d fallbacks=%d\n",
		rep.Valid(), rep.Accusations(), rep.BatchedSigItems, rep.Flushes, rep.BlameFallbacks)
	for _, v := range rep.Verdicts {
		fmt.Fprintf(b, "verdict user=%q job=%q\n", v.UserID, v.JobID)
		renderReport(b, v.Report)
		_, d, _, err := f.sched.Registry().Session(v.UserID)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := f.sys.agency.IssueEvidence(d, v.Report)
		renderEvidence(t, b, ev, err)
	}
	fmt.Fprintf(b, "fingerprint %q\n", rep.Fingerprint())
}

func TestGoldenScheduler(t *testing.T) {
	const tenants = 4
	dead := func(f *tenantFixture) netsim.Client {
		dh := netsim.NewDownableHandler(f.sys.servers[0])
		dh.SetDown(true)
		return netsim.NewLoopback(dh, netsim.LinkConfig{})
	}
	cases := []struct {
		name     string
		overload bool
		drains   int
		setup    func(t *testing.T, f *tenantFixture)
		expect   string
	}{
		{name: "honest-cross-tenant", drains: 2, expect: "flushes=1 fallbacks=0",
			setup: func(*testing.T, *tenantFixture) {}},
		{name: "one-tampered-tenant", drains: 1, expect: "accusations=1",
			setup: func(t *testing.T, f *tenantFixture) {
				for pos := uint64(0); pos < 8; pos++ {
					if _, ok := f.sys.servers[0].TamperBlock(f.ids[2], pos, []byte("tampered-block")); !ok {
						t.Fatalf("TamperBlock(%d) found nothing", pos)
					}
				}
			}},
		{name: "all-shed", overload: true, drains: 3, expect: "outcome=shed",
			setup: func(t *testing.T, f *tenantFixture) {
				shedAll := &shedClient{inner: f.sys.clients[0], shed: func(int) bool { return true }}
				for _, id := range f.ids {
					f.reattach(t, id, shedAll)
				}
			}},
		// The next two rows pin the two scheduler behaviours the engine
		// changed on purpose (see CHANGES.md): a structurally refused round
		// is not Completed, and a round lost to a plain network fault is not
		// overload pressure.
		{name: "refused-tenant", drains: 1, expect: "server refused challenge",
			setup: func(t *testing.T, f *tenantFixture) { f.reattach(t, f.ids[1], f.sys.clients[1]) }},
		{name: "all-network-fault", overload: true, drains: 3, expect: "outcome=network-fault",
			setup: func(t *testing.T, f *tenantFixture) {
				for _, id := range f.ids {
					f.reattach(t, id, dead(f))
				}
			}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var b strings.Builder
			for _, workers := range []int{1, 4} {
				fmt.Fprintf(&b, "== workers=%d ==\n", workers)
				cfg := SchedulerConfig{Workers: workers, CrossTenantBatch: true, SampleSize: 4, Rng: seeded(goldenSeed)}
				if tc.overload {
					cfg.Overload = NewOverloadController(OverloadConfig{Threshold: 0.3, Window: 16, MinFraction: 0.25})
				}
				// Two servers: the second holds none of the tenants' jobs.
				f := newTenantFixtureOn(t, newGoldenSystem(t, nil, nil), tenants, 8, cfg,
					func(i int) io.Reader { return seeded(int64(200 + i)) })
				tc.setup(t, f)
				for drain := 0; drain < tc.drains; drain++ {
					for _, id := range f.ids {
						f.sched.Enqueue(id)
					}
					rep, err := f.sched.Drain()
					if err != nil {
						t.Fatalf("Drain: %v", err)
					}
					fmt.Fprintf(&b, "-- drain %d --\n", drain)
					renderDrain(t, &b, f, rep)
				}
				if cfg.Overload != nil {
					planned, degraded := cfg.Overload.PlanSample(8)
					fmt.Fprintf(&b, "overload loss-rate=%g plan(8)=%d degraded=%v\n", cfg.Overload.LossRate(), planned, degraded)
				}
			}
			if !strings.Contains(b.String(), tc.expect) {
				t.Fatalf("scenario no longer exercises %q:\n%s", tc.expect, b.String())
			}
			checkGolden(t, "scheduler-"+tc.name, b.String())
		})
	}
}
