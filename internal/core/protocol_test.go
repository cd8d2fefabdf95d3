package core

import (
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"testing"
	"time"

	"seccloud/internal/funcs"
	"seccloud/internal/ibc"
	"seccloud/internal/netsim"
	"seccloud/internal/pairing"
	"seccloud/internal/transport"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

// system is a complete in-process SecCloud deployment for tests.
type system struct {
	sio     *ibc.SIO
	user    *User
	agency  *Agency
	servers []*Server
	clients []transport.Client
}

// newSystem stands up one user, one DA, and n servers with the given
// per-server policies (nil → honest).
func newSystem(t testing.TB, policies ...CheatPolicy) *system {
	t.Helper()
	sio, err := ibc.Setup(pairing.InsecureTest256(), rand.Reader)
	if err != nil {
		t.Fatalf("Setup: %v", err)
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
		user:   NewUser(sp, userKey, rand.Reader),
		agency: NewAgency(sp, daKey, rand.Reader),
	}
	for i, pol := range policies {
		key, err := sio.Extract(fmt.Sprintf("cs:server-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(sp, key, ServerConfig{
			VerifyOnStore: true,
			Policy:        pol,
			Random:        rand.Reader,
		})
		if err != nil {
			t.Fatal(err)
		}
		sys.servers = append(sys.servers, srv)
		sys.clients = append(sys.clients, netsim.NewLoopback(srv, netsim.LinkConfig{}))
	}
	return sys
}

// storeDataset signs and uploads a dataset to server 0 (and returns the
// request for reuse).
func (s *system) storeDataset(t testing.TB, ds *workload.Dataset) *wire.StoreRequest {
	t.Helper()
	req, err := s.user.PrepareStore(ds, s.servers[0].ID(), s.agency.ID())
	if err != nil {
		t.Fatalf("PrepareStore: %v", err)
	}
	if err := s.user.Store(s.clients[0], req); err != nil {
		t.Fatalf("Store: %v", err)
	}
	return req
}

// runJob submits a job to server 0 and returns the delegation for the DA.
func (s *system) runJob(t testing.TB, jobID string, job *workload.Job) *JobDelegation {
	t.Helper()
	resp, err := s.user.SubmitJob(s.clients[0], jobID, job)
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	warrant, err := s.user.Delegate(s.agency.ID(), jobID, time.Now().Add(time.Hour))
	if err != nil {
		t.Fatalf("Delegate: %v", err)
	}
	return &JobDelegation{
		UserID:   s.user.ID(),
		ServerID: resp.ServerID,
		JobID:    jobID,
		Tasks:    TasksToWire(job),
		Results:  resp.Results,
		Root:     resp.Root,
		RootSig:  resp.RootSig,
		Warrant:  warrant,
	}
}

func TestHonestEndToEnd(t *testing.T) {
	sys := newSystem(t, nil)
	gen := workload.NewGenerator(1)
	ds := gen.GenDataset(sys.user.ID(), 16, 8)
	sys.storeDataset(t, ds)

	job, err := gen.GenJob(sys.user.ID(), workload.JobConfig{NumSubTasks: 12, DatasetSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	d := sys.runJob(t, "job-1", job)

	for _, batch := range []bool{false, true} {
		report, err := sys.agency.AuditJob(sys.clients[0], d, AuditConfig{
			SampleSize:      6,
			Rng:             mrand.New(mrand.NewSource(7)),
			BatchSignatures: batch,
		})
		if err != nil {
			t.Fatalf("AuditJob(batch=%v): %v", batch, err)
		}
		if !report.Valid() {
			t.Fatalf("honest server failed audit (batch=%v): %+v", batch, report.Failures)
		}
		if report.SampleSize != 6 {
			t.Fatalf("sample size %d, want 6", report.SampleSize)
		}
	}
}

func TestHonestStorageAudit(t *testing.T) {
	sys := newSystem(t, nil)
	gen := workload.NewGenerator(2)
	ds := gen.GenDataset(sys.user.ID(), 10, 4)
	sys.storeDataset(t, ds)
	warrant, err := sys.user.Delegate(sys.agency.ID(), "", time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	report, err := sys.agency.AuditStorage(sys.clients[0], sys.user.ID(), warrant, AuditConfig{
		DatasetSize: 10, SampleSize: 5, Rng: mrand.New(mrand.NewSource(3)),
	})
	if err != nil {
		t.Fatalf("AuditStorage: %v", err)
	}
	if !report.Valid() {
		t.Fatalf("honest storage failed audit: %+v", report.Failures)
	}
}

func TestStorageCheaterDetected(t *testing.T) {
	// A server that deleted every payload must be caught by any sample:
	// fabricated random data cannot match the designated signatures.
	sys := newSystem(t, &StorageCheater{KeepFraction: 0, Rng: mrand.New(mrand.NewSource(1))})
	gen := workload.NewGenerator(3)
	ds := gen.GenDataset(sys.user.ID(), 8, 4)
	sys.storeDataset(t, ds)

	warrant, err := sys.user.Delegate(sys.agency.ID(), "", time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	report, err := sys.agency.AuditStorage(sys.clients[0], sys.user.ID(), warrant, AuditConfig{
		DatasetSize: 8, SampleSize: 4, Rng: mrand.New(mrand.NewSource(4)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Valid() {
		t.Fatal("full storage cheater passed the audit")
	}
	for _, f := range report.Failures {
		if f.Check != CheckSignature {
			t.Fatalf("unexpected failure kind %v: %+v", f.Check, f)
		}
	}
}

func TestComputationCheaterDetected(t *testing.T) {
	// CSC = 0 on an unguessable function: every sampled recomputation
	// must mismatch.
	sys := newSystem(t, &ComputationCheater{CSC: 0, Rng: mrand.New(mrand.NewSource(2))})
	gen := workload.NewGenerator(4)
	ds := gen.GenDataset(sys.user.ID(), 8, 4)
	sys.storeDataset(t, ds)
	job := workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "digest"}, 8)
	d := sys.runJob(t, "job-cheat", job)

	report, err := sys.agency.AuditJob(sys.clients[0], d, AuditConfig{
		SampleSize: 4, Rng: mrand.New(mrand.NewSource(5)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Valid() {
		t.Fatal("full computation cheater passed the audit")
	}
	// Every sampled index must have a computation failure.
	byIdx := map[uint64]bool{}
	for _, f := range report.Failures {
		if f.Check == CheckComputation {
			byIdx[f.Index] = true
		}
	}
	if len(byIdx) != 4 {
		t.Fatalf("expected 4 computation failures, got %d (%+v)", len(byIdx), report.Failures)
	}
}

func TestPositionCheaterDetected(t *testing.T) {
	// A server always reading the wrong positions: the returned blocks
	// carry signatures for their true positions, so the eq. 7 check under
	// the *claimed* position must fail.
	sys := newSystem(t, &PositionCheater{
		HonestFraction: 0, DatasetSize: 8, Rng: mrand.New(mrand.NewSource(6)),
	})
	gen := workload.NewGenerator(5)
	ds := gen.GenDataset(sys.user.ID(), 8, 4)
	sys.storeDataset(t, ds)
	job := workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "sum"}, 8)
	d := sys.runJob(t, "job-pos", job)

	report, err := sys.agency.AuditJob(sys.clients[0], d, AuditConfig{
		SampleSize: 4, Rng: mrand.New(mrand.NewSource(8)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Valid() {
		t.Fatal("position cheater passed the audit")
	}
	var sawSig bool
	for _, f := range report.Failures {
		if f.Check == CheckSignature {
			sawSig = true
		}
	}
	if !sawSig {
		t.Fatalf("expected signature failures, got %+v", report.Failures)
	}
}

func TestPartialCheaterSometimesEscapesSmallSample(t *testing.T) {
	// With CSC = 0.75 and t = 1 the cheater escapes with probability
	// ~0.75 per audit; over a handful of audits we should observe both
	// escape and detection — the probabilistic heart of the scheme.
	sys := newSystem(t, &ComputationCheater{CSC: 0.75, Rng: mrand.New(mrand.NewSource(9))})
	gen := workload.NewGenerator(6)
	ds := gen.GenDataset(sys.user.ID(), 32, 4)
	sys.storeDataset(t, ds)
	job := workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "digest"}, 32)
	d := sys.runJob(t, "job-partial", job)

	var detected, escaped int
	for trial := 0; trial < 20; trial++ {
		report, err := sys.agency.AuditJob(sys.clients[0], d, AuditConfig{
			SampleSize: 1, Rng: mrand.New(mrand.NewSource(int64(100 + trial))),
		})
		if err != nil {
			t.Fatal(err)
		}
		if report.Valid() {
			escaped++
		} else {
			detected++
		}
	}
	if detected == 0 {
		t.Fatal("partial cheater never detected in 20 single-sample audits")
	}
	if escaped == 0 {
		t.Fatal("partial cheater never escaped in 20 single-sample audits; CSC behaviour wrong")
	}
}

func TestLargerSampleCatchesPartialCheater(t *testing.T) {
	// Same cheater, t = 32 (full coverage): detection is certain because
	// at least one of the 8 guessed digests lands in the sample.
	sys := newSystem(t, &ComputationCheater{CSC: 0.75, Rng: mrand.New(mrand.NewSource(10))})
	gen := workload.NewGenerator(7)
	ds := gen.GenDataset(sys.user.ID(), 32, 4)
	sys.storeDataset(t, ds)
	job := workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "digest"}, 32)
	d := sys.runJob(t, "job-full", job)
	report, err := sys.agency.AuditJob(sys.clients[0], d, AuditConfig{
		SampleSize: 32, Rng: mrand.New(mrand.NewSource(11)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Valid() {
		t.Fatal("full-coverage audit missed a 25% cheater")
	}
}

func TestWarrantEnforcement(t *testing.T) {
	sys := newSystem(t, nil)
	gen := workload.NewGenerator(8)
	ds := gen.GenDataset(sys.user.ID(), 4, 4)
	sys.storeDataset(t, ds)
	job := workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "sum"}, 4)
	d := sys.runJob(t, "job-w", job)

	t.Run("expired warrant rejected by DA", func(t *testing.T) {
		expired, err := sys.user.Delegate(sys.agency.ID(), "job-w", time.Now().Add(-time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		bad := *d
		bad.Warrant = expired
		if _, err := sys.agency.AuditJob(sys.clients[0], &bad, AuditConfig{SampleSize: 1}); err == nil {
			t.Fatal("expired warrant accepted")
		}
	})
	t.Run("expired warrant rejected by server", func(t *testing.T) {
		expired, err := sys.user.Delegate(sys.agency.ID(), "job-w", time.Now().Add(-time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		resp := sys.servers[0].Handle(&wire.ChallengeRequest{
			JobID: "job-w", Indices: []uint64{0}, Warrant: expired,
		})
		ch, ok := resp.(*wire.ChallengeResponse)
		if !ok || ch.Error == "" {
			t.Fatalf("server accepted expired warrant: %#v", resp)
		}
	})
	t.Run("wrong job warrant rejected", func(t *testing.T) {
		other, err := sys.user.Delegate(sys.agency.ID(), "some-other-job", time.Now().Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		bad := *d
		bad.Warrant = other
		if _, err := sys.agency.AuditJob(sys.clients[0], &bad, AuditConfig{SampleSize: 1}); err == nil {
			t.Fatal("wrong-job warrant accepted")
		}
	})
	t.Run("warrant for another delegate rejected", func(t *testing.T) {
		other, err := sys.user.Delegate("da:somebody-else", "job-w", time.Now().Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		bad := *d
		bad.Warrant = other
		if _, err := sys.agency.AuditJob(sys.clients[0], &bad, AuditConfig{SampleSize: 1}); err == nil {
			t.Fatal("foreign warrant accepted")
		}
	})
	t.Run("tampered warrant rejected", func(t *testing.T) {
		w, err := sys.user.Delegate(sys.agency.ID(), "job-w", time.Now().Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		w.NotAfterUnix += 3600 // extend validity after signing
		bad := *d
		bad.Warrant = w
		if _, err := sys.agency.AuditJob(sys.clients[0], &bad, AuditConfig{SampleSize: 1}); err == nil {
			t.Fatal("tampered warrant accepted")
		}
	})
}

func TestStoreRejectsBadSignature(t *testing.T) {
	sys := newSystem(t, nil)
	gen := workload.NewGenerator(9)
	ds := gen.GenDataset(sys.user.ID(), 2, 4)
	req, err := sys.user.PrepareStore(ds, sys.servers[0].ID(), sys.agency.ID())
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one block after signing.
	req.Blocks[1][0] ^= 0xff
	if err := sys.user.Store(sys.clients[0], req); err == nil {
		t.Fatal("server accepted a block whose signature does not verify")
	}
}

func TestComputeRespectsCommitment(t *testing.T) {
	// The user-side envelope check: a response whose root does not match
	// the returned results must be rejected.
	sys := newSystem(t, nil)
	gen := workload.NewGenerator(10)
	ds := gen.GenDataset(sys.user.ID(), 4, 4)
	sys.storeDataset(t, ds)
	job := workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "sum"}, 4)
	req := &wire.ComputeRequest{UserID: sys.user.ID(), JobID: "j", Tasks: TasksToWire(job)}
	resp := sys.servers[0].Handle(req).(*wire.ComputeResponse)

	// Tamper with one result post hoc: CheckComputeResponse must fail.
	resp.Results[2] = append([]byte(nil), resp.Results[2]...)
	resp.Results[2][0] ^= 1
	if err := sys.user.CheckComputeResponse(req, resp); err == nil {
		t.Fatal("tampered results accepted against committed root")
	}
}

func TestUnknownJobChallenge(t *testing.T) {
	sys := newSystem(t, nil)
	w, err := sys.user.Delegate(sys.agency.ID(), "ghost", time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	resp := sys.servers[0].Handle(&wire.ChallengeRequest{
		JobID: "ghost", Indices: []uint64{0}, Warrant: w,
	})
	ch, ok := resp.(*wire.ChallengeResponse)
	if !ok || ch.Error == "" {
		t.Fatalf("challenge on unknown job not rejected: %#v", resp)
	}
}

func TestComputeOnMissingBlock(t *testing.T) {
	sys := newSystem(t, nil)
	// No data stored: compute must fail cleanly.
	job := workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "sum"}, 3)
	resp := sys.servers[0].Handle(&wire.ComputeRequest{
		UserID: sys.user.ID(), JobID: "nodata", Tasks: TasksToWire(job),
	})
	cr, ok := resp.(*wire.ComputeResponse)
	if !ok || cr.Error == "" {
		t.Fatalf("compute over missing data not rejected: %#v", resp)
	}
}

func TestSampleIndices(t *testing.T) {
	rng := mrand.New(mrand.NewSource(12))
	for _, tc := range []struct{ n, t, want int }{
		{10, 4, 4}, {10, 10, 10}, {10, 15, 10}, {10, 0, 0}, {1, 1, 1},
	} {
		got := SampleIndices(rng, tc.n, tc.t)
		if len(got) != tc.want {
			t.Fatalf("SampleIndices(%d,%d) returned %d indices", tc.n, tc.t, len(got))
		}
		seen := map[uint64]bool{}
		for _, idx := range got {
			if idx >= uint64(tc.n) {
				t.Fatalf("index %d out of range %d", idx, tc.n)
			}
			if seen[idx] {
				t.Fatalf("duplicate sampled index %d", idx)
			}
			seen[idx] = true
		}
	}
}

func TestSampleIndicesUniform(t *testing.T) {
	// Each index should appear in a size-2-of-8 sample with probability
	// 1/4; gross deviations indicate a biased sampler.
	rng := mrand.New(mrand.NewSource(13))
	counts := make([]int, 8)
	const trials = 4000
	for i := 0; i < trials; i++ {
		for _, idx := range SampleIndices(rng, 8, 2) {
			counts[idx]++
		}
	}
	for idx, n := range counts {
		expected := trials / 4
		if n < expected*7/10 || n > expected*13/10 {
			t.Fatalf("index %d sampled %d times, expected ~%d", idx, n, expected)
		}
	}
}

func TestBatchAuditAttributesFailures(t *testing.T) {
	// With BatchSignatures on and a cheating server, the aggregate check
	// fails and the fallback must attribute signature failures to the
	// right sampled indices.
	sys := newSystem(t, &StorageCheater{KeepFraction: 0, Rng: mrand.New(mrand.NewSource(20))})
	gen := workload.NewGenerator(21)
	ds := gen.GenDataset(sys.user.ID(), 6, 4)
	sys.storeDataset(t, ds)
	job := workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "sum"}, 6)
	d := sys.runJob(t, "attr-job", job)
	report, err := sys.agency.AuditJob(sys.clients[0], d, AuditConfig{
		SampleSize: 3, Rng: mrand.New(mrand.NewSource(22)), BatchSignatures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Valid() {
		t.Fatal("batched audit missed total storage cheater")
	}
	sampled := map[uint64]bool{}
	for _, idx := range report.Sampled {
		sampled[idx] = true
	}
	sigFailures := 0
	for _, f := range report.Failures {
		if f.Check == CheckSignature {
			sigFailures++
			if !sampled[f.Index] {
				t.Fatalf("failure attributed to unsampled index %d", f.Index)
			}
		}
	}
	if sigFailures != 3 {
		t.Fatalf("expected 3 attributed signature failures, got %d", sigFailures)
	}
}

func TestLazyServerSkipsStoreVerification(t *testing.T) {
	// A server with VerifyOnStore=false accepts even garbage signatures;
	// the DA's audit still catches the bad data later. This mirrors the
	// paper's split of verification duties between CS and DA.
	sys := newSystem(t, nil)
	lazyKey, err := sys.sio.Extract("cs:lazy")
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := NewServer(sys.sio.Params(), lazyKey, ServerConfig{
		VerifyOnStore: false,
		Random:        rand.Reader,
	})
	if err != nil {
		t.Fatal(err)
	}
	lazyLink := netsim.NewLoopback(lazy, netsim.LinkConfig{})
	gen := workload.NewGenerator(23)
	ds := gen.GenDataset(sys.user.ID(), 3, 4)
	req, err := sys.user.PrepareStore(ds, lazy.ID(), sys.agency.ID())
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a block after signing: the lazy server stores it anyway.
	req.Blocks[1][0] ^= 0xff
	if err := sys.user.Store(lazyLink, req); err != nil {
		t.Fatalf("lazy server rejected store: %v", err)
	}
	// ... but the DA's storage audit flags exactly that block.
	warrant, err := sys.user.Delegate(sys.agency.ID(), "", time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	report, err := sys.agency.AuditStorage(lazyLink, sys.user.ID(), warrant, AuditConfig{
		DatasetSize: 3, SampleSize: 3, Rng: mrand.New(mrand.NewSource(24)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Valid() {
		t.Fatal("DA missed the corrupted block")
	}
	if len(report.Failures) != 1 || report.Failures[0].Index != 1 {
		t.Fatalf("expected exactly block 1 flagged, got %+v", report.Failures)
	}
}

func TestEndToEndOnSS512(t *testing.T) {
	// One full protocol pass on the production parameter set, so the
	// SS512 constants are exercised beyond micro-benchmarks. Kept small:
	// every signature costs two full-size pairings.
	if testing.Short() {
		t.Skip("SS512 end-to-end skipped in -short mode")
	}
	sio, err := ibc.Setup(pairing.SS512(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sp := sio.Params()
	userKey, err := sio.Extract("user:ss512")
	if err != nil {
		t.Fatal(err)
	}
	daKey, err := sio.Extract("da:ss512")
	if err != nil {
		t.Fatal(err)
	}
	srvKey, err := sio.Extract("cs:ss512")
	if err != nil {
		t.Fatal(err)
	}
	user := NewUser(sp, userKey, rand.Reader)
	agency := NewAgency(sp, daKey, rand.Reader)
	srv, err := NewServer(sp, srvKey, ServerConfig{VerifyOnStore: true, Random: rand.Reader})
	if err != nil {
		t.Fatal(err)
	}
	client := netsim.NewLoopback(srv, netsim.LinkConfig{})

	ds := workload.NewGenerator(30).GenDataset(user.ID(), 3, 4)
	req, err := user.PrepareStore(ds, srv.ID(), agency.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := user.Store(client, req); err != nil {
		t.Fatalf("SS512 store: %v", err)
	}
	job := workload.UniformJob(user.ID(), funcs.Spec{Name: "sum"}, 3)
	resp, err := user.SubmitJob(client, "ss512-job", job)
	if err != nil {
		t.Fatalf("SS512 compute: %v", err)
	}
	warrant, err := user.Delegate(agency.ID(), "ss512-job", time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	report, err := agency.AuditJob(client, &JobDelegation{
		UserID:   user.ID(),
		ServerID: resp.ServerID,
		JobID:    "ss512-job",
		Tasks:    TasksToWire(job),
		Results:  resp.Results,
		Root:     resp.Root,
		RootSig:  resp.RootSig,
		Warrant:  warrant,
	}, AuditConfig{SampleSize: 2, Rng: mrand.New(mrand.NewSource(31)), BatchSignatures: true})
	if err != nil {
		t.Fatalf("SS512 audit: %v", err)
	}
	if !report.Valid() {
		t.Fatalf("SS512 honest audit failed: %+v", report.Failures)
	}
}
