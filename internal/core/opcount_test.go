package core

import (
	mrand "math/rand"
	"testing"
	"time"

	"seccloud/internal/ibc"
	"seccloud/internal/netsim"
	"seccloud/internal/ops"
	"seccloud/internal/pairing"
	"seccloud/internal/transport"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

// TestJobAuditOpCounts pins what the DA's crypto layers are asked to do
// for one honest 33-of-512 batched job audit at SS512 — the op of the
// benchmark's audit_job_ss512 workload — the first time it sees a
// delegation and in its steady state (identity points and verifier
// precomputation cached by an audit of another delegation). The counters
// count logical operations, so they must not move when an operation is
// made faster; a change here means a check was added or dropped, or a
// kernel miscounts. The DA holds its own copy of the parameters, as its
// own process would, so the server's work is not in the count.
//
// The sample costs one aggregate equation: 33 U's and one grouped Q_ID in
// a multi-scalar multiplication and one replayed pairing. No U is checked
// for membership in G1 (dvs.BatchVerifyRandomized says why). A
// delegation's first audit verifies the warrant and the root signature:
// per signature two membership ladders in DecodeIBSig, two more and one
// multiplication in PublicVerify, and two replayed pairings — 10 point
// multiplications and 4 pairings beside the sample's 34 and 1. Later
// audits of the same delegation find both signatures in the agency's
// sigMemo and pay for the sample alone; expiry, the bindings and the root
// rebuild still run, but ask nothing of the curve.
func TestJobAuditOpCounts(t *testing.T) {
	const seed = 1
	user, agency, client, counters := newOpCountSystem(t, seed)
	gen := workload.NewGenerator(seed)
	req, err := user.PrepareStore(gen.GenDataset(user.ID(), 64, 32), "cs:server-0", agency.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := user.Store(client, req); err != nil {
		t.Fatal(err)
	}
	job, err := gen.GenJob(user.ID(), workload.JobConfig{NumSubTasks: 512, DatasetSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	delegate := func(jobID string) *JobDelegation {
		resp, err := user.SubmitJob(client, jobID, job)
		if err != nil {
			t.Fatal(err)
		}
		warrant, err := user.Delegate(agency.ID(), jobID, time.Now().Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		return &JobDelegation{
			UserID: user.ID(), ServerID: resp.ServerID, JobID: jobID,
			Tasks: TasksToWire(job), Results: resp.Results,
			Root: resp.Root, RootSig: resp.RootSig, Warrant: warrant,
		}
	}

	audit := func(d *JobDelegation, rngSeed int64) ops.Snapshot {
		before := counters.Snapshot()
		report, err := agency.AuditJob(client, d, AuditConfig{
			SampleSize: 33, Rounds: 1, Rng: mrand.New(mrand.NewSource(rngSeed)),
			BatchSignatures: true, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !report.Valid() || report.EffectiveSampleSize != 33 {
			t.Fatalf("honest audit of %s: valid=%v, effective sample %d", d.JobID, report.Valid(), report.EffectiveSampleSize)
		}
		return counters.Snapshot().Sub(before)
	}
	audit(delegate("job-0"), seed+9) // warms identity points and the verifier precomputation

	d := delegate("job-1")
	if got, want := audit(d, seed+10), (ops.Snapshot{PointMuls: 44, MillerLoops: 5, FinalExps: 5, PrecompHits: 1}); got != want {
		t.Fatalf("first audit of a delegation asked for %+v, want %+v", got, want)
	}
	var got ops.Snapshot
	for i := 1; i < 3; i++ {
		got = audit(d, int64(seed+10+i))
	}
	if want := (ops.Snapshot{PointMuls: 34, MillerLoops: 1, FinalExps: 1, PrecompHits: 1}); got != want {
		t.Fatalf("steady-state job audit asked for %+v, want %+v", got, want)
	}
}

// newOpCountSystem is a seeded SS512 user, DA and server, each with its
// own copy of the parameters as its own process would have, so the DA's
// counters see none of the server's work. It returns the DA's counters.
func newOpCountSystem(t *testing.T, seed int64) (*User, *Agency, transport.Client, *ops.Counters) {
	t.Helper()
	var sps [3]*ibc.SIO
	for i := range sps {
		sio, err := ibc.Setup(pairing.SS512(), mrand.New(mrand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		sps[i] = sio
	}
	userSIO, agencySIO, serverSIO := sps[0], sps[1], sps[2]
	userKey, err := userSIO.Extract("user:alice")
	if err != nil {
		t.Fatal(err)
	}
	daKey, err := agencySIO.Extract("da:auditor")
	if err != nil {
		t.Fatal(err)
	}
	serverKey, err := serverSIO.Extract("cs:server-0")
	if err != nil {
		t.Fatal(err)
	}
	user := NewUser(userSIO.Params(), userKey, mrand.New(mrand.NewSource(seed+1)))
	agency := NewAgency(agencySIO.Params(), daKey, mrand.New(mrand.NewSource(seed+2)))
	srv, err := NewServer(serverSIO.Params(), serverKey, ServerConfig{Random: mrand.New(mrand.NewSource(seed + 3))})
	if err != nil {
		t.Fatal(err)
	}
	return user, agency, netsim.NewLoopback(srv, netsim.LinkConfig{}), agencySIO.Params().G1().Counters()
}

// TestStorageAuditOpCounts pins a batched 32-of-64 storage audit at SS512
// in its steady state: one aggregate equation over the 32 served
// signatures — 32 U's and one grouped Q_ID in the sum, one replayed
// pairing — and no membership check of any U. The DA checks no warrant
// here: the server does.
func TestStorageAuditOpCounts(t *testing.T) {
	const seed = 2
	user, agency, client, counters := newOpCountSystem(t, seed)
	req, err := user.PrepareStore(workload.NewGenerator(seed).GenDataset(user.ID(), 64, 32), "cs:server-0", agency.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := user.Store(client, req); err != nil {
		t.Fatal(err)
	}
	warrant, err := user.Delegate(agency.ID(), "", time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	var got ops.Snapshot
	for i := int64(0); i < 3; i++ { // the first audit warms Q_ID and the verifier precomputation
		before := counters.Snapshot()
		report, err := agency.AuditStorage(client, user.ID(), warrant, AuditConfig{
			DatasetSize: 64, SampleSize: 32, Rounds: 1, Rng: mrand.New(mrand.NewSource(seed + 10 + i)),
			BatchSignatures: true, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !report.Valid() || report.EffectiveSampleSize != 32 {
			t.Fatalf("honest storage audit: valid=%v, effective sample %d", report.Valid(), report.EffectiveSampleSize)
		}
		got = counters.Snapshot().Sub(before)
	}
	if want := (ops.Snapshot{PointMuls: 33, MillerLoops: 1, FinalExps: 1, PrecompHits: 1}); got != want {
		t.Fatalf("steady-state storage audit asked for %+v, want %+v", got, want)
	}
}

// TestStoreOpCounts pins the write path beside the audit: what signing and
// checking one 32-block upload ask of the crypto layers once the signer's
// tables and the server's verifier precomputation exist.
//
// The user forms no V and pairs with nobody: per block one multiplication
// of Q_ID, from its table, and per verifier a power of the cached
// ê(sk_ID, Q_v). The server checks the upload with one aggregate equation:
// 32 U's and one grouped Q_ID in the sum, 32 U's and the order-q ladder in
// the membership check, one replayed pairing. A tampered upload pays that
// and then the per-block pass — a membership ladder, a multiplication and a
// pairing a block — which names the first bad position.
func TestStoreOpCounts(t *testing.T) {
	for _, pp := range []func() *pairing.Params{pairing.InsecureTest256, pairing.SS512} {
		f := newStoreFixture(t, pp)
		t.Run(f.userSP.Pairing().Name(), func(t *testing.T) {
			userOps, serverOps := f.userSP.G1().Counters(), f.serverSP.G1().Counters()

			before := userOps.Snapshot()
			req := f.prepare(t, 21)
			if got, want := userOps.Snapshot().Sub(before), (ops.Snapshot{PointMuls: 32}); got != want {
				t.Fatalf("signing 32 blocks for two verifiers asked for %+v, want %+v", got, want)
			}

			handle := func(req *wire.StoreRequest) (*wire.StoreResponse, ops.Snapshot) {
				before := serverOps.Snapshot()
				resp := f.srv.Handle(req).(*wire.StoreResponse)
				return resp, serverOps.Snapshot().Sub(before)
			}
			if resp, _ := handle(f.req); !resp.OK { // first upload: Q_ID hashed, verifier key precomputed
				t.Fatalf("honest upload refused: %s", resp.Error)
			}
			resp, got := handle(req)
			if want := (ops.Snapshot{PointMuls: 66, MillerLoops: 1, FinalExps: 1, PrecompHits: 1}); !resp.OK || got != want {
				t.Fatalf("honest upload: OK=%v (%s), asked for %+v, want %+v", resp.OK, resp.Error, got, want)
			}

			bad := cloneStoreReq(f.prepare(t, 22))
			bad.Blocks[17][0] ^= 1
			bad.Blocks[29][0] ^= 1
			resp, got = handle(bad)
			if want := "block 17 signature invalid: dvs: signature verification failed"; resp.OK || resp.Error != want {
				t.Fatalf("tampered upload answered {OK: %v, Error: %q}, want %q", resp.OK, resp.Error, want)
			}
			if want := (ops.Snapshot{PointMuls: 66 + 64, MillerLoops: 33, FinalExps: 33, PrecompHits: 33}); got != want {
				t.Fatalf("tampered upload asked for %+v, want %+v", got, want)
			}
		})
	}
}
