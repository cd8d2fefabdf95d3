package core

import (
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"
	"time"

	"seccloud/internal/curve"
	"seccloud/internal/funcs"
	"seccloud/internal/ibc"
	"seccloud/internal/netsim"
	"seccloud/internal/pairing"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

// auditFixture is a seeded user, DA and verifying server holding an
// 8-block dataset and a one-block-a-task sum job over it. The DA reaches
// the server through a handler that lets a case rewrite the block
// signatures the server serves, so each forgery happens at audit time to
// data that passed the store check honestly.
type auditFixture struct {
	sp      *ibc.SystemParams
	user    *User
	agency  *Agency
	client  netsim.Client
	tamper  func(sigs map[uint64]*wire.BlockSig)
	job     *JobDelegation
	warrant wire.Warrant
}

const auditFixtureBlocks = 8

func newAuditFixture(t testing.TB, pp func() *pairing.Params) *auditFixture {
	t.Helper()
	const seed = 43
	sio, err := ibc.Setup(pp(), mrand.New(mrand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	sp := sio.Params()
	keys := map[string]*ibc.PrivateKey{}
	for _, id := range []string{"user:alice", "da:auditor", "cs:server-0"} {
		if keys[id], err = sio.Extract(id); err != nil {
			t.Fatal(err)
		}
	}
	f := &auditFixture{
		sp:     sp,
		user:   NewUser(sp, keys["user:alice"], mrand.New(mrand.NewSource(seed+1))),
		agency: NewAgency(sp, keys["da:auditor"], mrand.New(mrand.NewSource(seed+2))),
	}
	srv, err := NewServer(sp, keys["cs:server-0"], ServerConfig{
		VerifyOnStore: true, Random: mrand.New(mrand.NewSource(seed + 3)),
	})
	if err != nil {
		t.Fatal(err)
	}
	f.client = netsim.NewLoopback(netsim.HandlerFunc(func(m wire.Message) wire.Message {
		resp := srv.Handle(m)
		if f.tamper == nil {
			return resp
		}
		// The response shares its signatures' Σ maps with the server's
		// store, so a case edits copies.
		served := map[uint64]*wire.BlockSig{}
		serve := func(pos uint64, sig *wire.BlockSig) {
			*sig = cloneBlockSig(*sig)
			served[pos] = sig
		}
		switch r := resp.(type) {
		case *wire.ChallengeResponse:
			for i := range r.Items {
				serve(r.Items[i].Task.Positions[0], &r.Items[i].Sigs[0])
			}
		case *wire.StorageAuditResponse:
			for i, pos := range m.(*wire.StorageAuditRequest).Positions {
				serve(pos, &r.Sigs[i])
			}
		}
		f.tamper(served)
		return resp
	}), netsim.LinkConfig{})

	ds := workload.NewGenerator(seed).GenDataset(f.user.ID(), auditFixtureBlocks, 4)
	req, err := f.user.PrepareStore(ds, srv.ID(), f.agency.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.user.Store(f.client, req); err != nil {
		t.Fatal(err)
	}
	job := workload.UniformJob(f.user.ID(), funcs.Spec{Name: "sum"}, auditFixtureBlocks)
	resp, err := f.user.SubmitJob(f.client, "job-1", job)
	if err != nil {
		t.Fatal(err)
	}
	expiry := time.Now().Add(time.Hour)
	jobWarrant, err := f.user.Delegate(f.agency.ID(), "job-1", expiry)
	if err != nil {
		t.Fatal(err)
	}
	f.job = &JobDelegation{
		UserID: f.user.ID(), ServerID: resp.ServerID, JobID: "job-1",
		Tasks: TasksToWire(job), Results: resp.Results,
		Root: resp.Root, RootSig: resp.RootSig, Warrant: jobWarrant,
	}
	if f.warrant, err = f.user.Delegate(f.agency.ID(), "", expiry); err != nil {
		t.Fatal(err)
	}
	return f
}

// audit runs a full-coverage job or storage audit through the tampering
// handler and returns its failures.
func (f *auditFixture) audit(t *testing.T, storage, batched bool) []AuditFailure {
	t.Helper()
	var report *AuditReport
	var err error
	if storage {
		report, err = f.agency.AuditStorage(f.client, f.user.ID(), f.warrant, AuditConfig{
			DatasetSize: auditFixtureBlocks, SampleSize: auditFixtureBlocks,
			Rng: mrand.New(mrand.NewSource(1)), BatchSignatures: batched,
		})
	} else {
		report, err = f.agency.AuditJob(f.client, f.job, AuditConfig{
			SampleSize: auditFixtureBlocks, Rng: mrand.New(mrand.NewSource(1)), BatchSignatures: batched,
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	if report.EffectiveSampleSize != auditFixtureBlocks {
		t.Fatalf("effective sample %d, want %d", report.EffectiveSampleSize, auditFixtureBlocks)
	}
	return report.Failures
}

// TestAuditRefusesAdversarialSignatures points Zhang et al.'s catalogue
// ("On the Security of a Remote Cloud Storage Integrity Checking
// Protocol") at the DA: a server that stored every block honestly serves
// each forgery of TestStoreRefusesAdversarialUploads at audit time, in a
// job audit and a storage audit, with the aggregate check on and off.
// Each must be accused at the forged position, and nowhere else, with the
// detail the parent commit 7364a81 gives, where the DA's aggregate still
// ran a batched membership check of every U; the strings below were
// recorded there on both parameter sets. The one row that commit did not
// always accuse is Σ·(−1) under the aggregate: an even δ annihilated the
// −1 (both SS512 rows here), which odd δ rule out.
func TestAuditRefusesAdversarialSignatures(t *testing.T) {
	for _, pp := range []func() *pairing.Params{pairing.InsecureTest256, pairing.SS512} {
		f := newAuditFixture(t, pp)
		g, pr := f.sp.G1(), f.sp.Pairing()
		editU := func(sig *wire.BlockSig, edit func(u *curve.Point) *curve.Point) {
			u, err := g.UnmarshalPoint(sig.U)
			if err != nil {
				t.Fatal(err)
			}
			sig.U = g.MarshalPoint(edit(u))
		}
		mulSigma := func(sig *wire.BlockSig, x *pairing.GT) {
			sigma, err := pr.UnmarshalGTUnchecked(sig.Sigma[f.agency.ID()])
			if err != nil {
				t.Fatal(err)
			}
			sig.Sigma[f.agency.ID()] = sigma.Mul(x).Marshal()
		}
		raw := make([]byte, pr.GTLen()) // −1 + 0i: norm 1, order 2, not in GT
		new(big.Int).Sub(g.P(), big.NewInt(1)).FillBytes(raw[:pr.GTLen()/2])
		minusOne, err := pr.UnmarshalGTUnchecked(raw)
		if err != nil {
			t.Fatal(err)
		}
		cofactor := cofactorPoint(t, g)
		twoTorsion := &curve.Point{X: big.NewInt(0), Y: big.NewInt(0)}

		cases := []struct {
			name  string
			forge func(sigs map[uint64]*wire.BlockSig)
			want  map[uint64]string
		}{
			{name: "U plus the 2-torsion point",
				forge: func(sigs map[uint64]*wire.BlockSig) {
					editU(sigs[5], func(u *curve.Point) *curve.Point { return g.Add(u, twoTorsion) })
				},
				want: map[uint64]string{5: "dvs: U outside G1: dvs: signature verification failed"}},
			{name: "U plus a cofactor point",
				forge: func(sigs map[uint64]*wire.BlockSig) {
					editU(sigs[5], func(u *curve.Point) *curve.Point { return g.Add(u, cofactor) })
				},
				want: map[uint64]string{5: "dvs: U outside G1: dvs: signature verification failed"}},
			{name: "U swapped between blocks",
				forge: func(sigs map[uint64]*wire.BlockSig) { sigs[2].U, sigs[5].U = sigs[5].U, sigs[2].U },
				want: map[uint64]string{
					2: "dvs: signature verification failed",
					5: "dvs: signature verification failed",
				}},
			{name: "Σ times −1",
				forge: func(sigs map[uint64]*wire.BlockSig) { mulSigma(sigs[5], minusOne) },
				want:  map[uint64]string{5: "dvs: signature verification failed"}},
			{name: "Σ times a GT element",
				forge: func(sigs map[uint64]*wire.BlockSig) {
					mulSigma(sigs[5], pr.Pair(g.Generator(), g.Generator()).Exp(big.NewInt(0xc0ffee)))
				},
				want: map[uint64]string{5: "dvs: signature verification failed"}},
		}
		t.Run(pr.Name(), func(t *testing.T) {
			for _, tc := range cases {
				for _, kind := range []string{"job", "storage"} {
					for _, batched := range []bool{false, true} {
						f.tamper = tc.forge
						fails := f.audit(t, kind == "storage", batched)
						f.tamper = nil
						got := map[uint64]string{}
						for _, fl := range fails {
							if fl.Check != CheckSignature {
								t.Errorf("%s, %s audit, batched=%v: %s failure at %d: %s", tc.name, kind, batched, fl.Check, fl.Index, fl.Detail)
							}
							got[fl.Index] = fl.Detail
						}
						if len(got) != len(tc.want) || len(fails) != len(tc.want) {
							t.Errorf("%s, %s audit, batched=%v: accused %q, want %q", tc.name, kind, batched, got, tc.want)
							continue
						}
						for idx, want := range tc.want {
							if kind == "job" && !batched {
								// The job audit's per-item path names the block.
								want = fmt.Sprintf("block %d: %s", idx, want)
							}
							if got[idx] != want {
								t.Errorf("%s, %s audit, batched=%v: index %d detail %q, want %q", tc.name, kind, batched, idx, got[idx], want)
							}
						}
					}
				}
			}
			if fails := f.audit(t, false, true); len(fails) != 0 {
				t.Fatalf("untampered job audit accused %+v", fails)
			}
		})
	}
}
