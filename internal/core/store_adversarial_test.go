package core

import (
	"errors"
	"math/big"
	mrand "math/rand"
	"testing"
	"time"

	"seccloud/internal/curve"
	"seccloud/internal/dvs"
	"seccloud/internal/ibc"
	"seccloud/internal/pairing"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

// storeFixture is a seeded user, DA identity and durable verifying server
// with one honest 32-block upload prepared and not yet sent. Each party
// holds its own copy of the parameters, as its own process would, which
// also keeps their operation counters apart.
type storeFixture struct {
	userSP, serverSP *ibc.SystemParams
	user             *User
	srv              *Server
	daID             string
	req              *wire.StoreRequest
}

func newStoreFixture(t testing.TB, pp func() *pairing.Params) *storeFixture {
	t.Helper()
	const seed = 20
	var sios [2]*ibc.SIO
	for i := range sios {
		sio, err := ibc.Setup(pp(), mrand.New(mrand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		sios[i] = sio
	}
	userKey, err := sios[0].Extract("user:alice")
	if err != nil {
		t.Fatal(err)
	}
	serverKey, err := sios[1].Extract("cs:server-0")
	if err != nil {
		t.Fatal(err)
	}
	f := &storeFixture{
		userSP: sios[0].Params(), serverSP: sios[1].Params(),
		user: NewUser(sios[0].Params(), userKey, mrand.New(mrand.NewSource(seed+1))),
		daID: "da:auditor",
	}
	f.srv, err = NewServer(f.serverSP, serverKey, ServerConfig{
		VerifyOnStore: true,
		Random:        mrand.New(mrand.NewSource(seed + 2)),
		Durability:    &DurabilityConfig{Dir: t.TempDir(), NoSync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.srv.Close() })
	f.req = f.prepare(t, seed)
	return f
}

// prepare signs a fresh 32-block dataset for the server and the DA.
func (f *storeFixture) prepare(t testing.TB, seed int64) *wire.StoreRequest {
	t.Helper()
	ds := workload.NewGenerator(seed).GenDataset(f.user.ID(), 32, 64)
	req, err := f.user.PrepareStore(ds, f.srv.ID(), f.daID)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// batchItems decodes every block signature of req for the server.
func (f *storeFixture) batchItems(t testing.TB, req *wire.StoreRequest) []dvs.BatchItem {
	t.Helper()
	items := make([]dvs.BatchItem, len(req.Blocks))
	for i := range items {
		d, err := DecodeBlockSig(f.serverSP, &req.Sigs[i], f.srv.ID())
		if err != nil {
			t.Fatal(err)
		}
		items[i] = dvs.NewBatchItem(BlockMessage(req.Positions[i], req.Blocks[i]), d)
	}
	return items
}

// cloneStoreReq copies a request deeply enough for a case to edit any
// block, signature point or Σ without touching the original.
func cloneStoreReq(req *wire.StoreRequest) *wire.StoreRequest {
	out := &wire.StoreRequest{
		UserID:    req.UserID,
		Positions: append([]uint64(nil), req.Positions...),
		Blocks:    make([][]byte, len(req.Blocks)),
		Sigs:      make([]wire.BlockSig, len(req.Sigs)),
	}
	for i := range req.Blocks {
		out.Blocks[i] = append([]byte(nil), req.Blocks[i]...)
		out.Sigs[i] = req.Sigs[i].Clone()
	}
	return out
}

// cofactorPoint returns a point of E(Fp) outside G1 whose order divides
// the cofactor and is not small: q times the first curve point with x ≥ 2
// that q does not kill.
func cofactorPoint(t testing.TB, g *curve.Group) *curve.Point {
	t.Helper()
	p := g.P()
	for x := int64(2); x < 1000; x++ {
		xb := big.NewInt(x)
		rhs := new(big.Int).Mul(xb, xb)
		rhs.Mul(rhs, xb).Add(rhs, xb).Mod(rhs, p)
		y, ok := g.FieldCtx().Sqrt(rhs)
		if !ok {
			continue
		}
		pt := g.ScalarMult(&curve.Point{X: xb, Y: y}, g.Q())
		// A component of small order ℓ survives the randomized checks with
		// probability 1/ℓ (DESIGN.md, "Store-time verification"); the table
		// wants a component they refuse as surely as the strict check does.
		if !pt.Inf && !g.ScalarMult(pt, big.NewInt(1<<20)).Inf && !g.InSubgroup(pt) {
			return pt
		}
	}
	t.Fatal("no cofactor point found")
	return nil
}

// mulSigma replaces the server's Σ of block i by Σ·x.
func mulSigma(t testing.TB, pp *pairing.Params, req *wire.StoreRequest, serverID string, i int, x *pairing.GT) {
	t.Helper()
	sigma, err := pp.UnmarshalGTUnchecked(req.Sigs[i].Sigma[serverID])
	if err != nil {
		t.Fatal(err)
	}
	req.Sigs[i].Sigma[serverID] = sigma.Mul(x).Marshal()
}

// TestStoreRefusesAdversarialUploads is the catalogue of Zhang et al. ("On
// the Security of a Remote Cloud Storage Integrity Checking Protocol")
// pointed at the batched store check: in an otherwise honest 32-block
// upload, each forgery must be refused with nothing logged or stored, and
// with the response the per-block check of the parent commit (ff43b2d)
// gives for the same request — the strings below were recorded there.
func TestStoreRefusesAdversarialUploads(t *testing.T) {
	f := newStoreFixture(t, pairing.InsecureTest256)
	g, pp := f.serverSP.G1(), f.serverSP.Pairing()
	serverID := f.srv.ID()
	const invalid = " signature invalid: dvs: signature verification failed"

	cases := []struct {
		name  string
		forge func(t *testing.T, req *wire.StoreRequest)
		want  string
		plain bool // the plain eq. 8 aggregate accepts the forgery
	}{
		{name: "one bad block", want: "block 7" + invalid,
			forge: func(t *testing.T, req *wire.StoreRequest) { req.Blocks[7][0] ^= 1 }},
		{name: "signatures swapped between positions", want: "block 3" + invalid,
			forge: func(t *testing.T, req *wire.StoreRequest) { req.Sigs[3], req.Sigs[20] = req.Sigs[20], req.Sigs[3] }},
		{name: "cancelling pair in the plain aggregate", want: "block 5" + invalid, plain: true,
			forge: func(t *testing.T, req *wire.StoreRequest) {
				x := pp.Pair(g.Generator(), g.Generator()).Exp(big.NewInt(0xc0ffee))
				mulSigma(t, pp, req, serverID, 5, x)
				mulSigma(t, pp, req, serverID, 26, x.Inv())
			}},
		{name: "U with a cofactor-order component",
			want: "block 9 signature invalid: dvs: U outside G1: dvs: signature verification failed",
			forge: func(t *testing.T, req *wire.StoreRequest) {
				u, err := g.UnmarshalPoint(req.Sigs[9].U)
				if err != nil {
					t.Fatal(err)
				}
				req.Sigs[9].U = g.MarshalPoint(g.Add(u, cofactorPoint(t, g)))
			}},
		{name: "Σ outside GT", want: "block 11" + invalid,
			forge: func(t *testing.T, req *wire.StoreRequest) {
				raw := make([]byte, pp.GTLen())
				raw[pp.GTLen()/2-1], raw[pp.GTLen()-1] = 2, 3 // 2 + 3i: norm 13, not in GT
				x, err := pp.UnmarshalGTUnchecked(raw)
				if err != nil {
					t.Fatal(err)
				}
				if x.InSubgroup() {
					t.Fatal("2 + 3i lies in GT")
				}
				mulSigma(t, pp, req, serverID, 11, x)
			}},
		{name: "block signed for another verifier", want: "block 13" + invalid,
			forge: func(t *testing.T, req *wire.StoreRequest) {
				req.Sigs[13].Sigma[serverID] = req.Sigs[13].Sigma[f.daID]
			}},
		{name: "no Σ for this server",
			want: `block 13: core: block signature carries no Σ for verifier "cs:server-0"`,
			forge: func(t *testing.T, req *wire.StoreRequest) {
				delete(req.Sigs[13].Sigma, serverID)
			}},
		{name: "U off the curve",
			want: "block 31: core: decoding U: curve: decoded point off curve: curve: invalid point",
			forge: func(t *testing.T, req *wire.StoreRequest) {
				req.Sigs[31].U[len(req.Sigs[31].U)-1] ^= 1
			}},
		{name: "two bad blocks report the first", want: "block 2" + invalid,
			forge: func(t *testing.T, req *wire.StoreRequest) {
				req.Blocks[30][0] ^= 1
				req.Blocks[2][0] ^= 1
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := cloneStoreReq(f.req)
			tc.forge(t, req)
			if tc.plain {
				// The attack is real: eq. 8 without randomizers accepts it.
				if err := f.srv.scheme.BatchVerify(f.batchItems(t, req), f.srv.key); err != nil {
					t.Fatalf("plain aggregate refused the cancelling pair: %v", err)
				}
			}
			lsn := f.srv.log.LSN()
			resp, ok := f.srv.Handle(req).(*wire.StoreResponse)
			if !ok {
				t.Fatalf("response is not a StoreResponse")
			}
			if resp.OK || resp.Error != tc.want {
				t.Fatalf("response {OK: %v, Error: %q}, parent commit answers %q", resp.OK, resp.Error, tc.want)
			}
			if n := f.srv.StoredBlockCount(req.UserID); n != 0 {
				t.Fatalf("%d blocks stored from a refused upload", n)
			}
			if got := f.srv.log.LSN(); got != lsn {
				t.Fatalf("refused upload moved the log from LSN %d to %d", lsn, got)
			}
		})
	}

	// The request the forgeries were cut from is accepted whole.
	lsn := f.srv.log.LSN()
	if resp := f.srv.Handle(f.req).(*wire.StoreResponse); !resp.OK {
		t.Fatalf("honest upload refused: %s", resp.Error)
	}
	if n := f.srv.StoredBlockCount(f.req.UserID); n != 32 {
		t.Fatalf("%d blocks stored from the honest upload, want 32", n)
	}
	if got := f.srv.log.LSN(); got != lsn+1 {
		t.Fatalf("honest upload moved the log from LSN %d to %d, want one record", lsn, got)
	}
}

// TestStoreRefusesSignerMadeCofactorU is why the upload keeps its
// membership check when the audit dropped its own: the signer, and only
// the signer, can make a signature whose U carries a cofactor component
// and still verifies — U = r·Q_ID + R, with h hashed over those bytes and
// Σ_v = ê((r+h)·sk_ID, Q_v). The randomized aggregate accepts it, since
// the pairing never sees R; the server must not store it, so that every U
// it later serves to the DA lies in G1.
func TestStoreRefusesSignerMadeCofactorU(t *testing.T) {
	f := newStoreFixture(t, pairing.InsecureTest256)
	sp, key := f.serverSP, f.user.key
	g := sp.G1()
	req := cloneStoreReq(f.req)
	r := big.NewInt(0xbeef)
	u := g.Add(g.ScalarMult(sp.QID(key.ID), r), cofactorPoint(t, g))
	e := new(big.Int).Add(r, sp.H2(g.MarshalPoint(u), BlockMessage(req.Positions[9], req.Blocks[9])))
	v := g.ScalarMult(key.SK, e)
	req.Sigs[9].U = g.MarshalPoint(u)
	for id := range req.Sigs[9].Sigma {
		req.Sigs[9].Sigma[id] = sp.Pairing().Pair(v, sp.QID(id)).Marshal()
	}

	items := f.batchItems(t, req)
	if err := f.srv.scheme.BatchVerifyRandomized(items, f.srv.key, mrand.New(mrand.NewSource(1))); err != nil {
		t.Fatalf("aggregate refused a signer-made U with a cofactor component: %v", err)
	}
	resp := f.srv.Handle(req).(*wire.StoreResponse)
	if want := "block 9 signature invalid: dvs: U outside G1: dvs: signature verification failed"; resp.OK || resp.Error != want {
		t.Fatalf("upload answered {OK: %v, Error: %q}, want %q", resp.OK, resp.Error, want)
	}
	if n := f.srv.StoredBlockCount(req.UserID); n != 0 {
		t.Fatalf("%d blocks stored from a refused upload", n)
	}
}

// TestRawSignatureOffSubgroupRefused: a warrant and an update authorisation
// with a cofactor component added to either point of the raw signature are
// refused. Today DecodeIBSig refuses them before PublicVerify, which runs
// the same two membership ladders, is reached (ROADMAP item 1 keeps the
// duplicate until item 4); the strings pin who says no.
func TestRawSignatureOffSubgroupRefused(t *testing.T) {
	sys := newSystem(t, nil)
	sp := sys.sio.Params()
	g := sp.G1()
	scheme := dvs.NewScheme(sp)
	tamper := func(raw []byte) []byte {
		pt, err := g.UnmarshalPoint(raw)
		if err != nil {
			t.Fatal(err)
		}
		return g.MarshalPoint(g.Add(pt, cofactorPoint(t, g)))
	}
	warrant, err := sys.user.Delegate(sys.agency.ID(), "job-1", time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyWarrant(scheme, &warrant, "job-1", sys.agency.ID(), time.Now()); err != nil {
		t.Fatalf("honest warrant refused: %v", err)
	}
	sys.storeDataset(t, workload.NewGenerator(1).GenDataset(sys.user.ID(), 4, 32))
	for _, part := range []string{"U", "V"} {
		w := warrant
		upd := buildUpdate(t, sys, sys.servers[0].ID(), 1, 1, []byte("replacement"))
		if part == "U" {
			w.Sig.U, upd.Auth.U = tamper(w.Sig.U), tamper(upd.Auth.U)
		} else {
			w.Sig.V, upd.Auth.V = tamper(w.Sig.V), tamper(upd.Auth.V)
		}
		err := VerifyWarrant(scheme, &w, "job-1", sys.agency.ID(), time.Now())
		if want := "core: warrant signature malformed: core: signature component outside G1"; err == nil || err.Error() != want {
			t.Fatalf("warrant with %s outside G1: %v, want %q", part, err, want)
		}
		// PublicVerify refuses the same signature on its own.
		raw := &dvs.Signature{}
		if raw.U, err = g.UnmarshalPoint(w.Sig.U); err != nil {
			t.Fatal(err)
		}
		if raw.V, err = g.UnmarshalPoint(w.Sig.V); err != nil {
			t.Fatal(err)
		}
		if err := scheme.PublicVerify(w.UserID, w.Body(), raw); !errors.Is(err, dvs.ErrVerifyFailed) {
			t.Fatalf("PublicVerify with %s outside G1: %v", part, err)
		}
		resp := sys.servers[0].Handle(upd).(*wire.StoreResponse)
		if want := "update auth malformed: core: signature component outside G1"; resp.OK || resp.Error != want {
			t.Fatalf("update with auth %s outside G1 answered {OK: %v, Error: %q}, want %q", part, resp.OK, resp.Error, want)
		}
	}
}
