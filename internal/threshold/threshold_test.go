package threshold

import (
	"bytes"
	"crypto/rand"
	"testing"

	"seccloud/internal/ibc"
	"seccloud/internal/pairing"
	"seccloud/internal/wire"
)

func testDeal(t *testing.T, tq, n int) (*ibc.SystemParams, *ibc.PrivateKey, *Deal) {
	t.Helper()
	sio, err := ibc.Setup(pairing.InsecureTest256(), rand.Reader)
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	sp := sio.Params()
	key, err := sio.Extract("da:threshold-unit")
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	deal, err := SplitVerifierKey(sp, key, tq, n, rand.Reader)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	return sp, key, deal
}

func TestSplitValidatesShape(t *testing.T) {
	sio, err := ibc.Setup(pairing.InsecureTest256(), rand.Reader)
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	key, err := sio.Extract("da:shape")
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	for _, tc := range []struct{ t, n int }{{0, 3}, {4, 3}, {-1, 5}, {1, 0}} {
		if _, err := SplitVerifierKey(sio.Params(), key, tc.t, tc.n, rand.Reader); err == nil {
			t.Errorf("t=%d n=%d: want error", tc.t, tc.n)
		}
	}
}

func TestSharesMatchCommitments(t *testing.T) {
	_, _, deal := testDeal(t, 3, 5)
	for _, s := range deal.Shares {
		if err := deal.Public.VerifyShare(s); err != nil {
			t.Errorf("share %d: %v", s.Index, err)
		}
	}
	// A swapped share must fail its commitment check.
	bogus := &Share{Index: 1, SK: deal.Shares[1].SK}
	if err := deal.Public.VerifyShare(bogus); err == nil {
		t.Errorf("share with wrong index verified")
	}
}

func TestCombineEqualsDirectPairing(t *testing.T) {
	sp, key, deal := testDeal(t, 3, 5)
	base, _, err := sp.G1().RandPoint(rand.Reader)
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	want := sp.Pairing().Pair(base, key.SK)
	partials := make([]*Partial, 0, 3)
	for _, s := range deal.Shares[:3] {
		p, err := NewProver(sp, s).Partial(base, rand.Reader)
		if err != nil {
			t.Fatalf("partial %d: %v", s.Index, err)
		}
		if err := deal.Public.VerifyPartial(base, p); err != nil {
			t.Fatalf("verify partial %d: %v", s.Index, err)
		}
		partials = append(partials, p)
	}
	got, err := deal.Public.Combine(partials)
	if err != nil {
		t.Fatalf("combine: %v", err)
	}
	if !got.Equal(want) {
		t.Fatalf("combined value differs from ê(base, sk_DA)")
	}
}

// TestCombineSubsetAndOrderIndependent is the determinism lock: the
// combined value must be byte-identical for EVERY quorum of t auditors
// and every arrival order — the Lagrange interpolation of a degree t−1
// polynomial at 0 is unique, and GT marshaling is canonical.
func TestCombineSubsetAndOrderIndependent(t *testing.T) {
	sp, key, deal := testDeal(t, 3, 5)
	base, _, err := sp.G1().RandPoint(rand.Reader)
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	want := sp.Pairing().Pair(base, key.SK).Marshal()
	all := make([]*Partial, 5)
	for i, s := range deal.Shares {
		p, err := NewProver(sp, s).Partial(base, rand.Reader)
		if err != nil {
			t.Fatalf("partial %d: %v", s.Index, err)
		}
		all[i] = p
	}
	quorums := [][]int{
		{0, 1, 2}, {0, 1, 3}, {0, 1, 4}, {0, 2, 3}, {0, 2, 4},
		{0, 3, 4}, {1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4},
		{2, 1, 0}, {4, 0, 2}, // arrival order must not matter
		{0, 1, 2, 3}, {0, 1, 2, 3, 4}, // oversized quorums interpolate the same polynomial
	}
	for _, q := range quorums {
		ps := make([]*Partial, len(q))
		for i, idx := range q {
			ps[i] = all[idx]
		}
		got, err := deal.Public.Combine(ps)
		if err != nil {
			t.Fatalf("combine %v: %v", q, err)
		}
		if !bytes.Equal(got.Marshal(), want) {
			t.Fatalf("quorum %v produced different combined bytes", q)
		}
	}
}

func TestCombineRejectsBelowQuorum(t *testing.T) {
	sp, _, deal := testDeal(t, 3, 5)
	base, _, err := sp.G1().RandPoint(rand.Reader)
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	ps := make([]*Partial, 2)
	for i, s := range deal.Shares[:2] {
		if ps[i], err = NewProver(sp, s).Partial(base, rand.Reader); err != nil {
			t.Fatalf("partial: %v", err)
		}
	}
	if _, err := deal.Public.Combine(ps); err == nil {
		t.Fatalf("combined t−1 partials")
	}
	// Duplicate indices cannot substitute for a quorum.
	if _, err := deal.Public.Combine([]*Partial{ps[0], ps[0], ps[1]}); err == nil {
		t.Fatalf("combined duplicated partials")
	}
}

func TestVerifyPartialCatchesTampering(t *testing.T) {
	sp, _, deal := testDeal(t, 2, 3)
	base, _, err := sp.G1().RandPoint(rand.Reader)
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	p, err := NewProver(sp, deal.Shares[0]).Partial(base, rand.Reader)
	if err != nil {
		t.Fatalf("partial: %v", err)
	}
	g := sp.G1()
	tampered := []*Partial{
		{Index: p.Index, T: p.T.Mul(sp.PairWithGenerator(g.Generator())), A1: p.A1, A2: p.A2, Z: p.Z},
		{Index: p.Index, T: p.T, A1: p.A1.Mul(p.A1), A2: p.A2, Z: p.Z},
		{Index: p.Index, T: p.T, A1: p.A1, A2: p.A2, Z: g.Add(p.Z, g.Generator())},
		{Index: deal.Shares[1].Index, T: p.T, A1: p.A1, A2: p.A2, Z: p.Z}, // claimed wrong share
	}
	for i, bad := range tampered {
		if err := deal.Public.VerifyPartial(base, bad); err == nil {
			t.Errorf("tampered partial %d verified", i)
		}
	}
	// A proof is bound to its base: replaying it for a different base fails.
	base2, _, err := g.RandPoint(rand.Reader)
	if err != nil {
		t.Fatalf("base2: %v", err)
	}
	if err := deal.Public.VerifyPartial(base2, p); err == nil {
		t.Errorf("partial verified against the wrong base")
	}
}

func TestAuditorShareHandle(t *testing.T) {
	sp, _, deal := testDeal(t, 2, 3)
	g := sp.G1()
	node := NewAuditorShare(sp, deal.Shares[0], rand.Reader)
	base, _, err := g.RandPoint(rand.Reader)
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	req := &wire.PartialRequest{VerifierID: deal.Public.VerifierID, Bases: [][]byte{g.MarshalPoint(base)}}
	resp, ok := node.Handle(req).(*wire.PartialResponse)
	if !ok || resp.Error != "" {
		t.Fatalf("handle: %+v", resp)
	}
	if resp.Index != 1 || len(resp.Partials) != 1 {
		t.Fatalf("response shape: %+v", resp)
	}
	p, err := DecodePartialProof(sp, resp.Index, &resp.Partials[0])
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := deal.Public.VerifyPartial(base, p); err != nil {
		t.Fatalf("verify: %v", err)
	}

	// Byzantine mode: still answers, but the partial fails verification.
	node.SetByzantine(true)
	resp, ok = node.Handle(req).(*wire.PartialResponse)
	if !ok || resp.Error != "" {
		t.Fatalf("byzantine handle: %+v", resp)
	}
	p, err = DecodePartialProof(sp, resp.Index, &resp.Partials[0])
	if err != nil {
		t.Fatalf("byzantine decode: %v", err)
	}
	if err := deal.Public.VerifyPartial(base, p); err == nil {
		t.Fatalf("byzantine partial verified")
	}

	// Structural garbage is refused, not answered.
	bad := &wire.PartialRequest{Bases: [][]byte{{0x01, 0x02}}}
	if resp, ok := node.Handle(bad).(*wire.PartialResponse); !ok || resp.Error == "" {
		t.Fatalf("malformed base accepted: %+v", resp)
	}
	if _, ok := node.Handle(&wire.StoreRequest{}).(*wire.ErrorResponse); !ok {
		t.Fatalf("unexpected kind not refused")
	}
}
