package dvs

import (
	"bytes"
	"fmt"
	"io"
	mrand "math/rand"
	"sync"
	"testing"

	"seccloud/internal/ibc"
	"seccloud/internal/pairing"
)

// The paper's signing, as SignDesignated ran it before Σ became a power of
// a cached GT base: two plain scalar multiplications for (U, V) and one
// cold two-variable pairing per verifier. It is the oracle the table-driven
// path is held to, byte for byte, on the same nonce stream.

// oracleSign is U = r·Q_ID, V = (r + H2(U‖m))·sk_ID with no table.
func oracleSign(s *Scheme, sk *ibc.PrivateKey, msg []byte, random io.Reader) (*Signature, error) {
	g := s.sp.G1()
	r, err := g.Scalars().Rand(random)
	if err != nil {
		return nil, err
	}
	u := g.ScalarMult(s.sp.QID(sk.ID), r)
	h := s.sp.H2(g.MarshalPoint(u), msg)
	return &Signature{U: u, V: g.ScalarMult(sk.SK, g.Scalars().Add(r, h))}, nil
}

// oracleDesignate is Σ = ê(V, Q_verifier), the paper's designation.
func oracleDesignate(s *Scheme, signerID string, sig *Signature, verifierID string) *Designated {
	return &Designated{
		SignerID:   signerID,
		VerifierID: verifierID,
		U:          s.sp.G1().Copy(sig.U),
		Sigma:      s.sp.Pairing().Pair(sig.V, s.sp.QID(verifierID)),
	}
}

// oracleMismatch signs msg for the verifiers twice from one seed — the
// production path and the oracle — and compares every encoded byte.
func oracleMismatch(s *Scheme, sk *ibc.PrivateKey, seed int64, msg []byte, verifierIDs []string) error {
	g := s.sp.G1()
	got, err := s.SignDesignated(sk, msg, mrand.New(mrand.NewSource(seed)), verifierIDs...)
	if err != nil {
		return fmt.Errorf("SignDesignated: %w", err)
	}
	raw, err := s.Sign(sk, msg, mrand.New(mrand.NewSource(seed)))
	if err != nil {
		return fmt.Errorf("Sign: %w", err)
	}
	want, err := oracleSign(s, sk, msg, mrand.New(mrand.NewSource(seed)))
	if err != nil {
		return err
	}
	if !bytes.Equal(g.MarshalPoint(raw.U), g.MarshalPoint(want.U)) || !bytes.Equal(g.MarshalPoint(raw.V), g.MarshalPoint(want.V)) {
		return fmt.Errorf("seed %d: Sign differs from the oracle's (U, V)", seed)
	}
	if len(got) != len(verifierIDs) {
		return fmt.Errorf("seed %d: %d designated signatures for %d verifiers", seed, len(got), len(verifierIDs))
	}
	for i, vid := range verifierIDs {
		w := oracleDesignate(s, sk.ID, want, vid)
		if got[i].SignerID != w.SignerID || got[i].VerifierID != w.VerifierID {
			return fmt.Errorf("seed %d verifier %q: identities (%q, %q), want (%q, %q)",
				seed, vid, got[i].SignerID, got[i].VerifierID, w.SignerID, w.VerifierID)
		}
		if !bytes.Equal(g.MarshalPoint(got[i].U), g.MarshalPoint(w.U)) {
			return fmt.Errorf("seed %d verifier %q: U differs from the oracle's", seed, vid)
		}
		if !bytes.Equal(got[i].Sigma.Marshal(), w.Sigma.Marshal()) {
			return fmt.Errorf("seed %d verifier %q: Σ differs from ê(V, Q_v)", seed, vid)
		}
	}
	return nil
}

func checkAgainstOracle(t testing.TB, s *Scheme, sk *ibc.PrivateKey, seed int64, msg []byte, verifierIDs []string) {
	t.Helper()
	if err := oracleMismatch(s, sk, seed, msg, verifierIDs); err != nil {
		t.Fatal(err)
	}
}

var oracleVerifiers = []string{"cs:server-1", "da:auditor", "da:second"}

func TestSignDesignatedMatchesOracle(t *testing.T) {
	for _, pp := range []*pairing.Params{pairing.InsecureTest256(), pairing.SS512()} {
		t.Run(pp.Name(), func(t *testing.T) {
			rng := mrand.New(mrand.NewSource(20))
			sio, err := ibc.Setup(pp, rng)
			if err != nil {
				t.Fatal(err)
			}
			s := NewScheme(sio.Params())
			rounds := 24
			if pp.Name() == "SS512" {
				rounds = 6
			}
			for i := 0; i < rounds; i++ {
				sk, err := sio.Extract(fmt.Sprintf("user:%d", i%3))
				if err != nil {
					t.Fatal(err)
				}
				msg := make([]byte, rng.Intn(300))
				rng.Read(msg)
				checkAgainstOracle(t, s, sk, rng.Int63(), msg, oracleVerifiers[:1+i%3])
			}
		})
	}
}

// TestSignerTablesPinnedToKey re-issues a signer's identity under another
// master secret: the second key must get its own tables and GT bases, or
// its signatures would carry the first key's secret.
func TestSignerTablesPinnedToKey(t *testing.T) {
	for _, pp := range []*pairing.Params{pairing.InsecureTest256(), pairing.SS512()} {
		t.Run(pp.Name(), func(t *testing.T) {
			sioOld, err := ibc.Setup(pp, mrand.New(mrand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			sioNew, err := ibc.Setup(pp, mrand.New(mrand.NewSource(2)))
			if err != nil {
				t.Fatal(err)
			}
			oldKey, _ := sioOld.Extract("user:alice")
			newKey, _ := sioNew.Extract("user:alice")
			s := NewScheme(sioNew.Params())
			msg := []byte("re-issued")
			checkAgainstOracle(t, s, oldKey, 3, msg, oracleVerifiers[:2])
			old, ok := s.signers.lookup(oldKey)
			if !ok {
				t.Fatal("first key's tables were not cached")
			}
			if _, ok := s.signers.lookup(newKey); ok {
				t.Fatal("first key's tables returned for the re-issued key")
			}
			checkAgainstOracle(t, s, newKey, 3, msg, oracleVerifiers[:2])
			cur, ok := s.signers.lookup(newKey)
			if !ok || cur == old {
				t.Fatal("re-issued key signs from the first key's tables")
			}
			// Under the new master secret the new key's signatures verify
			// and the old key's do not.
			da, _ := sioNew.Extract(oracleVerifiers[1])
			for _, c := range []struct {
				key  *ibc.PrivateKey
				want bool
			}{{newKey, true}, {oldKey, false}} {
				ds, err := s.SignDesignated(c.key, msg, mrand.New(mrand.NewSource(4)), da.ID)
				if err != nil {
					t.Fatal(err)
				}
				if got := s.Verify(ds[0], msg, da) == nil; got != c.want {
					t.Fatalf("signature under re-issue=%v verifies=%v", c.want, got)
				}
			}
		})
	}
}

// TestDesignationBasesBounded: a key that designates to ever new verifiers
// does not grow its base map without bound, and stays correct across the
// reset.
func TestDesignationBasesBounded(t *testing.T) {
	f := newFixture(t)
	msg := []byte("many verifiers")
	for i := 0; i < 3*DefaultVerifierCacheSize; i++ {
		checkAgainstOracle(t, f.scheme, f.user, int64(i), msg, []string{fmt.Sprintf("da:%d", i)})
	}
	pc, ok := f.scheme.signers.lookup(f.user)
	if !ok {
		t.Fatal("signer tables not cached")
	}
	if n := len(pc.bases); n > DefaultVerifierCacheSize {
		t.Fatalf("%d designation bases cached, bound is %d", n, DefaultVerifierCacheSize)
	}
}

// TestSignConcurrently signs from several goroutines through one Scheme
// with two keys at once, from cold caches: the signer LRU and each key's
// base map are shared state (run under -race).
func TestSignConcurrently(t *testing.T) {
	f := newFixture(t)
	keys := []*ibc.PrivateKey{f.user, f.cs}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("worker %d", w))
			for i := 0; i < 6; i++ {
				if err := oracleMismatch(f.scheme, keys[(w+i)%2], int64(100*w+i), msg, oracleVerifiers[:1+i%3]); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
}

func FuzzSignDesignated(f *testing.F) {
	f.Add(int64(1), []byte("block"), uint8(2))
	f.Add(int64(-7), []byte{}, uint8(0))
	f.Add(int64(1<<40), bytes.Repeat([]byte{0xff}, 64), uint8(5))
	sio, err := ibc.Setup(pairing.InsecureTest256(), mrand.New(mrand.NewSource(20)))
	if err != nil {
		f.Fatal(err)
	}
	s := NewScheme(sio.Params())
	sk, err := sio.Extract("user:fuzz")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed int64, msg []byte, verifiers uint8) {
		checkAgainstOracle(t, s, sk, seed, msg, oracleVerifiers[:int(verifiers)%(len(oracleVerifiers)+1)])
	})
}
