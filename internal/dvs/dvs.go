// Package dvs implements SecCloud's identity-based signature with
// designated verification (§V-B) and its batch/aggregate verification
// (§VI) — the paper's core cryptographic contribution.
//
// Signing (the underlying Cha–Cheon-style IBS):
//
//	r ←$ Zq*,  U = r·Q_ID,  h = H2(U ‖ m),  V = (r + h)·sk_ID.
//
// Designation: instead of revealing V (which anyone could verify against
// Ppub), the signer publishes Σ = ê(V, Q_ver) for each designated verifier
// — computed as ê(sk_ID, Q_ver)^(r+h), a power of an element the signer
// caches per verifier, without forming V or pairing (SignDesignated).
// Only a holder of sk_ver can check (paper eq. 5 / 7):
//
//	Σ ?= ê(U + h·Q_ID, sk_ver),
//
// and — crucially for the privacy-cheating discouragement property — any
// designated verifier can *simulate* valid-looking (U, Σ) transcripts with
// its own key, so a transcript convinces nobody else (Jakobsson-style DV).
//
// Batch verification (paper eq. 8–9): for signatures {σ_ij} from users
// {u_i} on messages {m_ij},
//
//	Σ_A = Π Σ_ij,  U_A = Σ (U_ij + h_ij·Q_IDi),  check ê(U_A, sk_ver) = Σ_A,
//
// reducing verification to a constant number of pairings.
package dvs

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"seccloud/internal/curve"
	"seccloud/internal/ibc"
	"seccloud/internal/pairing"
)

// ErrVerifyFailed reports a signature that did not verify.
var ErrVerifyFailed = errors.New("dvs: signature verification failed")

// ErrEmptyBatch reports a batch operation invoked with no items. An empty
// batch carries no evidence, so treating it as verified would let an
// all-shed or all-timed-out flush read as success; callers that consider
// emptiness legal must check before verifying.
var ErrEmptyBatch = errors.New("dvs: empty batch")

// Signature is the raw identity-based signature (U, V). V must be treated
// as secret when designated verification is in use: publishing V makes the
// signature publicly verifiable and voids the privacy property.
type Signature struct {
	U *curve.Point
	V *curve.Point
}

// Designated is a designated-verifier signature (U, Σ) bound to one
// verifier identity. It is what actually travels to the cloud.
type Designated struct {
	SignerID   string
	VerifierID string
	U          *curve.Point
	Sigma      *pairing.GT
}

// DefaultVerifierCacheSize bounds each of the scheme's per-key caches. A
// single-DA deployment uses one verifier entry; a t-of-n threshold agency
// uses one per share key, so the default leaves room for realistic quorum
// sizes while keeping the worst case (a churn of short-lived keys) from
// growing a cache without bound.
const DefaultVerifierCacheSize = 16

// Scheme binds the signature algorithms to a parameter set.
// Safe for concurrent use.
type Scheme struct {
	sp *ibc.SystemParams

	// verifiers memoizes the fixed-argument Miller-loop state for each
	// verifier secret key: every designated verification pairs against the
	// same sk_ver (eq. 5/7), so the expensive accumulator arithmetic is done
	// once per verifier and replayed per signature.
	verifiers keyCache[*pairing.Precomp]
	// signers memoizes what a signing key multiplies and exponentiates
	// every time it signs; see signerPC.
	signers keyCache[*signerPC]
}

// keyCache is a bounded LRU of precomputations derived from private keys,
// by identity. Each entry pins the key it was built from, so a re-issued
// key for the same identity invalidates the entry instead of signing or
// verifying with the old one. What is cached is key-dependent and lives
// only inside the process that holds the key, same as the key itself.
type keyCache[T any] struct {
	g       *curve.Group
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used; values are *keyEntry[T]
}

type keyEntry[T any] struct {
	id string
	sk *curve.Point
	pc T
}

func newKeyCache[T any](g *curve.Group, capacity int) keyCache[T] {
	return keyCache[T]{g: g, cap: capacity, entries: make(map[string]*list.Element), order: list.New()}
}

// lookup returns the cached precomputation for key, promoting the entry. A
// stale entry (same identity, different key) is dropped, not returned.
func (c *keyCache[T]) lookup(key *ibc.PrivateKey) (pc T, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key.ID]
	if !ok {
		return pc, false
	}
	e := el.Value.(*keyEntry[T])
	if !c.g.Equal(e.sk, key.SK) {
		c.order.Remove(el)
		delete(c.entries, key.ID)
		return pc, false
	}
	c.order.MoveToFront(el)
	return e.pc, true
}

// store inserts a precomputation, evicting from the LRU tail to stay
// within the capacity. Callers build pc outside the lock; a racing insert
// for the same identity just overwrites.
func (c *keyCache[T]) store(key *ibc.PrivateKey, pc T) {
	e := &keyEntry[T]{id: key.ID, sk: c.g.Copy(key.SK), pc: pc}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.id]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	c.entries[e.id] = c.order.PushFront(e)
	c.trimLocked()
}

func (c *keyCache[T]) trimLocked() {
	for c.order.Len() > c.cap {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*keyEntry[T]).id)
	}
}

func (c *keyCache[T]) evict(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[id]; ok {
		c.order.Remove(el)
		delete(c.entries, id)
	}
}

func (c *keyCache[T]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

func (c *keyCache[T]) resize(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = n
	c.trimLocked()
}

// verifierPC returns the Miller-loop precomputation of a verifier key,
// building and caching it on first use, and whether it was cached.
func (s *Scheme) verifierPC(verifierSK *ibc.PrivateKey) (pc *pairing.Precomp, cached bool) {
	if pc, ok := s.verifiers.lookup(verifierSK); ok {
		return pc, true
	}
	s.sp.G1().Counters().AddPrecompMiss()
	pc = s.sp.Pairing().Precompute(verifierSK.SK)
	s.verifiers.store(verifierSK, pc)
	return pc, false
}

// pairWithVerifier computes ê(q, sk_ver) through the per-verifier
// precomputation cache, building the entry on first use.
func (s *Scheme) pairWithVerifier(q *curve.Point, verifierSK *ibc.PrivateKey) *pairing.GT {
	pc, cached := s.verifierPC(verifierSK)
	if cached {
		s.sp.G1().Counters().AddPrecompHit()
	}
	return pc.Pair(q)
}

// PrecomputeVerifier warms the pairing cache for a verifier key ahead of
// the first verification, moving the one-time Miller-loop setup off the
// audit hot path.
func (s *Scheme) PrecomputeVerifier(verifierSK *ibc.PrivateKey) {
	if verifierSK == nil || verifierSK.SK == nil {
		return
	}
	s.verifierPC(verifierSK)
}

// EvictVerifier drops the cached precomputation for a verifier identity,
// e.g. after its key is retired. Unknown identities are a no-op.
func (s *Scheme) EvictVerifier(id string) { s.verifiers.evict(id) }

// VerifierCacheLen reports how many verifier precomputations are cached.
func (s *Scheme) VerifierCacheLen() int { return s.verifiers.len() }

// WithVerifierCacheCap resizes the verifier precompute cache (minimum 1),
// evicting LRU entries if the new capacity is smaller. Returns s.
func (s *Scheme) WithVerifierCacheCap(n int) *Scheme {
	if n < 1 {
		n = 1
	}
	s.verifiers.resize(n)
	return s
}

// NewScheme returns a Scheme over the given system parameters.
func NewScheme(sp *ibc.SystemParams) *Scheme {
	return &Scheme{
		sp:        sp,
		verifiers: newKeyCache[*pairing.Precomp](sp.G1(), DefaultVerifierCacheSize),
		signers:   newKeyCache[*signerPC](sp.G1(), DefaultVerifierCacheSize),
	}
}

// Params returns the system parameters the scheme operates over.
func (s *Scheme) Params() *ibc.SystemParams { return s.sp }

// signerPC is what one signing key multiplies and exponentiates every time
// it signs, tabulated once: Q_ID for U = r·Q_ID, and per designated
// verifier v the GT element ê(sk_ID, Q_v), of which a designated Σ is a
// power (see SignDesignated). The bases are secrets of the signer: whoever
// holds ê(sk_ID, Q_v) signs to v in the signer's name. v itself can compute
// it, as ê(Q_ID, sk_v) — that is what Simulate does — so towards v it gives
// nothing away; it never leaves the Scheme.
//
// sk_ID, which only a raw Sign multiplies (V = e·sk_ID), has no table: one
// would take 51 µs off a 1.6 ms update, the op with the most raw signatures
// in it, and less off every other.
type signerPC struct {
	qid *curve.FixedBase

	mu    sync.Mutex
	bases map[string]*pairing.FixedGT // by verifier identity
}

// signer returns the tables of a signing key, building them on first use.
func (s *Scheme) signer(sk *ibc.PrivateKey) *signerPC {
	if pc, ok := s.signers.lookup(sk); ok {
		return pc
	}
	pc := &signerPC{
		qid:   s.sp.G1().NewFixedBase(s.sp.QID(sk.ID)),
		bases: make(map[string]*pairing.FixedGT),
	}
	s.signers.store(sk, pc)
	return pc
}

// base returns the table of ê(sk_ID, Q_v): one pairing the first time the
// key designates to v. The map is bounded like the scheme's caches, by
// starting over.
func (s *Scheme) base(pc *signerPC, sk *ibc.PrivateKey, verifierID string) *pairing.FixedGT {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if t, ok := pc.bases[verifierID]; ok {
		return t
	}
	if len(pc.bases) >= DefaultVerifierCacheSize {
		clear(pc.bases)
	}
	pp := s.sp.Pairing()
	t := pp.NewFixedGT(pp.Pair(sk.SK, s.sp.QID(verifierID)))
	pc.bases[verifierID] = t
	return t
}

// commit draws the nonce r and returns U = r·Q_ID with e = r + H2(U‖m), the
// multiplier that takes sk_ID to V.
func (s *Scheme) commit(
	pc *signerPC, msg []byte, random io.Reader,
) (u *curve.Point, e *big.Int, err error) {
	g := s.sp.G1()
	r, err := g.Scalars().Rand(random)
	if err != nil {
		return nil, nil, fmt.Errorf("dvs: sampling signature nonce: %w", err)
	}
	u = pc.qid.Mult(r)
	h := s.sp.H2(g.MarshalPoint(u), msg)
	return u, g.Scalars().Add(r, h), nil
}

// Sign produces the raw signature (U, V) on msg under sk.
func (s *Scheme) Sign(sk *ibc.PrivateKey, msg []byte, random io.Reader) (*Signature, error) {
	u, e, err := s.commit(s.signer(sk), msg, random)
	if err != nil {
		return nil, err
	}
	return &Signature{U: u, V: s.sp.G1().ScalarMult(sk.SK, e)}, nil
}

// PublicVerify checks the raw signature against the signer's identity and
// the master public key: ê(V, P) ?= ê(U + h·Q_ID, Ppub). This is the
// conventional (non-designated) verification path; it costs two pairings.
func (s *Scheme) PublicVerify(signerID string, msg []byte, sig *Signature) error {
	g := s.sp.G1()
	if sig == nil || sig.U == nil || sig.V == nil {
		return fmt.Errorf("dvs: incomplete signature: %w", ErrVerifyFailed)
	}
	if !g.InSubgroup(sig.U) || !g.InSubgroup(sig.V) {
		return fmt.Errorf("dvs: signature outside G1: %w", ErrVerifyFailed)
	}
	h := s.sp.H2(g.MarshalPoint(sig.U), msg)
	base := g.Add(sig.U, g.ScalarMult(s.sp.QID(signerID), h))
	lhs := s.sp.PairWithGenerator(sig.V)
	rhs := s.sp.PairWithMasterKey(base)
	if !lhs.Equal(rhs) {
		return ErrVerifyFailed
	}
	return nil
}

// SignDesignated signs msg and designates it to each verifier in one call,
// returning the designated signatures in verifier order. This is the
// paper's flow where the user produces (U_i, Σ_i, Σ'_i) for CS and DA.
//
// The paper's Σ_v = ê(V, Q_v) with V = e·sk_ID, e = r + h, is by
// bilinearity ê(sk_ID, Q_v)^e: the signer, who knows e, raises a GT
// element fixed per (key, verifier) to it and never forms V or pairs. The
// nonce is drawn as Sign draws it, so (U, Σ_v) is byte for byte what Sign
// followed by the pairing gives (TestSignDesignatedMatchesOracle).
func (s *Scheme) SignDesignated(
	sk *ibc.PrivateKey, msg []byte, random io.Reader, verifierIDs ...string,
) ([]*Designated, error) {
	pc := s.signer(sk)
	u, e, err := s.commit(pc, msg, random)
	if err != nil {
		return nil, err
	}
	out := make([]*Designated, 0, len(verifierIDs))
	for _, vid := range verifierIDs {
		out = append(out, &Designated{
			SignerID:   sk.ID,
			VerifierID: vid,
			U:          s.sp.G1().Copy(u),
			Sigma:      s.base(pc, sk, vid).Exp(e),
		})
	}
	return out, nil
}

// Verify checks a designated signature with the verifier's private key
// (paper eq. 5 / 7): Σ ?= ê(U + H2(U‖m)·Q_ID, sk_ver). One pairing.
func (s *Scheme) Verify(d *Designated, msg []byte, verifierSK *ibc.PrivateKey) error {
	if d == nil || d.U == nil || d.Sigma == nil {
		return fmt.Errorf("dvs: incomplete designated signature: %w", ErrVerifyFailed)
	}
	if verifierSK.ID != d.VerifierID {
		return fmt.Errorf("dvs: signature designated to %q, verifier is %q: %w",
			d.VerifierID, verifierSK.ID, ErrVerifyFailed)
	}
	g := s.sp.G1()
	if !g.InSubgroup(d.U) {
		return fmt.Errorf("dvs: U outside G1: %w", ErrVerifyFailed)
	}
	h := s.sp.H2(g.MarshalPoint(d.U), msg)
	base := g.Add(d.U, g.ScalarMult(s.sp.QID(d.SignerID), h))
	want := s.pairWithVerifier(base, verifierSK)
	if !want.Equal(d.Sigma) {
		return ErrVerifyFailed
	}
	return nil
}

// Simulate lets a designated verifier forge a transcript that verifies
// under its own key and is distributed identically to a real signature.
// This realizes the privacy property of Definition 2: because the verifier
// can produce such transcripts itself, a (possibly compromised) cloud
// server cannot use stored signatures to convince third parties — e.g. a
// buyer of illegally sold data — of their authenticity.
func (s *Scheme) Simulate(
	signerID string, msg []byte, verifierSK *ibc.PrivateKey, random io.Reader,
) (*Designated, error) {
	g := s.sp.G1()
	// U' = r'·Q_ID for random r' matches the real distribution of U.
	r, err := g.Scalars().Rand(random)
	if err != nil {
		return nil, fmt.Errorf("dvs: sampling simulation nonce: %w", err)
	}
	qid := s.sp.QID(signerID)
	u := g.ScalarMult(qid, r)
	h := s.sp.H2(g.MarshalPoint(u), msg)
	base := g.Add(u, g.ScalarMult(qid, h))
	return &Designated{
		SignerID:   signerID,
		VerifierID: verifierSK.ID,
		U:          u,
		Sigma:      s.pairWithVerifier(base, verifierSK),
	}, nil
}
