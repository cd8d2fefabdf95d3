package dvs

import (
	"fmt"
	"io"
	"math/big"

	"seccloud/internal/curve"
	"seccloud/internal/ibc"
	"seccloud/internal/pairing"
)

// BatchItem is one (message, designated signature) pair inside a batch.
// Items in one batch may come from different signers, mirroring §VI where
// the cloud concurrently handles requests from multiple cloud users.
type BatchItem struct {
	Msg *[]byte // message bytes; pointer to avoid copying large blocks
	Sig *Designated
}

// NewBatchItem builds a BatchItem, copying nothing.
func NewBatchItem(msg []byte, sig *Designated) BatchItem {
	return BatchItem{Msg: &msg, Sig: sig}
}

// BatchVerify implements the paper's aggregate check (eq. 8–9):
//
//	Σ_A = Π Σ_ij,  U_A = Σ (U_ij + h_ij·Q_IDi),  ê(U_A, sk_ver) ?= Σ_A.
//
// Cost is a single pairing plus one point multiplication per item, versus
// one pairing per item for individual verification — the source of the
// paper's Figure 5 / Table II speedup.
//
// Caveat reproduced from the paper: the plain aggregate check accepts any
// set of signatures whose *errors cancel*. A malicious signer who controls
// several items in the batch can exploit this; use BatchVerifyRandomized
// when items come from mutually untrusted sources.
func (s *Scheme) BatchVerify(items []BatchItem, verifierSK *ibc.PrivateKey) error {
	return s.batchVerify(items, verifierSK, nil)
}

// batchExponentBits is λ for the small-exponent test. 128-bit exponents
// bound error cancellation by 2⁻¹²⁸ while costing a fraction of the
// full-width ScalarMult/Exp a group-order-sized δ would need — the
// classic small-exponent batch-verification trade (Bellare–Garay–Rabin).
const batchExponentBits = 128

// BatchVerifyRandomized is the small-exponent variant: each item is raised
// to a fresh random exponent δ_ij before aggregation, making error
// cancellation infeasible (probability ≤ 1/2^(λ−1) for odd λ-bit
// exponents; λ is batchExponentBits). This is this repository's hardening
// extension over the paper's eq. 8. Each δ is made odd, so a Σ component
// of 2-power order — −1 multiplied into a Σ among them — is never
// annihilated by its exponent.
//
// It checks no item's U for membership in G1. Every Uᵢ enters the
// equation twice: through H2(Uᵢ‖mᵢ), which binds its bytes, and inside
// U_A, which is only ever the evaluation argument of a pairing whose
// Miller loop runs on sk_ver ∈ E[q]. That pairing is a function on E/qE,
// so a component of Uᵢ of order dividing the cofactor changes nothing on
// the left of the equation while it changes hᵢ on the right
// (pairing.TestPairIgnoresCofactorComponents). The check therefore
// accepts exactly the batches whose order-q parts verify under the hashes
// of the bytes presented. Callers that store or forward a U — the
// server's upload check, AggregateRandomized, whose U_A becomes a
// Miller-loop argument at the share-holders — add BatchMembership.
func (s *Scheme) BatchVerifyRandomized(
	items []BatchItem, verifierSK *ibc.PrivateKey, random io.Reader,
) error {
	if random == nil {
		return fmt.Errorf("dvs: randomized batch verify requires a randomness source")
	}
	if len(items) == 0 {
		return ErrEmptyBatch
	}
	deltas, err := s.sampleDeltas(len(items), random)
	if err != nil {
		return err
	}
	for _, d := range deltas {
		d.SetBit(d, 0, 1)
	}
	return s.batchVerify(items, verifierSK, deltas)
}

// sampleDeltas draws the per-item small exponents for the randomized
// aggregate check.
func (s *Scheme) sampleDeltas(n int, random io.Reader) ([]*big.Int, error) {
	// λ never exceeds the scalar width: a δ wider than q costs extra
	// ladder steps without adding security beyond the group order.
	bits := batchExponentBits
	if qb := s.sp.G1().Q().BitLen() - 1; qb < bits {
		bits = qb
	}
	deltas := make([]*big.Int, n)
	buf := make([]byte, (bits+7)/8)
	shift := uint(len(buf)*8 - bits)
	for i := range deltas {
		if _, err := io.ReadFull(random, buf); err != nil {
			return nil, fmt.Errorf("dvs: sampling batch exponent: %w", err)
		}
		d := new(big.Int).SetBytes(buf)
		d.Rsh(d, shift)
		if d.Sign() == 0 {
			// δ = 0 would drop the item from both sides; any nonzero
			// value keeps the bound (probability of hitting 0 is 2⁻λ).
			d.SetInt64(1)
		}
		deltas[i] = d
	}
	return deltas, nil
}

// AggregateRandomized computes the public half of the randomized aggregate
// check: the batch-wide base U_A = Σ δᵢ·(Uᵢ + hᵢ·Q_IDᵢ) and target
// Σ_A = Π Σᵢ^δᵢ, after running BatchMembership. No secret is
// involved — a threshold combiner hands U_A to the share-holders and tests
// the Lagrange-combined partials against Σ_A, reaching the verdict
// BatchVerifyRandomized reaches with sk_ver in hand on every batch whose
// U lie in G1 and whose Σ carry no component of 2-power order: its δ are
// drawn as sampleDeltas draws them, not forced odd (DESIGN.md, "Group
// membership").
func (s *Scheme) AggregateRandomized(
	items []BatchItem, verifierID string, random io.Reader,
) (*curve.Point, *pairing.GT, error) {
	if random == nil {
		return nil, nil, fmt.Errorf("dvs: randomized aggregation requires a randomness source")
	}
	if len(items) == 0 {
		return nil, nil, ErrEmptyBatch
	}
	deltas, err := s.sampleDeltas(len(items), random)
	if err != nil {
		return nil, nil, err
	}
	// The share-holders pair U_A as the Miller-loop argument, where a
	// cofactor component does not vanish, and refuse a base outside G1:
	// a malformed signature must fail here, not as a holder fault.
	if err := s.BatchMembership(items, random); err != nil {
		return nil, nil, err
	}
	return s.aggregate(items, verifierID, deltas)
}

// VerificationBase computes the eq. 5/7 base U + H2(U‖m)·Q_ID for one
// designated signature after strict per-item validation (designation
// match, U ∈ G1, Σ ∈ GT). Pairing the result with sk_ver — directly or
// share-wise through a threshold quorum — must equal d.Sigma for the
// signature to verify.
func (s *Scheme) VerificationBase(d *Designated, msg []byte, verifierID string) (*curve.Point, error) {
	if d == nil || d.U == nil || d.Sigma == nil {
		return nil, fmt.Errorf("dvs: incomplete designated signature: %w", ErrVerifyFailed)
	}
	if d.VerifierID != verifierID {
		return nil, fmt.Errorf("dvs: signature designated to %q, verifier is %q: %w",
			d.VerifierID, verifierID, ErrVerifyFailed)
	}
	g := s.sp.G1()
	if !g.InSubgroup(d.U) {
		return nil, fmt.Errorf("dvs: U outside G1: %w", ErrVerifyFailed)
	}
	if !d.Sigma.InSubgroup() {
		return nil, fmt.Errorf("dvs: Σ outside GT: %w", ErrVerifyFailed)
	}
	h := s.sp.H2(g.MarshalPoint(d.U), msg)
	return g.Add(d.U, g.ScalarMult(s.sp.QID(d.SignerID), h)), nil
}

// BatchMembership checks G1 membership of every item's U as one
// randomized linear combination: T = q·(Σ γᵢUᵢ) with fresh 64-bit
// coefficients γᵢ drawn from random must be the identity. Cost is one
// shared multi-scalar ladder plus a single order-q multiplication, versus
// one order-q multiplication per point. Items without a U are skipped and
// draw no coefficient.
//
// Soundness: a component of prime order ℓ outside the q-subgroup
// survives into the sum unless γᵢ ≡ 0 (mod ℓ) — probability ≤ 1/ℓ per
// check, ≤ 2⁻⁶⁴ for large ℓ. The outcome depends only on the verifier's
// own randomness, never on a secret key. Callers that need per-item blame
// fall back to Verify, whose per-point membership check is strict.
func (s *Scheme) BatchMembership(items []BatchItem, random io.Reader) error {
	g := s.sp.G1()
	pts := make([]*curve.Point, 0, len(items))
	ks := make([]*big.Int, 0, len(items))
	var buf [8]byte
	for _, it := range items {
		d := it.Sig
		if d == nil || d.U == nil {
			continue // incomplete items fail the aggregate's validation
		}
		if _, err := io.ReadFull(random, buf[:]); err != nil {
			return fmt.Errorf("dvs: sampling membership coefficient: %w", err)
		}
		k := new(big.Int).SetBytes(buf[:])
		if k.Sign() == 0 {
			k.SetInt64(1)
		}
		pts = append(pts, d.U)
		ks = append(ks, k)
	}
	if len(pts) == 0 {
		return nil
	}
	sum, err := g.SumScalarMult(pts, ks)
	if err != nil {
		return fmt.Errorf("dvs: batch membership: %w", err)
	}
	if !g.ScalarMult(sum, g.Q()).Inf {
		return fmt.Errorf("dvs: batch contains U outside G1: %w", ErrVerifyFailed)
	}
	return nil
}

// batchVerify evaluates the aggregate equation with batch-wide shared
// ladders rather than per-item multiplications:
//
//   - the Q_ID contribution is grouped per signer — Σᵢ∈signer δᵢhᵢ mod q
//     is accumulated in Zq and Q_ID enters the point sum once per signer,
//     not once per item (cross-user batches repeat signers heavily);
//   - U_A is one interleaved multi-scalar multiplication over every Uᵢ
//     and every grouped Q_ID, sharing a single doubling ladder;
//   - Σ_A uses one shared squaring ladder (GT multi-exp) for the
//     randomized path.
func (s *Scheme) batchVerify(items []BatchItem, verifierSK *ibc.PrivateKey, deltas []*big.Int) error {
	ua, sigmaA, err := s.aggregate(items, verifierSK.ID, deltas)
	if err != nil {
		return err
	}
	got := s.pairWithVerifier(ua, verifierSK)
	if !got.Equal(sigmaA) {
		return ErrVerifyFailed
	}
	return nil
}

// aggregate builds (U_A, Σ_A) for the aggregate equation; see batchVerify
// for the ladder-sharing layout. deltas == nil selects the plain eq. 8
// aggregate with strict per-item subgroup checks.
func (s *Scheme) aggregate(items []BatchItem, verifierID string, deltas []*big.Int) (*curve.Point, *pairing.GT, error) {
	if len(items) == 0 {
		return nil, nil, ErrEmptyBatch
	}
	g := s.sp.G1()
	q := g.Q()
	one := big.NewInt(1)

	pts := make([]*curve.Point, 0, len(items)+8)
	ks := make([]*big.Int, 0, len(items)+8)
	signerK := make(map[string]*big.Int, 8)
	signerOrder := make([]string, 0, 8)
	var sigmaA *pairing.GT
	sigs := make([]*pairing.GT, 0, len(items))
	for i, it := range items {
		d := it.Sig
		if d == nil || d.U == nil || d.Sigma == nil || it.Msg == nil {
			return nil, nil, fmt.Errorf("dvs: batch item %d incomplete: %w", i, ErrVerifyFailed)
		}
		if d.VerifierID != verifierID {
			return nil, nil, fmt.Errorf("dvs: batch item %d designated to %q, verifier is %q: %w",
				i, d.VerifierID, verifierID, ErrVerifyFailed)
		}
		// The randomized path checks no U (see BatchVerifyRandomized),
		// and its per-item δ keep a Σ outside the target subgroup from
		// cancelling across items. The plain aggregate has no δ, so it
		// keeps strict per-item checks.
		if deltas == nil {
			if !g.InSubgroup(d.U) {
				return nil, nil, fmt.Errorf("dvs: batch item %d has U outside G1: %w", i, ErrVerifyFailed)
			}
			if !d.Sigma.InSubgroup() {
				return nil, nil, fmt.Errorf("dvs: batch item %d has Σ outside GT: %w", i, ErrVerifyFailed)
			}
		}
		h := s.sp.H2(g.MarshalPoint(d.U), *it.Msg)
		ku := one
		if deltas != nil {
			ku = deltas[i]
			h = h.Mul(h, deltas[i]).Mod(h, q)
			sigs = append(sigs, d.Sigma)
		} else {
			if sigmaA == nil {
				sigmaA = d.Sigma
			} else {
				sigmaA = sigmaA.Mul(d.Sigma)
			}
		}
		pts = append(pts, d.U)
		ks = append(ks, ku)
		if acc, ok := signerK[d.SignerID]; ok {
			acc.Add(acc, h).Mod(acc, q)
		} else {
			signerK[d.SignerID] = h
			signerOrder = append(signerOrder, d.SignerID)
		}
	}
	for _, id := range signerOrder {
		pts = append(pts, s.sp.QID(id))
		ks = append(ks, signerK[id])
	}
	ua, err := g.SumScalarMult(pts, ks)
	if err != nil {
		return nil, nil, fmt.Errorf("dvs: aggregating batch: %w", err)
	}
	if deltas != nil {
		sigmaA, err = s.sp.Pairing().MultiExp(sigs, deltas)
		if err != nil {
			return nil, nil, fmt.Errorf("dvs: aggregating batch: %w", err)
		}
	}
	return ua, sigmaA, nil
}

// AggregateSigma multiplies the Σ components of a batch into the single
// GT element Σ_A that a prover transmits (the "signature combination can
// be performed incrementally" remark in §VI).
func AggregateSigma(items []BatchItem) (*pairing.GT, error) {
	if len(items) == 0 {
		return nil, ErrEmptyBatch
	}
	var acc *pairing.GT
	for i, it := range items {
		if it.Sig == nil || it.Sig.Sigma == nil {
			return nil, fmt.Errorf("dvs: aggregate item %d incomplete: %w", i, ErrVerifyFailed)
		}
		if acc == nil {
			acc = it.Sig.Sigma
		} else {
			acc = acc.Mul(it.Sig.Sigma)
		}
	}
	return acc, nil
}
