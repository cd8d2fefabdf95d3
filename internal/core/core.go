// Package core implements the SecCloud protocol itself — the paper's
// primary contribution. It wires the cryptographic substrates (ibc, dvs,
// merkle) and the simulation substrates (funcs, wire, netsim) into the
// four protocol phases of §V:
//
//	System initialization   → ibc.Setup / Extract (performed by the SIO)
//	Secure cloud storage    → User.SignedBlocks + Server store/verify (eq. 5)
//	Secure cloud computing  → Server.compute: Merkle commitment over
//	                          leaves H(y_i ‖ p_i), root signed (Fig. 3)
//	Commitment verification → Agency.AuditJob: Algorithm 1 with
//	                          probabilistic sampling + batch verification
//
// plus the adversarial machinery of §III-B: pluggable cheating policies
// that realize the storage-, computation- and privacy-cheating models, and
// a CSP scheduler that fans a job out across many servers (§III-A).
//
// Position binding: the paper's storage signatures must let the DA "check
// whether the cloud server uses the data in the request position, not
// other positions" (§V-D). We therefore sign the byte string
// (position ‖ block), making each σ_i bind both content and location.
package core

import (
	"encoding/binary"
	"fmt"

	"seccloud/internal/dvs"
	"seccloud/internal/ibc"
	"seccloud/internal/wire"
)

// BlockMessage builds the signed byte string for a stored block:
// an 8-byte big-endian position followed by the raw block data.
func BlockMessage(pos uint64, data []byte) []byte {
	out := make([]byte, 8+len(data))
	binary.BigEndian.PutUint64(out, pos)
	copy(out[8:], data)
	return out
}

// EncodeBlockSig converts designated signatures (all on the same U, for
// different verifiers) into the wire representation.
func EncodeBlockSig(signerID string, sp *ibc.SystemParams, sigs []*dvs.Designated) (wire.BlockSig, error) {
	if len(sigs) == 0 {
		return wire.BlockSig{}, fmt.Errorf("core: no designated signatures to encode")
	}
	g := sp.G1()
	out := wire.BlockSig{
		SignerID: signerID,
		U:        g.MarshalPoint(sigs[0].U),
		Sigma:    make(map[string][]byte, len(sigs)),
	}
	for _, d := range sigs {
		if d.SignerID != signerID {
			return wire.BlockSig{}, fmt.Errorf("core: mixed signers %q and %q in one block signature",
				signerID, d.SignerID)
		}
		if !g.Equal(d.U, sigs[0].U) {
			return wire.BlockSig{}, fmt.Errorf("core: designated signatures with different U in one block signature")
		}
		out.Sigma[d.VerifierID] = d.Sigma.Marshal()
	}
	return out, nil
}

// DecodeBlockSig extracts the designated signature for one verifier from a
// wire block signature. It guarantees that U is a point on the curve and
// that Σ is a nonzero Fp2 element with both coordinates in field range —
// and nothing about the order of either. What follows decides how much of
// that order matters: Scheme.Verify (U strictly, Σ by equality with a
// pairing output), Scheme.BatchVerify and Scheme.VerificationBase (both
// strictly, per item), Scheme.AggregateRandomized (one randomized
// membership check for the batch's U, per-item exponents shielding Σ), or
// Scheme.BatchVerifyRandomized, which checks no U — a cofactor component
// of U vanishes in the DA's pairing and changes H2(U‖m) — and shields Σ
// with odd per-item exponents. The server's upload check adds
// Scheme.BatchMembership to it, so every U it stores is in G1. A decoded
// signature that reaches none of them has not been checked.
func DecodeBlockSig(sp *ibc.SystemParams, bs *wire.BlockSig, verifierID string) (*dvs.Designated, error) {
	raw, ok := bs.Sigma[verifierID]
	if !ok {
		return nil, fmt.Errorf("core: block signature carries no Σ for verifier %q", verifierID)
	}
	u, err := sp.G1().UnmarshalPoint(bs.U)
	if err != nil {
		return nil, fmt.Errorf("core: decoding U: %w", err)
	}
	sigma, err := sp.Pairing().UnmarshalGTUnchecked(raw)
	if err != nil {
		return nil, fmt.Errorf("core: decoding Σ: %w", err)
	}
	// UnmarshalPoint guarantees U is on the curve; order-q membership of
	// both components is the verifier's business (see above), so the
	// decoder does not pay an order-q ladder per signature here. A Σ
	// outside the target subgroup can only make the verifier's equality
	// check against its own pairing output fail — the pairing's final
	// exponentiation always lands inside the subgroup.
	return &dvs.Designated{
		SignerID:   bs.SignerID,
		VerifierID: verifierID,
		U:          u,
		Sigma:      sigma,
	}, nil
}

// EncodeIBSig converts a raw signature to wire form.
func EncodeIBSig(sp *ibc.SystemParams, sig *dvs.Signature) wire.IBSig {
	g := sp.G1()
	return wire.IBSig{U: g.MarshalPoint(sig.U), V: g.MarshalPoint(sig.V)}
}

// DecodeIBSig parses a wire raw signature, validating group membership.
func DecodeIBSig(sp *ibc.SystemParams, ws wire.IBSig) (*dvs.Signature, error) {
	g := sp.G1()
	u, err := g.UnmarshalPoint(ws.U)
	if err != nil {
		return nil, fmt.Errorf("core: decoding signature U: %w", err)
	}
	v, err := g.UnmarshalPoint(ws.V)
	if err != nil {
		return nil, fmt.Errorf("core: decoding signature V: %w", err)
	}
	if !g.InSubgroup(u) || !g.InSubgroup(v) {
		return nil, fmt.Errorf("core: signature component outside G1")
	}
	return &dvs.Signature{U: u, V: v}, nil
}
