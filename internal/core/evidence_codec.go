package core

import (
	"errors"
	"fmt"
	"math"

	"seccloud/internal/wire"
)

// Byte-level evidence codec — the transferable form of a signed verdict.
//
// Verdicts travel: a user hands one to the CSP, archives it, or submits
// it to an arbiter, so the encoding must be stable and the decoder must
// be safe on hostile bytes (truncated, oversized or wrong-version inputs
// error; they never panic or over-allocate).
//
// Layout: "SCEV" magic, uvarint version (always EvidenceVersion), then
// the fields in struct order in the wire codec (wire.Writer and
// wire.Reader, which frames and WAL records use too) — strings and byte
// slices as uvarint length + bytes, ints as uvarint, bools as one 0/1
// byte, the confidence float's IEEE-754 bits as a uvarint. No trailing
// bytes and no non-minimal varints are tolerated.

var evidenceMagic = []byte("SCEV")

const (
	// maxEvidenceStr bounds every string/byte field; a verdict's summaries
	// are compact canonical renderings, never megabytes.
	maxEvidenceStr = 1 << 16
	// maxEvidenceSampled bounds the sampled-index list. Audits sample
	// hundreds of blocks; allocation is bounded by the input length
	// whatever the bound.
	maxEvidenceSampled = 1 << 20
)

// ErrEvidenceEncoding reports malformed evidence bytes.
var ErrEvidenceEncoding = errors.New("core: malformed evidence encoding")

// EncodeEvidence renders a verdict into its transferable byte form.
func EncodeEvidence(e *Evidence) ([]byte, error) {
	if e == nil {
		return nil, fmt.Errorf("%w: nil evidence", ErrEvidenceEncoding)
	}
	if len(e.Sampled) > maxEvidenceSampled {
		return nil, fmt.Errorf("%w: %d sampled indices", ErrEvidenceEncoding, len(e.Sampled))
	}
	w := &wire.Writer{Buf: append([]byte(nil), evidenceMagic...)}
	w.Uvarint(EvidenceVersion)
	w.String(e.AuditorID)
	w.String(e.JobID)
	w.String(e.UserID)
	w.String(e.ServerID)
	w.Uvarints(e.Sampled)
	w.Bool(e.Valid)
	w.String(e.FailureSummary)
	w.Uvarint(uint64(e.EffectiveSampleSize))
	w.Uvarint(uint64(e.NetworkFaultRounds))
	w.String(e.FailoverSummary)
	w.String(e.QuorumSummary)
	w.Uvarint(uint64(e.PlannedSampleSize))
	w.Bool(e.DegradedByOverload)
	w.Uvarint(uint64(e.ShedRounds))
	w.Uvarint(uint64(e.HedgedRounds))
	w.Uvarint(math.Float64bits(e.DetectionConfidence))
	w.String(e.ThresholdQuorum)
	w.String(e.ThresholdFaults)
	w.Uvarint(uint64(e.ThresholdRecoveries))
	w.String(e.ThresholdCombined)
	w.IBSig(&e.Sig)
	return w.Buf, nil
}

// DecodeEvidence parses the transferable byte form back into a verdict.
// It accepts version EvidenceVersion only — truncated records, oversized
// length prefixes, any other version, trailing bytes and non-canonical
// encodings all error.
func DecodeEvidence(raw []byte) (*Evidence, error) {
	if len(raw) < len(evidenceMagic) || string(raw[:len(evidenceMagic)]) != string(evidenceMagic) {
		return nil, fmt.Errorf("%w: missing magic", ErrEvidenceEncoding)
	}
	r := wire.NewReader(raw[len(evidenceMagic):])
	if version := r.Uvarint(); r.Err() == nil && version != EvidenceVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrEvidenceEncoding, version)
	}
	e := &Evidence{
		AuditorID:           r.String(),
		JobID:               r.String(),
		UserID:              r.String(),
		ServerID:            r.String(),
		Sampled:             r.Uvarints(),
		Valid:               r.Bool(),
		FailureSummary:      r.String(),
		EffectiveSampleSize: r.Int(),
		NetworkFaultRounds:  r.Int(),
		FailoverSummary:     r.String(),
		QuorumSummary:       r.String(),
		PlannedSampleSize:   r.Int(),
		DegradedByOverload:  r.Bool(),
		ShedRounds:          r.Int(),
		HedgedRounds:        r.Int(),
		DetectionConfidence: math.Float64frombits(r.Uvarint()),
		ThresholdQuorum:     r.String(),
		ThresholdFaults:     r.String(),
		ThresholdRecoveries: r.Int(),
		ThresholdCombined:   r.String(),
		Sig:                 r.IBSig(),
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrEvidenceEncoding, err)
	}
	if len(e.Sampled) > maxEvidenceSampled {
		return nil, fmt.Errorf("%w: %d sampled indices", ErrEvidenceEncoding, len(e.Sampled))
	}
	for _, n := range []int{len(e.AuditorID), len(e.JobID), len(e.UserID), len(e.ServerID),
		len(e.FailureSummary), len(e.FailoverSummary), len(e.QuorumSummary), len(e.ThresholdQuorum),
		len(e.ThresholdFaults), len(e.ThresholdCombined), len(e.Sig.U), len(e.Sig.V)} {
		if n > maxEvidenceStr {
			return nil, fmt.Errorf("%w: %d-byte field exceeds %d", ErrEvidenceEncoding, n, maxEvidenceStr)
		}
	}
	return e, nil
}
