package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Byte-level evidence codec — the transferable form of a signed verdict.
//
// Verdicts travel: a user hands one to the CSP, archives it, or submits
// it to an arbiter, so the encoding must be stable and the decoder must
// be safe on hostile bytes (truncated, oversized or wrong-version inputs
// error; they never panic or over-allocate).
//
// Layout: "SCEV" magic, uvarint version (always EvidenceVersion), then
// the fields in struct order — strings and byte slices as uvarint
// length + bytes, ints as uvarint, bools as one 0/1 byte, the confidence
// float as IEEE-754 bits. No trailing bytes are tolerated.

var evidenceMagic = []byte("SCEV")

const (
	// maxEvidenceStr bounds every string/byte field; a verdict's summaries
	// are compact canonical renderings, never megabytes.
	maxEvidenceStr = 1 << 16
	// maxEvidenceSampled bounds the sampled-index list. Audits sample
	// hundreds of blocks; the bound only exists so a hostile length prefix
	// cannot drive allocation.
	maxEvidenceSampled = 1 << 20
)

// ErrEvidenceEncoding reports malformed evidence bytes.
var ErrEvidenceEncoding = errors.New("core: malformed evidence encoding")

type evidenceWriter struct {
	buf []byte
}

func (w *evidenceWriter) uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

func (w *evidenceWriter) bytes(b []byte) {
	w.uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

func (w *evidenceWriter) str(s string) { w.bytes([]byte(s)) }

func (w *evidenceWriter) boolean(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

type evidenceReader struct {
	buf []byte
}

func (r *evidenceReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint", ErrEvidenceEncoding)
	}
	r.buf = r.buf[n:]
	return v, nil
}

func (r *evidenceReader) count(max uint64, what string) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > max {
		return 0, fmt.Errorf("%w: %s length %d exceeds %d", ErrEvidenceEncoding, what, v, max)
	}
	// A length prefix may never promise more bytes than remain; this is
	// what keeps a truncated or hostile prefix from driving allocation.
	if v > uint64(len(r.buf)) {
		return 0, fmt.Errorf("%w: %s length %d exceeds remaining %d bytes", ErrEvidenceEncoding, what, v, len(r.buf))
	}
	return int(v), nil
}

func (r *evidenceReader) bytes(what string) ([]byte, error) {
	n, err := r.count(maxEvidenceStr, what)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, r.buf[:n])
	r.buf = r.buf[n:]
	return out, nil
}

func (r *evidenceReader) str(what string) (string, error) {
	b, err := r.bytes(what)
	return string(b), err
}

func (r *evidenceReader) intField(what string) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt32 {
		return 0, fmt.Errorf("%w: %s %d out of range", ErrEvidenceEncoding, what, v)
	}
	return int(v), nil
}

func (r *evidenceReader) boolean(what string) (bool, error) {
	if len(r.buf) < 1 {
		return false, fmt.Errorf("%w: truncated %s", ErrEvidenceEncoding, what)
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	switch b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	// Non-canonical bools are rejected so every verdict has exactly one
	// byte encoding.
	return false, fmt.Errorf("%w: %s byte %d", ErrEvidenceEncoding, what, b)
}

// EncodeEvidence renders a verdict into its transferable byte form.
func EncodeEvidence(e *Evidence) ([]byte, error) {
	if e == nil {
		return nil, fmt.Errorf("%w: nil evidence", ErrEvidenceEncoding)
	}
	if len(e.Sampled) > maxEvidenceSampled {
		return nil, fmt.Errorf("%w: %d sampled indices", ErrEvidenceEncoding, len(e.Sampled))
	}
	w := &evidenceWriter{buf: append([]byte(nil), evidenceMagic...)}
	w.uvarint(EvidenceVersion)
	w.str(e.AuditorID)
	w.str(e.JobID)
	w.str(e.UserID)
	w.str(e.ServerID)
	w.uvarint(uint64(len(e.Sampled)))
	for _, idx := range e.Sampled {
		w.uvarint(idx)
	}
	w.boolean(e.Valid)
	w.str(e.FailureSummary)
	w.uvarint(uint64(e.EffectiveSampleSize))
	w.uvarint(uint64(e.NetworkFaultRounds))
	w.str(e.FailoverSummary)
	w.str(e.QuorumSummary)
	w.uvarint(uint64(e.PlannedSampleSize))
	w.boolean(e.DegradedByOverload)
	w.uvarint(uint64(e.ShedRounds))
	w.uvarint(uint64(e.HedgedRounds))
	w.uvarint(math.Float64bits(e.DetectionConfidence))
	w.str(e.ThresholdQuorum)
	w.str(e.ThresholdFaults)
	w.uvarint(uint64(e.ThresholdRecoveries))
	w.str(e.ThresholdCombined)
	w.bytes(e.Sig.U)
	w.bytes(e.Sig.V)
	return w.buf, nil
}

// DecodeEvidence parses the transferable byte form back into a verdict.
// It accepts version EvidenceVersion only — truncated records, oversized
// length prefixes, any other version, trailing bytes and non-canonical
// encodings all error.
func DecodeEvidence(raw []byte) (*Evidence, error) {
	if len(raw) < len(evidenceMagic) || string(raw[:len(evidenceMagic)]) != string(evidenceMagic) {
		return nil, fmt.Errorf("%w: missing magic", ErrEvidenceEncoding)
	}
	r := &evidenceReader{buf: raw[len(evidenceMagic):]}
	version, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if version != EvidenceVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrEvidenceEncoding, version)
	}
	e := &Evidence{}
	if e.AuditorID, err = r.str("auditor id"); err != nil {
		return nil, err
	}
	if e.JobID, err = r.str("job id"); err != nil {
		return nil, err
	}
	if e.UserID, err = r.str("user id"); err != nil {
		return nil, err
	}
	if e.ServerID, err = r.str("server id"); err != nil {
		return nil, err
	}
	n, err := r.count(maxEvidenceSampled, "sampled list")
	if err != nil {
		return nil, err
	}
	if n > 0 {
		e.Sampled = make([]uint64, n)
		for i := range e.Sampled {
			if e.Sampled[i], err = r.uvarint(); err != nil {
				return nil, fmt.Errorf("%w: sampled index %d", err, i)
			}
		}
	}
	if e.Valid, err = r.boolean("valid flag"); err != nil {
		return nil, err
	}
	if e.FailureSummary, err = r.str("failure summary"); err != nil {
		return nil, err
	}
	if e.EffectiveSampleSize, err = r.intField("effective sample size"); err != nil {
		return nil, err
	}
	if e.NetworkFaultRounds, err = r.intField("network fault rounds"); err != nil {
		return nil, err
	}
	if e.FailoverSummary, err = r.str("failover summary"); err != nil {
		return nil, err
	}
	if e.QuorumSummary, err = r.str("quorum summary"); err != nil {
		return nil, err
	}
	if e.PlannedSampleSize, err = r.intField("planned sample size"); err != nil {
		return nil, err
	}
	if e.DegradedByOverload, err = r.boolean("degraded flag"); err != nil {
		return nil, err
	}
	if e.ShedRounds, err = r.intField("shed rounds"); err != nil {
		return nil, err
	}
	if e.HedgedRounds, err = r.intField("hedged rounds"); err != nil {
		return nil, err
	}
	bits, err := r.uvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: detection confidence", err)
	}
	e.DetectionConfidence = math.Float64frombits(bits)
	if e.ThresholdQuorum, err = r.str("threshold quorum"); err != nil {
		return nil, err
	}
	if e.ThresholdFaults, err = r.str("threshold faults"); err != nil {
		return nil, err
	}
	if e.ThresholdRecoveries, err = r.intField("threshold recoveries"); err != nil {
		return nil, err
	}
	if e.ThresholdCombined, err = r.str("threshold combined digest"); err != nil {
		return nil, err
	}
	if e.Sig.U, err = r.bytes("signature U"); err != nil {
		return nil, err
	}
	if e.Sig.V, err = r.bytes("signature V"); err != nil {
		return nil, err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrEvidenceEncoding, len(r.buf))
	}
	return e, nil
}
