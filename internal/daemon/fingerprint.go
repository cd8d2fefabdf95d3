package daemon

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"seccloud/internal/core"
)

// CanonicalReport renders the transport-invariant verdict of a storage
// audit report: identity, validity, the sampled challenge set, each
// round's outcome and indices, and every attributed failure. Fields that
// legitimately vary with the transport — attempt counts, lost-round
// error text, replica routing, timings — are excluded, so the same
// seeded audit of the same universe must render byte-identically whether
// it ran over the in-process simulator or a real daemon socket.
func CanonicalReport(r *core.AuditReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "user=%s valid=%t effective=%d planned=%d batched=%t\n",
		r.UserID, r.Valid(), r.EffectiveSampleSize, r.PlannedSampleSize, r.SigChecksBatched)
	fmt.Fprintf(&b, "sampled=%v\n", r.Sampled)
	for i, rr := range r.Rounds {
		fmt.Fprintf(&b, "round=%d outcome=%d completed=%t indices=%v\n",
			i, rr.Outcome, rr.Completed, rr.Indices)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "failure index=%d check=%d detail=%q\n", f.Index, f.Check, f.Detail)
	}
	return b.String()
}

// FingerprintReports hashes the canonical forms of a verdict sequence.
// Equal fingerprints mean equal verdicts, block for block and round for
// round — the cross-transport determinism check the daemon experiment
// gates on.
func FingerprintReports(reports ...*core.AuditReport) string {
	h := sha256.New()
	for _, r := range reports {
		h.Write([]byte(CanonicalReport(r)))
	}
	return hex.EncodeToString(h.Sum(nil))
}
