package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"seccloud/internal/dvs"
	"seccloud/internal/wire"
)

// Audit evidence — the accountability story the paper motivates in §I
// ("some secure cloud computing mechanism should be in place to meet the
// needs of deciding whether cloud provider or the users should be
// responsible for it once there is any problem taking place"): after an
// audit, the DA can issue a *signed verdict* binding the job, the sampled
// indices, and the outcome. The DA's raw identity-based signature is
// publicly verifiable against its identity, so the verdict is transferable
// evidence — a user can hand it to the CSP (or a court) and neither party
// can later dispute what the audit found.
//
// Note the asymmetry with block signatures: audit verdicts are *meant* to
// convince third parties, so they use the publicly verifiable signature,
// not the designated form.

// EvidenceVersion is the one evidence format: the signed body is tagged
// "audit-evidence/v4" and the SCEV byte codec writes this version and
// refuses every other. Checkpoints have one format too, tagged
// "audit-checkpoint/v3".
const EvidenceVersion = 4

// Evidence is a signed audit verdict.
//
// Fault awareness: the verdict distinguishes "the server cheated"
// (Valid=false, FailureSummary non-empty — cryptographic/protocol check
// failures only) from "the network degraded the audit"
// (EffectiveSampleSize < len(Sampled), NetworkFaultRounds > 0). Transport
// failures can shrink the sample the verdict covers, but they can never
// flip Valid to false: an honest CS behind a lossy link is not framed,
// and a cheating CS cannot hide behind fake timeouts because the rounds
// that DID complete still expose it with the eq. 10/12 probability for
// the effective sample size.
type Evidence struct {
	// AuditorID, JobID, UserID and ServerID may not contain '|', the
	// signed body's field separator (see checkSignedIDs).
	AuditorID string
	JobID     string
	UserID    string
	ServerID  string
	Sampled   []uint64
	Valid     bool
	// FailureSummary is a compact, canonical rendering of the failures
	// (check kinds and indices only — details may contain free text).
	FailureSummary string
	// EffectiveSampleSize is how many sampled challenges actually
	// completed; the verdict's detection confidence derives from this,
	// not from len(Sampled).
	EffectiveSampleSize int
	// NetworkFaultRounds counts challenge rounds lost to the transport.
	NetworkFaultRounds int
	// FailoverSummary is the canonical rendering of the
	// fleet audit's failover trail — which rounds moved to which replica
	// and why. Empty for single-server audits.
	FailoverSummary string
	// QuorumSummary is the canonical rendering of the
	// quorum cross-examination verdicts. Empty when nothing was accused.
	QuorumSummary string
	// PlannedSampleSize is the sample size the audit
	// intended before any overload degradation. A degraded verdict shows
	// its reduced coverage here, signed — the confidence trade is
	// auditable, never silent.
	PlannedSampleSize int
	// DegradedByOverload records that the overload
	// controller deliberately shrank the challenge set.
	DegradedByOverload bool
	// ShedRounds counts rounds the server's admission
	// control refused. Sheds are non-accusatory, like network faults, but
	// the verdict records them so sustained shedding is visible evidence.
	ShedRounds int
	// HedgedRounds counts rounds won by a hedged duplicate.
	HedgedRounds int
	// DetectionConfidence is the achieved 1 − Pr[cheat
	// success] for the effective sample (0 when the audit ran without a
	// sampling analysis).
	DetectionConfidence float64
	// ThresholdQuorum is the canonical rendering of the
	// share quorum whose verified partials produced this verdict; "" for
	// single-key agencies. The verdict is attributable to specific
	// share-holders, not just "the agency".
	ThresholdQuorum string
	// ThresholdFaults canonically renders the share-holders
	// lost (crashed) or caught lying (Byzantine) during collection. A
	// Byzantine share-holder appears HERE — in the auditor-side fault
	// record — and never in FailureSummary, which accuses only storage.
	ThresholdFaults string
	// ThresholdRecoveries counts failed share-holders that
	// were replaced while still reaching quorum.
	ThresholdRecoveries int
	// ThresholdCombined is the hex SHA-256 of the combined
	// aggregate-check GT element — the publicly comparable fingerprint of
	// the quorum's joint computation (identical for every honest quorum).
	ThresholdCombined string
	Sig               wire.IBSig
}

// evidenceBody is the byte string the verdict signature covers.
func evidenceBody(e *Evidence) []byte {
	var b strings.Builder
	b.WriteString("seccloud/audit-evidence/v4|auditor=")
	b.WriteString(e.AuditorID)
	b.WriteString("|job=")
	b.WriteString(e.JobID)
	b.WriteString("|user=")
	b.WriteString(e.UserID)
	b.WriteString("|server=")
	b.WriteString(e.ServerID)
	b.WriteString("|valid=")
	if e.Valid {
		b.WriteString("1")
	} else {
		b.WriteString("0")
	}
	b.WriteString("|failures=")
	b.WriteString(e.FailureSummary)
	b.WriteString("|effective=")
	b.WriteString(fmt.Sprintf("%d", e.EffectiveSampleSize))
	b.WriteString("|netfaults=")
	b.WriteString(fmt.Sprintf("%d", e.NetworkFaultRounds))
	b.WriteString("|failover=")
	b.WriteString(e.FailoverSummary)
	b.WriteString("|quorum=")
	b.WriteString(e.QuorumSummary)
	b.WriteString("|planned=")
	b.WriteString(strconv.Itoa(e.PlannedSampleSize))
	b.WriteString("|degraded=")
	if e.DegradedByOverload {
		b.WriteString("1")
	} else {
		b.WriteString("0")
	}
	b.WriteString("|shed=")
	b.WriteString(strconv.Itoa(e.ShedRounds))
	b.WriteString("|hedged=")
	b.WriteString(strconv.Itoa(e.HedgedRounds))
	b.WriteString("|confidence=")
	// Shortest round-trip float rendering: canonical and stable.
	b.WriteString(strconv.FormatFloat(e.DetectionConfidence, 'g', -1, 64))
	b.WriteString("|tquorum=")
	b.WriteString(e.ThresholdQuorum)
	b.WriteString("|tfaults=")
	b.WriteString(e.ThresholdFaults)
	b.WriteString("|trecoveries=")
	b.WriteString(strconv.Itoa(e.ThresholdRecoveries))
	b.WriteString("|tsigma=")
	b.WriteString(e.ThresholdCombined)
	b.WriteString("|sampled=")
	buf := make([]byte, 8)
	for _, idx := range e.Sampled {
		binary.BigEndian.PutUint64(buf, idx)
		b.Write(buf)
	}
	return []byte(b.String())
}

// summarizeFailures renders failures canonically: sorted "check@index"
// pairs joined by commas.
func summarizeFailures(failures []AuditFailure) string {
	parts := make([]string, len(failures))
	for i, f := range failures {
		parts[i] = fmt.Sprintf("%s@%d", f.Check, f.Index)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// summarizeShareSet renders a share-index set canonically: sorted,
// comma-joined ("" for an empty set). Trail slices are already sorted and
// deduplicated, but the rendering re-sorts defensively — signed bytes
// must not depend on caller discipline.
func summarizeShareSet(indices []int) string {
	s := append([]int(nil), indices...)
	sort.Ints(s)
	parts := make([]string, len(s))
	for i, idx := range s {
		parts[i] = strconv.Itoa(idx)
	}
	return strings.Join(parts, ",")
}

// summarizeThresholdFaults renders the auditor-side fault record:
// "crashed=i,j|byz=k". Byzantine share-holders live in this string — on
// the auditor side of the verdict — by construction; nothing from the
// trail ever reaches FailureSummary.
func summarizeThresholdFaults(tr *ThresholdTrail) string {
	return "crashed=" + summarizeShareSet(tr.Crashed) + "|byz=" + summarizeShareSet(tr.Byzantine)
}

// applyThresholdTrail stamps a report's quorum trail into the threshold
// evidence fields. Nil trail (single-key agency) leaves them empty.
func applyThresholdTrail(e *Evidence, tr *ThresholdTrail) {
	if tr == nil {
		return
	}
	e.ThresholdQuorum = summarizeShareSet(tr.Quorum)
	e.ThresholdFaults = summarizeThresholdFaults(tr)
	e.ThresholdRecoveries = tr.Recoveries
	e.ThresholdCombined = tr.CombinedDigest
}

var errNilReport = errors.New("core: nil audit report")

// IssueEvidence signs a job audit report into transferable evidence.
func (a *Agency) IssueEvidence(d *JobDelegation, report *AuditReport) (*Evidence, error) {
	if report == nil {
		return nil, errNilReport
	}
	return a.issueEvidence(report, d.UserID, d.ServerID)
}

// IssueStorageEvidence signs a storage audit report into transferable
// evidence, the stored-data twin of IssueEvidence. For a fleet audit
// serverID names the PRIMARY replica (f.ServerID(cfg.Primary), the server
// the audit was aimed at); the failover summary records which rounds
// other replicas answered, so a crashed primary shows up as moved rounds
// — never as a bad proof — and the quorum summary carries the
// localized-vs-provider-wide classification of any accusation. Both are
// "" for a single-server audit.
func (a *Agency) IssueStorageEvidence(serverID string, report *AuditReport) (*Evidence, error) {
	if report == nil {
		return nil, errNilReport
	}
	return a.issueEvidence(report, report.UserID, serverID)
}

// issueEvidence is the one report → Evidence builder: every audit flavor
// signs the same fields.
func (a *Agency) issueEvidence(report *AuditReport, userID, serverID string) (*Evidence, error) {
	e := &Evidence{
		AuditorID:           a.key.ID,
		JobID:               report.JobID,
		UserID:              userID,
		ServerID:            serverID,
		Sampled:             append([]uint64(nil), report.Sampled...),
		Valid:               report.Valid(),
		FailureSummary:      summarizeFailures(report.Failures),
		EffectiveSampleSize: report.EffectiveSampleSize,
		NetworkFaultRounds:  report.NetworkFaultRounds(),
		PlannedSampleSize:   report.PlannedSampleSize,
		DegradedByOverload:  report.DegradedByOverload,
		ShedRounds:          report.ShedRounds(),
		HedgedRounds:        report.HedgedRounds(),
		DetectionConfidence: report.AchievedConfidence,
		FailoverSummary:     summarizeFailovers(report.Failovers),
		QuorumSummary:       summarizeQuorums(report.Quorums),
	}
	applyThresholdTrail(e, report.Threshold)
	return a.signEvidence(e)
}

func (a *Agency) signEvidence(e *Evidence) (*Evidence, error) {
	if err := checkSignedIDs(e.AuditorID, e.JobID, e.UserID, e.ServerID); err != nil {
		return nil, err
	}
	sp := a.obs.tracer().Start("evidence.sign",
		"job", e.JobID, "user", e.UserID, "server", e.ServerID,
		"valid", strconv.FormatBool(e.Valid))
	defer sp.End()
	sig, err := a.scheme.Sign(a.key, evidenceBody(e), a.random)
	if err != nil {
		return nil, fmt.Errorf("core: signing evidence: %w", err)
	}
	e.Sig = EncodeIBSig(a.scheme.Params(), sig)
	return e, nil
}

// CheckpointEvidence is a signed audit checkpoint: when a server crash
// (or any transport failure) interrupts an audit, the DA seals the
// challenge set it sampled and the verdicts reached so far under its own
// signature. The resumed audit runs from this record, so the DA can prove
// to any third party that the restarted server faced the *same* sampled
// indices — a crash cannot buy a cheating server a second draw, and a DA
// cannot quietly re-sample until the server passes.
type CheckpointEvidence struct {
	// AuditorID, like the checkpoint's JobID and UserID, may not contain
	// '|' (see checkSignedIDs).
	AuditorID  string
	Checkpoint AuditCheckpoint
	Sig        wire.IBSig
}

// checkpointBody is the byte string the checkpoint signature covers: a
// canonical rendering of the challenge set and every round's verdict. It
// binds each round's serving replica and failover flag, so a resumed
// fleet audit cannot silently reattribute who answered, and the threshold
// partial-collection state, so a resumed audit's share avoid-list is as
// tamper-evident as its challenge set.
func checkpointBody(ce *CheckpointEvidence) []byte {
	cp := &ce.Checkpoint
	var b strings.Builder
	b.WriteString("seccloud/audit-checkpoint/v3|auditor=")
	b.WriteString(ce.AuditorID)
	b.WriteString("|job=")
	b.WriteString(cp.JobID)
	b.WriteString("|user=")
	b.WriteString(cp.UserID)
	b.WriteString("|failures=")
	b.WriteString(summarizeFailures(cp.Failures))
	buf := make([]byte, 8)
	b.WriteString("|sampled=")
	for _, idx := range cp.Sampled {
		binary.BigEndian.PutUint64(buf, idx)
		b.Write(buf)
	}
	for _, rr := range cp.Rounds {
		fmt.Fprintf(&b, "|round=%d,%v,%d,%d,%v:", rr.Outcome, rr.Completed, rr.Attempts, rr.Replica, rr.FailedOver)
		for _, idx := range rr.Indices {
			binary.BigEndian.PutUint64(buf, idx)
			b.Write(buf)
		}
	}
	b.WriteString("|threshold=")
	if tr := cp.Threshold; tr != nil {
		b.WriteString("quorum=")
		b.WriteString(summarizeShareSet(tr.Quorum))
		b.WriteString("|")
		b.WriteString(summarizeThresholdFaults(tr))
		b.WriteString("|recoveries=")
		b.WriteString(strconv.Itoa(tr.Recoveries))
		b.WriteString("|sigma=")
		b.WriteString(tr.CombinedDigest)
	}
	return []byte(b.String())
}

// SignCheckpoint seals an interrupted audit's state under the DA's key.
func (a *Agency) SignCheckpoint(cp *AuditCheckpoint) (*CheckpointEvidence, error) {
	if cp == nil {
		return nil, fmt.Errorf("core: nil audit checkpoint")
	}
	if err := checkSignedIDs(a.key.ID, cp.JobID, cp.UserID); err != nil {
		return nil, err
	}
	ce := &CheckpointEvidence{AuditorID: a.key.ID, Checkpoint: *cp}
	sig, err := a.scheme.Sign(a.key, checkpointBody(ce), a.random)
	if err != nil {
		return nil, fmt.Errorf("core: signing checkpoint: %w", err)
	}
	ce.Sig = EncodeIBSig(a.scheme.Params(), sig)
	return ce, nil
}

// VerifyCheckpoint checks a sealed checkpoint against the auditor's
// identity — publicly verifiable, like Evidence.
func VerifyCheckpoint(scheme *dvs.Scheme, ce *CheckpointEvidence) error {
	if ce == nil {
		return fmt.Errorf("core: nil checkpoint evidence")
	}
	if err := checkSignedIDs(ce.AuditorID, ce.Checkpoint.JobID, ce.Checkpoint.UserID); err != nil {
		return err
	}
	sig, err := DecodeIBSig(scheme.Params(), ce.Sig)
	if err != nil {
		return fmt.Errorf("core: checkpoint signature malformed: %w", err)
	}
	if err := scheme.PublicVerify(ce.AuditorID, checkpointBody(ce), sig); err != nil {
		return fmt.Errorf("core: checkpoint signature invalid: %w", err)
	}
	return nil
}

// VerifyEvidence lets ANY party holding the system parameters check a
// verdict against the auditor's identity — no secret key needed.
func VerifyEvidence(scheme *dvs.Scheme, e *Evidence) error {
	if e == nil {
		return fmt.Errorf("core: nil evidence")
	}
	if err := checkSignedIDs(e.AuditorID, e.JobID, e.UserID, e.ServerID); err != nil {
		return err
	}
	sig, err := DecodeIBSig(scheme.Params(), e.Sig)
	if err != nil {
		return fmt.Errorf("core: evidence signature malformed: %w", err)
	}
	if err := scheme.PublicVerify(e.AuditorID, evidenceBody(e), sig); err != nil {
		return fmt.Errorf("core: evidence signature invalid: %w", err)
	}
	return nil
}

// checkSignedIDs refuses an identity that contains '|'. The signed bodies
// join these fields with '|' and no length prefix, so a separator inside
// one would let two different verdicts render the same bytes: {job
// "j|user=a", user "m"} and {job "j", user "a|user=m"} sign identically.
// The DA renders every other field itself, from numbers or canonical
// summaries that never contain a field name.
func checkSignedIDs(ids ...string) error {
	for _, id := range ids {
		if strings.Contains(id, "|") {
			return fmt.Errorf("core: identifier %q contains the signed-body separator '|'", id)
		}
	}
	return nil
}
