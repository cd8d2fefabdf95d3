package core

import (
	"crypto/rand"
	"testing"

	"seccloud/internal/wire"
)

// TestCheckpointV2BindsReplica: a checkpoint's signature covers the
// fleet fields — reattributing a round to a different replica must break
// verification.
func TestCheckpointV2BindsReplica(t *testing.T) {
	sys := newSystem(t, nil)
	cp := &AuditCheckpoint{
		UserID: sys.user.ID(),
		Rounds: []RoundRecord{
			{Indices: []uint64{3}, Attempts: 1, Outcome: RoundOK, Completed: true, Replica: 2, FailedOver: true},
		},
	}
	ce, err := sys.agency.SignCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCheckpoint(sys.agency.scheme, ce); err != nil {
		t.Fatalf("VerifyCheckpoint: %v", err)
	}
	tampered := *ce
	tampered.Checkpoint.Rounds = append([]RoundRecord(nil), ce.Checkpoint.Rounds...)
	tampered.Checkpoint.Rounds[0].Replica = 0
	if err := VerifyCheckpoint(sys.agency.scheme, &tampered); err == nil {
		t.Fatal("signature survived reattributing the serving replica")
	}
}

// TestEvidenceV3BindsOverloadFields: an evidence signature covers the
// overload section — tampering with the degradation flag or the recorded
// confidence must break it.
func TestEvidenceV3BindsOverloadFields(t *testing.T) {
	sys := newSystem(t, nil)
	e := &Evidence{
		AuditorID:           sys.agency.ID(),
		UserID:              sys.user.ID(),
		ServerID:            sys.servers[0].ID(),
		Sampled:             []uint64{1, 5, 7},
		Valid:               true,
		EffectiveSampleSize: 2,
		PlannedSampleSize:   6,
		DegradedByOverload:  true,
		ShedRounds:          1,
		DetectionConfidence: 0.93,
	}
	signed, err := sys.agency.signEvidence(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyEvidence(sys.agency.scheme, signed); err != nil {
		t.Fatalf("VerifyEvidence: %v", err)
	}
	tampered := *signed
	tampered.DegradedByOverload = false
	if err := VerifyEvidence(sys.agency.scheme, &tampered); err == nil {
		t.Fatal("signature survived clearing the degradation flag")
	}
	tampered = *signed
	tampered.DetectionConfidence = 0.999
	if err := VerifyEvidence(sys.agency.scheme, &tampered); err == nil {
		t.Fatal("signature survived inflating the recorded confidence")
	}
}

// TestEvidenceV4BindsThresholdFields: an evidence signature covers the
// quorum trail — rewriting the
// quorum membership, moving a Byzantine share-holder out of the fault
// record, or swapping the combined digest must break verification.
func TestEvidenceV4BindsThresholdFields(t *testing.T) {
	sys := newSystem(t, nil)
	e := &Evidence{
		AuditorID:           sys.agency.ID(),
		UserID:              sys.user.ID(),
		ServerID:            sys.servers[0].ID(),
		Sampled:             []uint64{1, 5, 7},
		Valid:               true,
		EffectiveSampleSize: 3,
		ThresholdQuorum:     "1,2,4",
		ThresholdFaults:     "crashed=3|byz=5",
		ThresholdRecoveries: 2,
		ThresholdCombined:   "aabbcc",
	}
	signed, err := sys.agency.signEvidence(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyEvidence(sys.agency.scheme, signed); err != nil {
		t.Fatalf("VerifyEvidence: %v", err)
	}
	for name, mutate := range map[string]func(*Evidence){
		"quorum":     func(e *Evidence) { e.ThresholdQuorum = "1,2,5" },
		"faults":     func(e *Evidence) { e.ThresholdFaults = "crashed=3,5|byz=" },
		"recoveries": func(e *Evidence) { e.ThresholdRecoveries = 0 },
		"digest":     func(e *Evidence) { e.ThresholdCombined = "ffffff" },
	} {
		tampered := *signed
		mutate(&tampered)
		if err := VerifyEvidence(sys.agency.scheme, &tampered); err == nil {
			t.Fatalf("signature survived tampering with threshold %s", name)
		}
	}
}

// TestCheckpointV3BindsThreshold: a checkpoint's signature covers the
// partial-collection state — rewriting the avoid-list a resumed audit
// would trust must break the seal.
func TestCheckpointV3BindsThreshold(t *testing.T) {
	sys := newSystem(t, nil)
	cp := &AuditCheckpoint{
		UserID:  sys.user.ID(),
		Sampled: []uint64{3},
		Rounds: []RoundRecord{
			{Indices: []uint64{3}, Attempts: 1, Outcome: RoundOK, Completed: true},
		},
		Threshold: &ThresholdTrail{Quorum: []int{1, 3, 4}, Crashed: []int{2}, Byzantine: []int{5}, Recoveries: 2},
	}
	ce, err := sys.agency.SignCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCheckpoint(sys.agency.scheme, ce); err != nil {
		t.Fatalf("VerifyCheckpoint: %v", err)
	}
	tampered := *ce
	tampered.Checkpoint.Threshold = &ThresholdTrail{Quorum: []int{1, 3, 4}, Crashed: nil, Byzantine: []int{5}, Recoveries: 2}
	if err := VerifyCheckpoint(sys.agency.scheme, &tampered); err == nil {
		t.Fatal("signature survived rewriting the crashed share list")
	}
}

// TestSignedBodiesRefuseSeparatorInIDs: the signed bodies join the
// identity fields with '|' and no length prefix, so two verdicts that
// move "|user=…" between the job and user IDs render the same bytes. The
// signer refuses to seal either, and the verifier refuses a signature
// over such a body, so one verdict's signature cannot vouch for the
// other.
func TestSignedBodiesRefuseSeparatorInIDs(t *testing.T) {
	sys := newSystem(t, nil)
	scheme := sys.agency.scheme
	signBody := func(body []byte) wire.IBSig {
		sig, err := scheme.Sign(sys.agency.key, body, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		return EncodeIBSig(scheme.Params(), sig)
	}

	first := &Evidence{AuditorID: sys.agency.ID(), JobID: "job-1|user=user:alice", UserID: "user:mallory",
		ServerID: sys.servers[0].ID(), Sampled: []uint64{1}, Valid: true, EffectiveSampleSize: 1}
	second := *first
	second.JobID, second.UserID = "job-1", "user:alice|user=user:mallory"
	if string(evidenceBody(first)) != string(evidenceBody(&second)) {
		t.Fatal("the two verdicts no longer collide; this test needs a new pair")
	}
	for _, e := range []*Evidence{first, &second} {
		if _, err := sys.agency.signEvidence(e); err == nil {
			t.Fatalf("signed evidence with job %q user %q", e.JobID, e.UserID)
		}
	}
	second.Sig = signBody(evidenceBody(first))
	if err := VerifyEvidence(scheme, &second); err == nil {
		t.Fatal("one verdict's signature verified a different verdict")
	}

	cpFirst := &AuditCheckpoint{JobID: "job-1|user=user:alice", UserID: "user:mallory", Sampled: []uint64{1}}
	cpSecond := *cpFirst
	cpSecond.JobID, cpSecond.UserID = "job-1", "user:alice|user=user:mallory"
	ceFirst := &CheckpointEvidence{AuditorID: sys.agency.ID(), Checkpoint: *cpFirst}
	ceSecond := &CheckpointEvidence{AuditorID: sys.agency.ID(), Checkpoint: cpSecond}
	if string(checkpointBody(ceFirst)) != string(checkpointBody(ceSecond)) {
		t.Fatal("the two checkpoints no longer collide; this test needs a new pair")
	}
	for _, cp := range []*AuditCheckpoint{cpFirst, &cpSecond} {
		if _, err := sys.agency.SignCheckpoint(cp); err == nil {
			t.Fatalf("signed checkpoint with job %q user %q", cp.JobID, cp.UserID)
		}
	}
	ceSecond.Sig = signBody(checkpointBody(ceFirst))
	if err := VerifyCheckpoint(scheme, ceSecond); err == nil {
		t.Fatal("one checkpoint's signature verified a different checkpoint")
	}
}
