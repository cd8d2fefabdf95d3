package core

import (
	mrand "math/rand"
	"reflect"
	"sync"
	"testing"

	"seccloud/internal/funcs"
	"seccloud/internal/netsim"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

// crashAfterChallenges wraps a durable server and kills its "process"
// once it has answered a fixed number of audit challenge round trips —
// the canonical mid-audit crash. Subsequent requests get nil responses
// (the transport surfaces them as disconnects), so the DA records the
// remaining rounds as network faults, not proof failures.
type crashAfterChallenges struct {
	srv       *Server
	mu        sync.Mutex
	remaining int
}

func (c *crashAfterChallenges) Handle(m wire.Message) wire.Message {
	switch m.(type) {
	case *wire.ChallengeRequest, *wire.StorageAuditRequest:
		c.mu.Lock()
		if c.remaining > 0 {
			c.remaining--
		} else {
			c.srv.Crash()
		}
		c.mu.Unlock()
	}
	return c.srv.Handle(m)
}

// testResumeReusesCheckpointedChallenges crashes a durable server midway
// through a 4-round audit, seals the checkpoint, restarts the server from
// disk and resumes: the server must face the same challenge set, not a
// second draw.
func testResumeReusesCheckpointedChallenges(t *testing.T, storage bool) {
	sys := newSystem(t)
	dir := t.TempDir()
	srv, client := durableServer(t, sys, dir, nil)
	ds := workload.NewGenerator(70).GenDataset(sys.user.ID(), 12, 4)
	tg := sys.newAuditTarget(t, client, srv.ID(), storage, ds, funcs.Spec{Name: "sum"}, "res-job")

	// The audit runs 4 sequential rounds; the server dies after round 2.
	crashClient := netsim.NewLoopback(
		&crashAfterChallenges{srv: srv, remaining: 2}, netsim.LinkConfig{})
	report1, err := tg.audit(crashClient, AuditConfig{
		SampleSize: 12, Rounds: 4, Workers: 1,
		Rng: mrand.New(mrand.NewSource(71)),
	})
	if err != nil {
		t.Fatalf("interrupted audit: %v", err)
	}
	if !srv.Crashed() {
		t.Fatal("server did not crash mid-audit")
	}
	if got := report1.NetworkFaultRounds(); got != 2 {
		t.Fatalf("lost rounds = %d, want 2", got)
	}
	if !report1.Valid() || !report1.Degraded() || report1.EffectiveSampleSize != 6 {
		t.Fatalf("interrupted report: valid=%v degraded=%v effective=%d",
			report1.Valid(), report1.Degraded(), report1.EffectiveSampleSize)
	}

	// The checkpoint is sealed into a signed, publicly verifiable record.
	cp := report1.Checkpoint()
	ce, err := sys.agency.SignCheckpoint(cp)
	if err != nil {
		t.Fatalf("SignCheckpoint: %v", err)
	}
	if err := VerifyCheckpoint(sys.user.scheme, ce); err != nil {
		t.Fatalf("VerifyCheckpoint: %v", err)
	}
	forged := *ce
	forged.Checkpoint.Sampled = append([]uint64(nil), ce.Checkpoint.Sampled...)
	forged.Checkpoint.Sampled[0] ^= 1
	if err := VerifyCheckpoint(sys.user.scheme, &forged); err == nil {
		t.Fatal("tampered checkpoint verified")
	}

	// Restart the server from disk and resume from the sealed checkpoint.
	srv2, client2 := durableServer(t, sys, dir, nil)
	if !srv2.Recovery().Recovered {
		t.Fatal("restart recovered nothing")
	}
	report2, err := tg.audit(client2, AuditConfig{Resume: &ce.Checkpoint, Workers: 1})
	if err != nil {
		t.Fatalf("resumed audit: %v", err)
	}

	// The acceptance bar: the resumed audit reuses the checkpointed
	// challenge set byte-for-byte — same sample, and each re-challenged
	// round replays exactly the indices its lost round carried.
	if !reflect.DeepEqual(report2.Sampled, cp.Sampled) {
		t.Fatalf("resumed sample differs:\n  got  %v\n  want %v", report2.Sampled, cp.Sampled)
	}
	if len(report2.Rounds) != len(cp.Rounds) {
		t.Fatalf("resumed rounds = %d, want %d", len(report2.Rounds), len(cp.Rounds))
	}
	for i := range cp.Rounds {
		if !reflect.DeepEqual(report2.Rounds[i].Indices, cp.Rounds[i].Indices) {
			t.Fatalf("round %d indices changed:\n  got  %v\n  want %v",
				i, report2.Rounds[i].Indices, cp.Rounds[i].Indices)
		}
		if cp.Rounds[i].Completed && !reflect.DeepEqual(report2.Rounds[i], cp.Rounds[i]) {
			t.Fatalf("carried round %d rewritten: %+v vs %+v",
				i, report2.Rounds[i], cp.Rounds[i])
		}
	}
	if !report2.Valid() || report2.EffectiveSampleSize != 12 || report2.NetworkFaultRounds() != 0 {
		t.Fatalf("resumed report: valid=%v effective=%d netfaults=%d",
			report2.Valid(), report2.EffectiveSampleSize, report2.NetworkFaultRounds())
	}

	// The completed audit still yields ordinary transferable evidence.
	ev, err := tg.evidence(report2)
	if err != nil {
		t.Fatalf("issuing evidence: %v", err)
	}
	if err := VerifyEvidence(sys.user.scheme, ev); err != nil {
		t.Fatalf("VerifyEvidence: %v", err)
	}

	// A checkpoint for a different subject must be refused outright.
	wrong := *cp
	if storage {
		wrong.UserID = "user:someone-else"
	} else {
		wrong.JobID = "some-other-job"
	}
	if _, err := tg.audit(client2, AuditConfig{Resume: &wrong}); err == nil {
		t.Fatal("resume accepted a checkpoint for a different subject")
	}
}

func TestAuditResumeReusesCheckpointedChallenges(t *testing.T) {
	testResumeReusesCheckpointedChallenges(t, false)
}

func TestStorageAuditResumeReusesCheckpointedChallenges(t *testing.T) {
	testResumeReusesCheckpointedChallenges(t, true)
}
