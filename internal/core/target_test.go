package core

import (
	"testing"
	"time"

	"seccloud/internal/funcs"
	"seccloud/internal/transport"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

// auditTarget is one thing the DA can audit on a test system — a committed
// job or a stored dataset — so a scenario is written once and run against
// both challenge kinds of the round engine.
type auditTarget struct {
	sys      *system
	serverID string
	blocks   int
	d        *JobDelegation // nil: the target is the stored dataset
	warrant  wire.Warrant   // storage targets
}

// challengeKinds names the two kinds a scenario is tabled over.
var challengeKinds = []struct {
	name    string
	storage bool
}{{"job", false}, {"storage", true}}

// newAuditTarget uploads ds to the server behind client and, for a job
// target, commits a uniform job of spec over it.
func (s *system) newAuditTarget(
	t testing.TB, client transport.Client, serverID string, storage bool,
	ds *workload.Dataset, spec funcs.Spec, jobID string,
) *auditTarget {
	t.Helper()
	req, err := s.user.PrepareStore(ds, serverID, s.agency.ID())
	if err != nil {
		t.Fatalf("PrepareStore: %v", err)
	}
	if err := s.user.Store(client, req); err != nil {
		t.Fatalf("Store: %v", err)
	}
	tg := &auditTarget{sys: s, serverID: serverID, blocks: ds.NumBlocks()}
	if storage {
		if tg.warrant, err = s.user.Delegate(s.agency.ID(), "", time.Now().Add(time.Hour)); err != nil {
			t.Fatalf("Delegate: %v", err)
		}
		return tg
	}
	job := workload.UniformJob(s.user.ID(), spec, ds.NumBlocks())
	resp, err := s.user.SubmitJob(client, jobID, job)
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	tg.d = delegationFor(t, s, serverID, jobID, job, resp)
	return tg
}

// target is newAuditTarget on server 0.
func (s *system) target(t testing.TB, storage bool, ds *workload.Dataset, spec funcs.Spec, jobID string) *auditTarget {
	t.Helper()
	return s.newAuditTarget(t, s.clients[0], s.servers[0].ID(), storage, ds, spec, jobID)
}

// audit runs the target's kind of audit over client. cfg.DatasetSize is
// filled in for storage targets.
func (tg *auditTarget) audit(client transport.Client, cfg AuditConfig) (*AuditReport, error) {
	if tg.d != nil {
		return tg.sys.agency.AuditJob(client, tg.d, cfg)
	}
	cfg.DatasetSize = tg.blocks
	return tg.sys.agency.AuditStorage(client, tg.sys.user.ID(), tg.warrant, cfg)
}

// evidence seals a report of audit into a signed verdict.
func (tg *auditTarget) evidence(r *AuditReport) (*Evidence, error) {
	if tg.d != nil {
		return tg.sys.agency.IssueEvidence(tg.d, r)
	}
	return tg.sys.agency.IssueStorageEvidence(tg.serverID, r)
}
