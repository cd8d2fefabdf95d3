package core

import (
	"errors"
	"fmt"
	"time"

	"seccloud/internal/transport"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

// CSP models the cloud service provider: a scheduler that fans a user's
// batch job out across n cloud servers (§III-A: "CSP could divide such a
// task into multiple sub-task and allow them parallelly executed across
// hundreds of Cloud Computing servers"). It is transport-agnostic — each
// server is reached through a transport.Client, which may be loopback or TCP.
type CSP struct {
	clients []transport.Client
	// writeQuorum is the minimum number of replicas that must ack a
	// replicated store; 0 means all of them.
	writeQuorum int
	// health, when set, lets the scheduler skip breaker-open servers and
	// fail sub-jobs over to live replicas.
	health *FleetHealth
}

// NewCSP builds a provider over the given server links.
func NewCSP(clients []transport.Client) (*CSP, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("core: CSP needs at least one server")
	}
	return &CSP{clients: clients}, nil
}

// WithWriteQuorum sets the replication write quorum: ReplicateStore
// succeeds once q replicas ack, tolerating up to n−q unreachable
// servers. q ≤ 0 or q > n restores the default (all replicas).
func (c *CSP) WithWriteQuorum(q int) *CSP {
	c.writeQuorum = q
	return c
}

// WithHealth attaches a fleet health tracker. The scheduler then skips
// breaker-open servers and re-assigns sub-jobs that fail with
// transport-class errors to the next live replica. For the breakers to
// LEARN from the CSP's traffic, the clients should be the fleet's
// instrumented links (Fleet.Client).
func (c *CSP) WithHealth(h *FleetHealth) *CSP {
	c.health = h
	return c
}

// NumServers returns the fleet size.
func (c *CSP) NumServers() int { return len(c.clients) }

// Client exposes the link to server i (for targeted audits).
func (c *CSP) Client(i int) transport.Client { return c.clients[i] }

// ReplicationResult details a replicated store: which replicas acked and
// the per-server errors of those that did not.
type ReplicationResult struct {
	// Acked lists the replica indices that accepted the store.
	Acked []int
	// Errs holds one wrapped error per failed replica.
	Errs []error
}

// ReplicateStore uploads a prepared store request to the fleet — the
// replication model under which any server can execute any sub-task. It
// tries EVERY server (no fail-fast: one dead replica must not block the
// rest of the fleet from receiving the data) and succeeds if the write
// quorum is met, returning the joined per-server errors otherwise.
func (c *CSP) ReplicateStore(user *User, req *wire.StoreRequest) error {
	_, err := c.ReplicateStoreDetail(user, req)
	return err
}

// ReplicateStoreDetail is ReplicateStore with the per-server outcome.
// The error is nil iff the write quorum was met; res.Errs still carries
// the failures of any replicas that missed the write, so callers can
// schedule catch-up repair.
func (c *CSP) ReplicateStoreDetail(user *User, req *wire.StoreRequest) (*ReplicationResult, error) {
	res := &ReplicationResult{}
	for i, cl := range c.clients {
		if err := user.Store(cl, req); err != nil {
			res.Errs = append(res.Errs, fmt.Errorf("core: replicating to server %d: %w", i, err))
			continue
		}
		res.Acked = append(res.Acked, i)
	}
	need := c.writeQuorum
	if need <= 0 || need > len(c.clients) {
		need = len(c.clients)
	}
	if len(res.Acked) < need {
		return res, fmt.Errorf("core: write quorum not met (%d/%d acked): %w",
			len(res.Acked), need, errors.Join(res.Errs...))
	}
	return res, nil
}

// SubJob is one server's slice of a distributed job, together with the
// server's commitment response.
type SubJob struct {
	// ServerIdx is the index of the executing server in the CSP fleet.
	ServerIdx int
	// Slot is the round-robin slot the sub-job was originally assigned
	// to; it differs from ServerIdx when health-aware scheduling failed
	// the sub-job over to another replica.
	Slot int
	// JobID is the sub-job identifier (derived from the parent job).
	JobID string
	// TaskIndices maps sub-job task order back to parent job indices.
	TaskIndices []int
	// Tasks are the sub-job's task specs.
	Tasks []wire.TaskSpec
	// Resp is the server's compute response (results + signed root).
	Resp *wire.ComputeResponse
}

// RunJob splits the job round-robin across the fleet, submits every
// sub-job, and verifies each server's commitment envelope via the user.
// Servers with an empty assignment are skipped.
//
// With a health tracker attached (WithHealth), the scheduler skips
// breaker-open servers and — because every replica holds the data — a
// sub-job whose submission fails with a transport-class error is
// re-submitted to the next live replica instead of failing the whole
// job. The sub-job ID stays bound to the SLOT, not the server, so a
// failed-over sub-job keeps its identity for auditing.
func (c *CSP) RunJob(user *User, jobID string, job *workload.Job) ([]*SubJob, error) {
	assign, err := workload.SplitRoundRobin(job.Len(), len(c.clients))
	if err != nil {
		return nil, fmt.Errorf("core: splitting job: %w", err)
	}
	allTasks := TasksToWire(job)
	subs := make([]*SubJob, 0, len(c.clients))
	for si, indices := range assign {
		if len(indices) == 0 {
			continue
		}
		sub := &SubJob{
			ServerIdx:   si,
			Slot:        si,
			JobID:       fmt.Sprintf("%s/s%d", jobID, si),
			TaskIndices: indices,
			Tasks:       make([]wire.TaskSpec, len(indices)),
		}
		subJob := &workload.Job{Owner: job.Owner, SubTasks: make([]workload.SubTask, len(indices))}
		for k, ti := range indices {
			sub.Tasks[k] = allTasks[ti]
			subJob.SubTasks[k] = job.SubTasks[ti]
		}
		executed, resp, err := c.submitSub(user, si, sub.JobID, subJob)
		if err != nil {
			return nil, err
		}
		sub.ServerIdx = executed
		sub.Resp = resp
		subs = append(subs, sub)
	}
	return subs, nil
}

// submitSub submits one sub-job, preferring the assigned slot's server.
// Without a health tracker it behaves exactly as before: one attempt on
// the slot server. With one, it walks the replicas (slot first, then
// index order), skipping open breakers, and fails over on
// transport-class errors; non-transport errors are terminal.
func (c *CSP) submitSub(user *User, slot int, subJobID string, subJob *workload.Job) (int, *wire.ComputeResponse, error) {
	if c.health == nil {
		resp, err := user.SubmitJob(c.clients[slot], subJobID, subJob)
		if err != nil {
			return slot, nil, fmt.Errorf("core: sub-job on server %d: %w", slot, err)
		}
		return slot, resp, nil
	}
	var firstErr error
	try := func(si int) (bool, *wire.ComputeResponse, error) {
		if !c.health.Breaker(si).Allow() {
			return false, nil, nil
		}
		resp, err := user.SubmitJob(c.clients[si], subJobID, subJob)
		if err == nil {
			return true, resp, nil
		}
		if !transport.IsRetryable(err) && !transport.IsTimeout(err) {
			return true, nil, fmt.Errorf("core: sub-job on server %d: %w", si, err)
		}
		if firstErr == nil {
			firstErr = err
		}
		return false, nil, nil
	}
	for off := 0; off < len(c.clients); off++ {
		si := slot
		if off > 0 {
			// After the slot server, walk the rest in index order.
			si = off - 1
			if si >= slot {
				si = off
			}
		}
		done, resp, err := try(si)
		if err != nil {
			return si, nil, err
		}
		if done {
			return si, resp, nil
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("all breakers open")
	}
	return -1, nil, fmt.Errorf("core: sub-job %s: no replica accepted: %w", subJobID, firstErr)
}

// Delegations converts the sub-jobs into one JobDelegation per server so
// the DA can audit each independently. The warrant should be a wildcard
// (empty JobID) or match each sub-job.
func Delegations(user *User, subs []*SubJob, warrant wire.Warrant) []*JobDelegation {
	out := make([]*JobDelegation, len(subs))
	for i, sub := range subs {
		out[i] = &JobDelegation{
			UserID:   user.ID(),
			ServerID: sub.Resp.ServerID,
			JobID:    sub.JobID,
			Tasks:    sub.Tasks,
			Results:  sub.Resp.Results,
			Root:     sub.Resp.Root,
			RootSig:  sub.Resp.RootSig,
			Warrant:  warrant,
		}
	}
	return out
}

// MergeResults reassembles per-server sub-job results into parent-job
// order. It errors if any parent index is missing or duplicated.
func MergeResults(jobLen int, subs []*SubJob) ([][]byte, error) {
	out := make([][]byte, jobLen)
	seen := make([]bool, jobLen)
	for _, sub := range subs {
		if len(sub.Resp.Results) != len(sub.TaskIndices) {
			return nil, fmt.Errorf("core: sub-job %s has %d results for %d tasks",
				sub.JobID, len(sub.Resp.Results), len(sub.TaskIndices))
		}
		for k, ti := range sub.TaskIndices {
			if ti < 0 || ti >= jobLen {
				return nil, fmt.Errorf("core: sub-job %s references task %d of %d", sub.JobID, ti, jobLen)
			}
			if seen[ti] {
				return nil, fmt.Errorf("core: task %d assigned twice", ti)
			}
			seen[ti] = true
			out[ti] = sub.Resp.Results[k]
		}
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("core: task %d unassigned", i)
		}
	}
	return out, nil
}

// WildcardWarrant issues a warrant with an empty job binding, valid for
// every sub-job of a distributed run until notAfter.
func WildcardWarrant(user *User, delegateID string, notAfter time.Time) (wire.Warrant, error) {
	return user.Delegate(delegateID, "", notAfter)
}
