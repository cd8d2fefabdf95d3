package main

import "fmt"

// opKind is one of the four things a user of the system does over the
// socket.
type opKind int

const (
	opAudit opKind = iota
	opJob
	opStore
	opUpdate
	numOpKinds
)

func (k opKind) String() string {
	switch k {
	case opAudit:
		return "audit"
	case opJob:
		return "job"
	case opStore:
		return "store"
	case opUpdate:
		return "update"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// auditKind picks which of the DA's two audit protocols a workload runs.
type auditKind int

const (
	auditJob auditKind = iota
	auditStorage
)

// spec is one workload. Every workload sets up two users with an initial
// dataset and one delegated job each on a durable server behind the
// daemon listener, runs its main phase with two closed-loop clients, and
// then probes the op kinds its main phase does not contain, so that every
// end-to-end metric is measured on every parameter set and server
// configuration (the benchmark contract wants each metric from each
// workload). The main phase is what the workload is for; see README.md.
type spec struct {
	name string
	// params names the pairing parameter set.
	params string
	// blocks × blockInts int64 values is each user's initial dataset,
	// uploaded in requests of reqBlocks blocks.
	blocks, blockInts, reqBlocks int
	// jobTasks is the sub-task count of every submitted job.
	jobTasks int
	// audit, sample and rounds shape every audit.
	audit          auditKind
	sample, rounds int
	// snapshotEvery and verifyOnStore configure the durable server.
	snapshotEvery int
	verifyOnStore bool
	// main is what each of the two clients loops on in the main phase.
	// sameUser makes both clients act on user 0 (writes beside reads).
	main     [2]opKind
	sameUser bool
	// mainReqsPerSecond, when > 0, makes the main phase a fixed count of
	// that many ops per client per second of --seconds instead of a timed
	// window, so the state it leaves behind is the same on every commit.
	mainReqsPerSecond int
	// probeOpsPerSecond is how many ops of each kind each client runs, per
	// second of --seconds, when that kind is probed after the main phase.
	probeOpsPerSecond [numOpKinds]int
	// jobsPerServer, when > 0, replaces the server with a fresh one after
	// that many jobs so retained job records stay bounded.
	jobsPerServer int
	// traceOps is the measured op count of each single-client pass of the
	// traced run.
	traceOps int
}

var specs = []*spec{
	// Algorithm 1 at the paper's parameter set. The DA's pairings and
	// point multiplications are almost the whole op; the workload for the
	// crypto hot path, on which a codec or transport change must not
	// show. 64 blocks a user, not 512: signing at SS512 is what set-up
	// costs, and an audit's price does not depend on the dataset size.
	{
		name:   "audit_job_ss512",
		params: "ss512", blocks: 64, blockInts: 32, reqBlocks: 8,
		jobTasks: 512, audit: auditJob, sample: 33, rounds: 1,
		main: [2]opKind{opAudit, opAudit}, traceOps: 40,
		probeOpsPerSecond: [numOpKinds]int{opJob: 10, opUpdate: 8},
	},
	// The computation half: evaluate, Merkle-commit, sign the root, log,
	// ship, rebuild the root at the user. The one path where crypto is
	// small and constant, so funcs, merkle, wire, store and daemon carry
	// it; the workload for the codec (wire and WAL), on which a crypto
	// change must not show much. A job record is about 2 MB, hence the
	// server rotation.
	{
		name:   "compute_commit_test256",
		params: "test256", blocks: 256, blockInts: 32, reqBlocks: 32,
		jobTasks: 8192, audit: auditJob, sample: 33, rounds: 1,
		main: [2]opKind{opJob, opJob}, jobsPerServer: 32, traceOps: 40,
		probeOpsPerSecond: [numOpKinds]int{opAudit: 7, opUpdate: 14},
	},
	// The storage half as users feel it: sign and designate on the client,
	// verify on the server, log, compact every 16 records, then crash and
	// replay. A fixed count, so that what recovery replays and what the
	// disk was made to write are the same on every commit and work moved
	// between the write path, snapshots and recovery shows.
	{
		name:   "ingest_recover_test256",
		params: "test256", blocks: 64, blockInts: 512, reqBlocks: 32,
		jobTasks: 512, audit: auditStorage, sample: 33, rounds: 1,
		snapshotEvery: 16, verifyOnStore: true,
		main: [2]opKind{opStore, opStore}, mainReqsPerSecond: 2, traceOps: 16,
		probeOpsPerSecond: [numOpKinds]int{opAudit: 7, opJob: 7, opUpdate: 7},
	},
	// Writes beside reads on one server mutex, one WAL, one snapshot
	// cycle: the writer replaces the very blocks the auditor samples, so a
	// gain for one that stalls the other shows. Also the only workload
	// with 32 round trips an audit, where per-frame cost is a quarter of
	// the op and not a fiftieth.
	{
		name:   "mutate_audit_mix_test256",
		params: "test256", blocks: 256, blockInts: 512, reqBlocks: 32,
		jobTasks: 512, audit: auditStorage, sample: 32, rounds: 32,
		snapshotEvery: 64,
		main:          [2]opKind{opUpdate, opAudit}, sameUser: true, traceOps: 40,
		probeOpsPerSecond: [numOpKinds]int{opJob: 20},
	},
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inMain reports whether the main phase runs ops of kind k.
func (s *spec) inMain(k opKind) bool { return s.main[0] == k || s.main[1] == k }

// probes lists the op kinds measured after the main phase. Uploads are
// never probed: outside the ingest workload the store metrics are read
// from the set-up uploads, which are a fixed count on every commit.
func (s *spec) probes() []opKind {
	var out []opKind
	for _, k := range []opKind{opAudit, opJob, opUpdate} {
		if !s.inMain(k) {
			out = append(out, k)
		}
	}
	return out
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// n is the sample count behind a timing (printed, not in the JSON).
	n int
}
