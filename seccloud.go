// Package seccloud is a Go implementation of SecCloud — "SecCloud:
// Bridging Secure Storage and Computation in Cloud" (Wei, Zhu, Cao, Jia,
// Vasilakos; ICDCS 2010 Workshops) — an auditing framework that jointly
// secures outsourced *storage* and outsourced *computation* with
// privacy-cheating discouragement:
//
//   - Cloud users sign every outsourced data block with an identity-based
//     signature and publish only *designated-verifier* forms of it, so the
//     cloud server and a designated agency (DA) can audit, but transcripts
//     convince nobody else — discouraging servers from selling user data.
//   - Cloud servers commit to all computation results in a Merkle hash
//     tree (root signed) before being challenged.
//   - The DA audits by probabilistic sampling (Algorithm 1): per sampled
//     sub-task it checks the block signature (data+position binding),
//     recomputes the result, and reconstructs the commitment root.
//   - Batch verification (§VI) reduces the DA's pairing count to a
//     constant, independent of users and samples.
//
// The package is a facade over the building blocks in internal/: a
// from-scratch SS512 symmetric pairing, the DVS scheme, Merkle
// commitments, a simulated multi-server cloud with Byzantine cheating
// policies, and the sampling/cost analysis. A typical session:
//
//	sys, _ := seccloud.NewSystem(seccloud.ParamInsecureTest256)
//	user, _ := sys.NewUser("user:alice")
//	server, _ := sys.NewServer("cs:1", seccloud.ServerConfig{Random: rand.Reader})
//	auditor, _ := sys.NewAuditor("da:tpa")
//	link := seccloud.Loopback(server)
//	... user.PrepareStore / user.Store / user.SubmitJob ...
//	report, _ := auditor.AuditJob(link, delegation, seccloud.AuditConfig{SampleSize: 15})
package seccloud

import (
	"context"
	"crypto/rand"
	"fmt"
	"math/big"
	"time"

	"seccloud/internal/core"
	"seccloud/internal/costmodel"
	"seccloud/internal/daemon"
	"seccloud/internal/dvs"
	"seccloud/internal/erasure"
	"seccloud/internal/ibc"
	"seccloud/internal/netsim"
	"seccloud/internal/obs"
	"seccloud/internal/pairing"
	"seccloud/internal/sampling"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

// ParamSet selects the pairing parameter set.
type ParamSet int

// Available parameter sets.
const (
	// ParamSS512 is the production set: 512-bit supersingular curve,
	// 160-bit group — the paper's MIRACL SS512 setting.
	ParamSS512 ParamSet = iota + 1
	// ParamInsecureTest256 is a small, fast, INSECURE set for tests,
	// examples and simulations.
	ParamInsecureTest256
)

// Re-exported protocol types. These alias the internal implementations so
// the whole public surface is reachable from this one package.
type (
	// User is a cloud user: signs blocks, submits jobs, delegates audits.
	User = core.User
	// Server is a cloud storage/computation server.
	Server = core.Server
	// ServerConfig shapes a server (cheating policy, clock, randomness).
	ServerConfig = core.ServerConfig
	// Auditor is the designated agency (DA).
	Auditor = core.Agency
	// AuditConfig shapes an audit run of a job or of stored data (sample
	// size, batching, rounds, retries, deadlines).
	AuditConfig = core.AuditConfig
	// AuditReport is the outcome of a computation or stored-data audit.
	AuditReport = core.AuditReport
	// AuditFailure is one detected cheating instance.
	AuditFailure = core.AuditFailure
	// JobDelegation is the audit hand-off from user to DA.
	JobDelegation = core.JobDelegation
	// CheatPolicy is the Byzantine server behaviour hook.
	CheatPolicy = core.CheatPolicy
	// Honest is the well-behaved policy.
	Honest = core.Honest
	// StorageCheater deletes stored payloads (storage-cheating model).
	StorageCheater = core.StorageCheater
	// ComputationCheater guesses results instead of computing (FCS).
	ComputationCheater = core.ComputationCheater
	// PositionCheater computes on wrong-position data (PCS).
	PositionCheater = core.PositionCheater
	// CompositeCheater chains several policies.
	CompositeCheater = core.Composite
	// CSP is the provider scheduler fanning jobs across servers.
	CSP = core.CSP
	// SubJob is one server's slice of a distributed job.
	SubJob = core.SubJob
	// Client is a transport link to one server.
	Client = netsim.Client
	// LinkConfig models loopback link latency/bandwidth.
	LinkConfig = netsim.LinkConfig
	// Dataset is a user's ordered block collection.
	Dataset = workload.Dataset
	// Job is a computing request F with positions P.
	Job = workload.Job
	// Generator produces reproducible datasets and jobs.
	Generator = workload.Generator
	// OpTimes are measured primitive costs (the paper's Table I).
	OpTimes = costmodel.OpTimes
	// SamplingParams are the uncheatability-analysis inputs.
	SamplingParams = sampling.Params
	// CostParams are the total-cost model inputs (eq. 17).
	CostParams = sampling.CostParams
	// ComputeResponse is a server's results + signed commitment root.
	ComputeResponse = wire.ComputeResponse
	// StoreRequest is a signed upload bundle.
	StoreRequest = wire.StoreRequest
	// Warrant is the audit delegation token.
	Warrant = wire.Warrant
	// DVScheme is the identity-based designated-verifier signature scheme.
	DVScheme = dvs.Scheme
	// DesignatedSig is a designated-verifier signature (U, Σ).
	DesignatedSig = dvs.Designated
	// PrivateKey is an extracted identity secret key.
	PrivateKey = ibc.PrivateKey
	// HistoryLearner estimates audit-cost coefficients online (§VII-C).
	HistoryLearner = costmodel.HistoryLearner
	// Observation is one audit outcome fed to the learner.
	Observation = costmodel.Observation
	// ColdDataCheater deletes blocks outside a hot access set.
	ColdDataCheater = core.ColdDataCheater
	// ErasureCoder is the Reed–Solomon coder behind WithParity.
	ErasureCoder = erasure.Coder
	// Evidence is a signed, transferable audit verdict.
	Evidence = core.Evidence
	// Hub is the observability hub: a metrics registry plus an audit span
	// tracer. Attach with Auditor.WithObs and the Observed* transports,
	// then serve it with Hub.ListenAndServe.
	Hub = obs.Hub
	// AdminServer serves a Hub's /metrics, /traces, /healthz and pprof.
	AdminServer = obs.AdminServer
	// SocketServer is the socket server ServeTCP returns.
	SocketServer = daemon.Server
)

// System is a running SecCloud deployment: the SIO with its master secret
// plus the shared public parameters. All parties are created from it.
type System struct {
	sio *ibc.SIO
}

// NewSystem performs the paper's system-initialization phase with a fresh
// random master secret.
func NewSystem(ps ParamSet) (*System, error) {
	pp, err := paramsFor(ps)
	if err != nil {
		return nil, err
	}
	sio, err := ibc.Setup(pp, rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("seccloud: system setup: %w", err)
	}
	return &System{sio: sio}, nil
}

// NewSystemDeterministic builds a system from a fixed master secret, for
// reproducible simulations and benchmarks only.
func NewSystemDeterministic(ps ParamSet, seed int64) (*System, error) {
	pp, err := paramsFor(ps)
	if err != nil {
		return nil, err
	}
	sio, err := ibc.SetupDeterministic(pp, big.NewInt(seed))
	if err != nil {
		return nil, fmt.Errorf("seccloud: deterministic setup: %w", err)
	}
	return &System{sio: sio}, nil
}

func paramsFor(ps ParamSet) (*pairing.Params, error) {
	switch ps {
	case ParamSS512:
		return pairing.SS512(), nil
	case ParamInsecureTest256:
		return pairing.InsecureTest256(), nil
	default:
		return nil, fmt.Errorf("seccloud: unknown parameter set %d", ps)
	}
}

// Params exposes the public system parameters (for advanced integrations).
func (s *System) Params() *ibc.SystemParams { return s.sio.Params() }

// Scheme exposes the designated-verifier signature scheme over this
// system's parameters, for direct cryptographic use (see
// examples/privacy-audit).
func (s *System) Scheme() *DVScheme { return dvs.NewScheme(s.sio.Params()) }

// ExtractKey issues the identity secret key for id — the SIO registration
// step. In a real deployment this happens over a secure channel.
func (s *System) ExtractKey(id string) (*PrivateKey, error) {
	return s.sio.Extract(id)
}

// NewHistoryLearner returns a cost-coefficient learner with EWMA weight
// alpha ∈ (0, 1].
func NewHistoryLearner(alpha float64) (*HistoryLearner, error) {
	return costmodel.NewHistoryLearner(alpha)
}

// NewUser registers a cloud user: extracts its identity key and wraps it.
func (s *System) NewUser(id string) (*User, error) {
	key, err := s.sio.Extract(id)
	if err != nil {
		return nil, fmt.Errorf("seccloud: registering user: %w", err)
	}
	return core.NewUser(s.sio.Params(), key, rand.Reader), nil
}

// NewServer registers a cloud server. A zero cfg gets honest behaviour
// and crypto/rand randomness; set cfg.VerifyOnStore to have the server
// check designated signatures at upload time.
func (s *System) NewServer(id string, cfg ServerConfig) (*Server, error) {
	key, err := s.sio.Extract(id)
	if err != nil {
		return nil, fmt.Errorf("seccloud: registering server: %w", err)
	}
	if cfg.Random == nil {
		cfg.Random = rand.Reader
	}
	return core.NewServer(s.sio.Params(), key, cfg)
}

// NewAuditor registers the designated agency.
func (s *System) NewAuditor(id string) (*Auditor, error) {
	key, err := s.sio.Extract(id)
	if err != nil {
		return nil, fmt.Errorf("seccloud: registering auditor: %w", err)
	}
	return core.NewAgency(s.sio.Params(), key, rand.Reader), nil
}

// Loopback wires a server into an in-process link with exact byte
// accounting and no modeled latency.
func Loopback(server *Server) Client {
	return netsim.NewLoopback(server, netsim.LinkConfig{})
}

// LoopbackWithLink is Loopback with a latency/bandwidth model.
func LoopbackWithLink(server *Server, link LinkConfig) Client {
	return netsim.NewLoopback(server, link)
}

// ServeTCP exposes a server on a TCP address ("127.0.0.1:0" for an
// ephemeral port) through the daemon's socket server; the returned server
// reports its address and must be closed by the caller.
func ServeTCP(addr string, server *Server) (*SocketServer, error) {
	return daemon.Listen(addr, daemon.ServerConfig{Handler: server})
}

// DialTCP connects to a served server over a pooled daemon client. One
// conn is dialed up front, so an unreachable address fails here rather
// than at the first round trip.
func DialTCP(addr string) (Client, error) { return dialTCP(addr, nil) }

// NewHub returns a fresh observability hub.
func NewHub() *Hub { return obs.NewHub() }

// ObservedLoopback is Loopback with transport instrumentation on hub
// (rpc_requests_total, rpc_latency_seconds under transport="loopback").
func ObservedLoopback(server *Server, hub *Hub) Client {
	return netsim.NewLoopback(server, netsim.LinkConfig{}).WithObs(hub)
}

// DialTCPObserved is DialTCP with transport instrumentation on hub
// (rpc_requests_total, rpc_latency_seconds under transport="daemon").
func DialTCPObserved(addr string, hub *Hub) (Client, error) { return dialTCP(addr, hub) }

func dialTCP(addr string, hub *Hub) (Client, error) {
	client := daemon.NewClient(daemon.NewPool(daemon.PoolConfig{Addr: addr}), daemon.ClientConfig{Obs: hub})
	if err := client.Pool().Warm(context.Background(), 1); err != nil {
		_ = client.Close()
		return nil, err
	}
	return client, nil
}

// NewCSP builds a provider scheduler over server links.
func NewCSP(clients []Client) (*CSP, error) { return core.NewCSP(clients) }

// NewGenerator returns a seeded workload generator.
func NewGenerator(seed int64) *Generator { return workload.NewGenerator(seed) }

// RequiredSampleSize returns the minimal t with cheat-success probability
// ≤ epsilon (Definition 1 / Figure 4).
func RequiredSampleSize(p SamplingParams, epsilon float64) (int, error) {
	return sampling.RequiredSampleSize(p, epsilon)
}

// OptimalSampleSize returns the cost-minimizing t of Theorem 3.
func OptimalSampleSize(c CostParams) (int, error) {
	return sampling.OptimalSampleSize(c)
}

// MeasureOps times the primitive crypto operations on this host — the
// local re-measurement of the paper's Table I.
func MeasureOps(ps ParamSet, iters int) (OpTimes, error) {
	pp, err := paramsFor(ps)
	if err != nil {
		return OpTimes{}, err
	}
	return costmodel.Measure(pp, iters)
}

// Delegate issues the audit warrant and assembles the delegation in one
// step; notAfter bounds the DA's authority in time.
func Delegate(user *User, auditorID, jobID string, job *Job,
	resp *ComputeResponse, notAfter time.Time,
) (*JobDelegation, error) {
	warrant, err := user.Delegate(auditorID, jobID, notAfter)
	if err != nil {
		return nil, err
	}
	return &JobDelegation{
		UserID:   user.ID(),
		ServerID: resp.ServerID,
		JobID:    jobID,
		Tasks:    core.TasksToWire(job),
		Results:  resp.Results,
		Root:     resp.Root,
		RootSig:  resp.RootSig,
		Warrant:  warrant,
	}, nil
}

// Delegations converts distributed sub-jobs into one JobDelegation per
// server for independent audits.
func Delegations(user *User, subs []*SubJob, warrant Warrant) []*JobDelegation {
	return core.Delegations(user, subs, warrant)
}

// MergeResults reassembles per-server sub-job results into parent-job
// order, verifying complete disjoint coverage.
func MergeResults(jobLen int, subs []*SubJob) ([][]byte, error) {
	return core.MergeResults(jobLen, subs)
}

// VerifyEvidence checks a signed audit verdict against the issuing
// auditor's identity; any party holding the system parameters can run it.
func (s *System) VerifyEvidence(e *Evidence) error {
	return core.VerifyEvidence(s.Scheme(), e)
}

// NewColdDataCheater builds the rational storage-cheating policy that
// deletes every block absent from the given access trace.
func NewColdDataCheater(trace []uint64) *ColdDataCheater {
	return core.NewColdDataCheater(trace)
}

// WithParity extends a dataset with Reed–Solomon parity blocks so that up
// to parityShards deleted blocks can be recovered from survivors (the
// retrievability extension; see internal/erasure).
func WithParity(ds *Dataset, parityShards int) (*Dataset, *ErasureCoder, error) {
	return workload.WithParity(ds, parityShards)
}

// RecoverDataset reconstructs nil entries of blocks in place using the
// coder returned by WithParity.
func RecoverDataset(coder *ErasureCoder, blocks [][]byte) error {
	return workload.RecoverDataset(coder, blocks)
}
