package core

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"seccloud/internal/dvs"
	"seccloud/internal/funcs"
	"seccloud/internal/ibc"
	"seccloud/internal/merkle"
	"seccloud/internal/store"
	"seccloud/internal/transport"
	"seccloud/internal/wire"
)

// rootSigMessage is the byte string the server signs to commit to a job's
// Merkle root (Sig_CS(R) in Fig. 3), bound to the job identifier.
func rootSigMessage(jobID string, root []byte) []byte {
	return append([]byte("seccloud/root-commitment|"+jobID+"|"), root...)
}

// CommitmentLeaves builds the Merkle leaves v_i = H(y_i ‖ p_i) for a job's
// tasks and results, using each task's first position as the paper's p_i.
func CommitmentLeaves(tasks []wire.TaskSpec, results [][]byte) ([]merkle.LeafData, error) {
	if len(tasks) != len(results) {
		return nil, fmt.Errorf("core: %d tasks but %d results", len(tasks), len(results))
	}
	leaves := make([]merkle.LeafData, len(tasks))
	for i := range tasks {
		var pos uint64
		if len(tasks[i].Positions) > 0 {
			pos = tasks[i].Positions[0]
		}
		leaves[i] = merkle.LeafData{Result: results[i], Position: pos}
	}
	return leaves, nil
}

// CommitmentRoot builds the full commitment tree and returns its root.
func CommitmentRoot(tasks []wire.TaskSpec, results [][]byte) ([merkle.HashLen]byte, error) {
	return CommitmentRootParallel(tasks, results, 1)
}

// CommitmentRootParallel is CommitmentRoot with a bounded parallel tree
// build; the root is bit-identical for every worker count.
func CommitmentRootParallel(tasks []wire.TaskSpec, results [][]byte, workers int) ([merkle.HashLen]byte, error) {
	leaves, err := CommitmentLeaves(tasks, results)
	if err != nil {
		return [merkle.HashLen]byte{}, err
	}
	tree, err := merkle.BuildParallel(leaves, workers)
	if err != nil {
		return [merkle.HashLen]byte{}, err
	}
	return tree.Root(), nil
}

// storedBlock is one block of one user's outsourced data as the server
// holds it. Data may be nil when a cheating policy "deleted" the payload
// while keeping the (small) signature.
type storedBlock struct {
	data []byte
	size int
	sig  wire.BlockSig
	lsn  uint64 // the WAL record that logged this copy; a snapshot refers to it
}

// jobRecord remembers a committed computing job so challenges can be
// answered later. root and rootSig keep the exact commitment the server
// acknowledged: the root signature is randomized, so an idempotent reply
// to a redelivered ComputeRequest must return the stored bytes, not
// re-sign.
type jobRecord struct {
	userID  string
	tasks   []wire.TaskSpec
	results [][]byte
	tree    *merkle.Tree
	root    [merkle.HashLen]byte
	rootSig wire.IBSig
	digest  uint64 // request digest, for duplicate-delivery detection
	lsn     uint64 // the WAL record that logged the job; a snapshot refers to it
}

// response rebuilds the byte-identical ComputeResponse for this job.
func (j *jobRecord) response(jobID, serverID string) *wire.ComputeResponse {
	return &wire.ComputeResponse{
		JobID:    jobID,
		ServerID: serverID,
		Results:  j.results,
		Root:     append([]byte(nil), j.root[:]...),
		RootSig:  j.rootSig,
	}
}

// ServerConfig shapes a cloud server.
type ServerConfig struct {
	// VerifyOnStore makes the server check designated signatures at upload
	// time (the eq. 5 check from the CS side, as one §VI aggregate per
	// request with the per-block check behind it). Defaults to true via
	// NewServer; a cheating or lazy server can disable it.
	VerifyOnStore bool
	// Policy is the cheating policy; nil means Honest.
	Policy CheatPolicy
	// Clock is the time source for warrant expiry; nil means time.Now.
	Clock func() time.Time
	// Random supplies randomness for the root signature, the store-time
	// aggregate check's coefficients and fabricated blocks; must be
	// non-nil (crypto/rand.Reader in production).
	Random io.Reader
	// Workers bounds the server's verification and commitment
	// concurrency: the per-block pass of a store-time check fans out and
	// Merkle trees build in parallel chunks. ≤ 1 runs sequentially;
	// results are identical either way.
	Workers int
	// Durability attaches a write-ahead log: mutations are logged before
	// they are acknowledged, and NewServer recovers state from the log
	// directory. Nil keeps the server in-memory only.
	Durability *DurabilityConfig
}

// Server is one cloud computing/storage server (S_i in §III-A). It
// implements transport.Handler so it can be exposed over any transport.
// All exported methods are safe for concurrent use.
type Server struct {
	id     string
	key    *ibc.PrivateKey
	scheme *dvs.Scheme
	reg    *funcs.Registry
	cfg    ServerConfig

	log      *store.Log  // write-ahead log; nil for an in-memory server
	crashed  atomic.Bool // Crash ran: the "process" is dead
	recovery RecoveryInfo

	sigs sigMemo // warrant signatures that already verified

	mu        sync.Mutex
	storage   map[string]map[uint64]*storedBlock
	jobs      map[string]*jobRecord
	mutSeq    map[string]uint64 // per-user last applied mutation sequence
	lastStore map[string]uint64 // per-user digest of the last applied upload
	lastMut   map[string]uint64 // per-user digest of the last applied update/delete
}

var _ transport.Handler = (*Server)(nil)

// NewServer builds a server from its extracted identity key.
func NewServer(sp *ibc.SystemParams, key *ibc.PrivateKey, cfg ServerConfig) (*Server, error) {
	if cfg.Random == nil {
		return nil, fmt.Errorf("core: server %q needs a randomness source", key.ID)
	}
	if cfg.Policy == nil {
		cfg.Policy = Honest{}
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	s := &Server{
		id:        key.ID,
		key:       key,
		scheme:    dvs.NewScheme(sp),
		reg:       funcs.NewRegistry(),
		cfg:       cfg,
		storage:   make(map[string]map[uint64]*storedBlock),
		jobs:      make(map[string]*jobRecord),
		mutSeq:    make(map[string]uint64),
		lastStore: make(map[string]uint64),
		lastMut:   make(map[string]uint64),
	}
	if err := s.initDurability(); err != nil {
		return nil, err
	}
	return s, nil
}

// ID returns the server identity.
func (s *Server) ID() string { return s.id }

// PolicyName reports the active cheating policy (for experiment logs).
func (s *Server) PolicyName() string { return s.cfg.Policy.Name() }

// Handle dispatches one protocol message. After Crash it returns nil,
// the "process" is dead: the transport drops the connection instead of
// replying.
func (s *Server) Handle(m wire.Message) wire.Message {
	if s.crashed.Load() {
		return nil
	}
	switch req := m.(type) {
	case *wire.StoreRequest:
		return s.handleStore(req)
	case *wire.ComputeRequest:
		return s.handleCompute(req)
	case *wire.ChallengeRequest:
		return s.handleChallenge(req)
	case *wire.StorageAuditRequest:
		return s.handleStorageAudit(req)
	case *wire.UpdateRequest:
		return s.handleUpdate(req)
	case *wire.DeleteRequest:
		return s.handleDelete(req)
	default:
		return &wire.ErrorResponse{Code: "bad_request", Msg: fmt.Sprintf("unsupported message %T", m)}
	}
}

func (s *Server) handleStore(req *wire.StoreRequest) wire.Message {
	if len(req.Positions) != len(req.Blocks) || len(req.Blocks) != len(req.Sigs) {
		return &wire.StoreResponse{OK: false, Error: "mismatched store request lengths"}
	}
	// Duplicate delivery — a client retry after a lost ack, a crash after
	// the WAL append but before the response, a duplicated frame — is
	// acknowledged idempotently without re-verifying or re-applying.
	digest := digestStoreReq(req)
	s.mu.Lock()
	if s.lastStore[req.UserID] == digest && digest != 0 {
		s.mu.Unlock()
		return &wire.StoreResponse{OK: true}
	}
	s.mu.Unlock()
	// Verification happens outside the lock: it is the expensive part.
	// One aggregate equation passes an honest upload. Anything else gets
	// the per-block pass: blocks fan out across the worker pool and the
	// first failure by block order wins, so the response names the refused
	// position and does not depend on scheduling.
	if s.cfg.VerifyOnStore && !s.storeBatchVerifies(req) {
		verifyErrs := make([]string, len(req.Blocks))
		newPool(s.cfg.Workers).forEach(nil, len(req.Blocks), func(i int) {
			d, err := DecodeBlockSig(s.scheme.Params(), &req.Sigs[i], s.id)
			if err != nil {
				verifyErrs[i] = fmt.Sprintf("block %d: %v", req.Positions[i], err)
				return
			}
			msg := BlockMessage(req.Positions[i], req.Blocks[i])
			if err := s.scheme.Verify(d, msg, s.key); err != nil {
				verifyErrs[i] = fmt.Sprintf("block %d signature invalid: %v", req.Positions[i], err)
			}
		})
		for _, e := range verifyErrs {
			if e != "" {
				return &wire.StoreResponse{OK: false, Error: e}
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lastStore[req.UserID] == digest && digest != 0 {
		return &wire.StoreResponse{OK: true} // lost the race to a concurrent duplicate
	}
	blocks := make([]persistedBlock, len(req.Blocks))
	for i := range req.Blocks {
		pos := req.Positions[i]
		data, keep := s.cfg.Policy.OnStore(pos, req.Blocks[i], req.Sigs[i])
		pb := persistedBlock{Pos: pos, Kept: keep, Size: len(req.Blocks[i]), Sig: req.Sigs[i]}
		if keep {
			pb.Data = data
		}
		blocks[i] = pb
	}
	// Log before ack: the mutation is not acknowledged unless it is
	// durable (or the server runs without a WAL).
	lsn, msg := s.persistLocked(recStore, s.walRecord(&walStore{UserID: req.UserID, Digest: digest, Blocks: blocks}))
	if msg != nil {
		return msg
	}
	s.applyStoreLocked(req.UserID, digest, blocks, lsn)
	s.maybeSnapshotLocked()
	return &wire.StoreResponse{OK: true}
}

// storeBatchVerifies runs §VI's aggregate check (eq. 8–9, with the
// small-exponent randomization) over every block of an upload: one
// pairing for the request where the per-block pass pays one a block. It
// only ever vouches for a whole upload: a signature that does not decode,
// an aggregate that does not hold, a U outside G1 and a randomness source
// that fails all read as false, and the caller's per-block pass then
// decides, and says which block is refused and why.
//
// The upload is where membership of U is checked: the aggregate itself
// does not need it, but every U stored here is served at audit time,
// where the DA's aggregate checks none. Both checks always run, δ's drawn
// before γ's, so the server's randomness stream does not depend on which
// of them fails.
func (s *Server) storeBatchVerifies(req *wire.StoreRequest) bool {
	items := make([]dvs.BatchItem, len(req.Blocks))
	for i := range req.Blocks {
		d, err := DecodeBlockSig(s.scheme.Params(), &req.Sigs[i], s.id)
		if err != nil {
			return false
		}
		items[i] = dvs.NewBatchItem(BlockMessage(req.Positions[i], req.Blocks[i]), d)
	}
	verr := s.scheme.BatchVerifyRandomized(items, s.key, s.cfg.Random)
	merr := s.scheme.BatchMembership(items, s.cfg.Random)
	return verr == nil && merr == nil
}

// readBlock fetches a stored block, fabricating random bytes when the
// payload was deleted by a cheating policy — the paper's "the cloud could
// simply reply the cloud users' storage query with a random number".
func (s *Server) readBlock(userID string, pos uint64) (*storedBlock, []byte, error) {
	s.mu.Lock()
	sb, ok := s.storage[userID][pos]
	s.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("core: no block at position %d for user %q", pos, userID)
	}
	if sb.data != nil {
		return sb, sb.data, nil
	}
	fab := make([]byte, sb.size)
	if _, err := io.ReadFull(s.cfg.Random, fab); err != nil {
		return nil, nil, fmt.Errorf("core: fabricating block: %w", err)
	}
	return sb, fab, nil
}

// serveBlock is readBlock for an answer: the bytes and the signature are
// copies, so a consumer of the answer in this process (a loopback
// transport's handler, a test) that edits a served Σ or block in place
// edits its own copy and never the stored one.
func (s *Server) serveBlock(userID string, pos uint64) ([]byte, wire.BlockSig, error) {
	sb, data, err := s.readBlock(userID, pos)
	if err != nil {
		return nil, wire.BlockSig{}, err
	}
	if sb.data != nil {
		data = append([]byte(nil), data...)
	}
	return data, sb.sig.Clone(), nil
}

// dupComputeLocked answers a redelivered ComputeRequest from the job
// table: a digest match returns the stored byte-identical response (the
// root signature is randomized, so re-signing would not be idempotent); a
// mismatch is a job-ID collision and is refused rather than overwritten.
func (s *Server) dupComputeLocked(req *wire.ComputeRequest, digest uint64) (wire.Message, bool) {
	job, ok := s.jobs[req.JobID]
	if !ok {
		return nil, false
	}
	if job.digest == digest {
		return job.response(req.JobID, s.id), true
	}
	return &wire.ComputeResponse{JobID: req.JobID, ServerID: s.id,
		Error: "job ID already committed with a different request"}, true
}

func (s *Server) handleCompute(req *wire.ComputeRequest) wire.Message {
	digest := digestComputeReq(req)
	s.mu.Lock()
	if resp, dup := s.dupComputeLocked(req, digest); dup {
		s.mu.Unlock()
		return resp
	}
	s.mu.Unlock()
	results := make([][]byte, len(req.Tasks))
	for i, task := range req.Tasks {
		i, task := i, task
		honest := func() ([]byte, error) {
			blocks := make([][]byte, len(task.Positions))
			for k, pos := range task.Positions {
				actual := s.cfg.Policy.RedirectPosition(i, pos)
				_, data, err := s.readBlock(req.UserID, actual)
				if err != nil {
					return nil, err
				}
				blocks[k] = data
			}
			return s.reg.Eval(funcs.Spec{Name: task.FuncName, Arg: task.Arg}, blocks)
		}
		y, err := s.cfg.Policy.OnResult(i, task, honest)
		if err != nil {
			return &wire.ComputeResponse{JobID: req.JobID, ServerID: s.id,
				Error: fmt.Sprintf("task %d: %v", i, err)}
		}
		results[i] = y
	}
	leaves, err := CommitmentLeaves(req.Tasks, results)
	if err != nil {
		return &wire.ComputeResponse{JobID: req.JobID, ServerID: s.id, Error: err.Error()}
	}
	tree, err := merkle.BuildParallel(leaves, s.cfg.Workers)
	if err != nil {
		return &wire.ComputeResponse{JobID: req.JobID, ServerID: s.id, Error: err.Error()}
	}
	root := tree.Root()
	sig, err := s.scheme.Sign(s.key, rootSigMessage(req.JobID, root[:]), s.cfg.Random)
	if err != nil {
		return &wire.ComputeResponse{JobID: req.JobID, ServerID: s.id, Error: err.Error()}
	}
	rootSig := EncodeIBSig(s.scheme.Params(), sig)
	// The record is encoded before the lock: for a large job it is the
	// biggest piece of work left, and it reads nothing the lock guards.
	rec := s.walRecord(&walCompute{
		JobID: req.JobID, UserID: req.UserID, Digest: digest,
		Tasks: req.Tasks, Results: results,
		Root: root[:], RootSig: rootSig,
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	if resp, dup := s.dupComputeLocked(req, digest); dup {
		return resp // lost the race to a concurrent duplicate
	}
	lsn, msg := s.persistLocked(recCompute, rec)
	if msg != nil {
		return msg
	}
	s.jobs[req.JobID] = &jobRecord{
		userID:  req.UserID,
		tasks:   req.Tasks,
		results: results,
		tree:    tree,
		root:    root,
		rootSig: rootSig,
		digest:  digest,
		lsn:     lsn,
	}
	s.maybeSnapshotLocked()
	return &wire.ComputeResponse{
		JobID:    req.JobID,
		ServerID: s.id,
		Results:  results,
		Root:     root[:],
		RootSig:  rootSig,
	}
}

// checkWarrant verifies the delegation token ("it first verifies the
// warrant to check whether it is expired", §V-D). A DA drives many
// challenge rounds under one warrant, so the signature goes through the
// server's sigMemo; the policy checks (expiry, bindings) run every time.
func (s *Server) checkWarrant(w *wire.Warrant, jobID string) error {
	return s.sigs.verifyWarrant(s.scheme, w, jobID, "", s.cfg.Clock())
}

func (s *Server) handleChallenge(req *wire.ChallengeRequest) wire.Message {
	if err := s.checkWarrant(&req.Warrant, req.JobID); err != nil {
		return &wire.ChallengeResponse{JobID: req.JobID, Error: err.Error()}
	}
	s.mu.Lock()
	job, ok := s.jobs[req.JobID]
	s.mu.Unlock()
	if !ok {
		return &wire.ChallengeResponse{JobID: req.JobID, Error: "unknown job"}
	}
	if err := checkWarrantOwner(&req.Warrant, job.userID); err != nil {
		return &wire.ChallengeResponse{JobID: req.JobID, Error: err.Error()}
	}
	items := make([]wire.ChallengeItem, 0, len(req.Indices))
	for _, idx := range req.Indices {
		if idx >= uint64(len(job.tasks)) {
			return &wire.ChallengeResponse{JobID: req.JobID,
				Error: fmt.Sprintf("challenge index %d out of range", idx)}
		}
		task := job.tasks[idx]
		item := wire.ChallengeItem{
			Index:  idx,
			Task:   task,
			Blocks: make([][]byte, len(task.Positions)),
			Sigs:   make([]wire.BlockSig, len(task.Positions)),
			Result: job.results[idx],
		}
		for k, pos := range task.Positions {
			actual := s.cfg.Policy.RedirectPosition(int(idx), pos)
			data, sig, err := s.serveBlock(job.userID, actual)
			if err != nil {
				return &wire.ChallengeResponse{JobID: req.JobID, Error: err.Error()}
			}
			item.Blocks[k], item.Sigs[k] = data, sig
		}
		proof, err := job.tree.Prove(int(idx))
		if err != nil {
			return &wire.ChallengeResponse{JobID: req.JobID, Error: err.Error()}
		}
		item.ProofPath = make([]wire.ProofStep, len(proof.Steps))
		for k, st := range proof.Steps {
			item.ProofPath[k] = wire.ProofStep{Hash: append([]byte(nil), st.Hash[:]...), Right: st.Right}
		}
		items = append(items, item)
	}
	return &wire.ChallengeResponse{JobID: req.JobID, Items: items}
}

func (s *Server) handleStorageAudit(req *wire.StorageAuditRequest) wire.Message {
	if err := s.checkWarrant(&req.Warrant, ""); err != nil {
		return &wire.StorageAuditResponse{Error: err.Error()}
	}
	if err := checkWarrantOwner(&req.Warrant, req.UserID); err != nil {
		return &wire.StorageAuditResponse{Error: err.Error()}
	}
	resp := &wire.StorageAuditResponse{
		Blocks: make([][]byte, len(req.Positions)),
		Sigs:   make([]wire.BlockSig, len(req.Positions)),
	}
	for i, pos := range req.Positions {
		data, sig, err := s.serveBlock(req.UserID, pos)
		if err != nil {
			return &wire.StorageAuditResponse{Error: err.Error()}
		}
		resp.Blocks[i], resp.Sigs[i] = data, sig
	}
	return resp
}

// StoredBlockCount reports how many blocks the server holds for a user
// (diagnostics for tests and experiments).
func (s *Server) StoredBlockCount(userID string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.storage[userID])
}

// TamperBlock is a fault-injection hook for tests and simulations: it
// overwrites the in-memory payload of one stored block without touching
// its signature (nil models a deleted payload — readBlock fabricates
// random bytes, the paper's "reply ... with a random number"). The
// previous payload is returned so callers can restore it. The tamper
// deliberately bypasses the WAL: it simulates silent media corruption,
// which by definition happens underneath the durability layer — only an
// audit-driven repair through the store path can truly heal it.
func (s *Server) TamperBlock(userID string, pos uint64, data []byte) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sb, ok := s.storage[userID][pos]
	if !ok {
		return nil, false
	}
	prev := sb.data
	sb.data = data
	return prev, true
}
