package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"sort"

	"seccloud/internal/merkle"
	"seccloud/internal/obs"
	"seccloud/internal/store"
	"seccloud/internal/wire"
)

// Durability wiring: every state mutation a server acknowledges (store,
// compute, update, delete) is first appended to a write-ahead log, so a
// process crash at any instant loses at most mutations that were never
// acked. On restart, NewServer replays snapshot + WAL and re-derives each
// job's Merkle commitment tree from the logged tasks and results; the
// recomputed root is cross-checked against the root the server *signed*
// before the crash. A mismatch means the local log is corrupt — recovery
// fails loudly instead of serving state the DA would rightly flag.

// WAL record kinds (the Kind byte of store.Record).
const (
	recStore   uint8 = 1
	recCompute uint8 = 2
	recUpdate  uint8 = 3
	recDelete  uint8 = 4
)

// DurabilityConfig attaches a write-ahead log to a server. Nil (the
// default) keeps the server purely in-memory, exactly as before.
type DurabilityConfig struct {
	// Dir is the WAL/snapshot directory, owned exclusively by one server.
	Dir string
	// FS is the filesystem backend the log writes through; nil means the
	// real one. The chaos harness injects a store.FaultFS here.
	FS store.FS
	// SnapshotEvery compacts the log after this many appended records;
	// 0 disables automatic snapshots.
	SnapshotEvery int
	// NoSync skips fsync (tests only; a real deployment wants syncs).
	NoSync bool
	// Crash is the crash-point injector shared with the test harness.
	Crash *store.Crasher
	// Obs wires the WAL's instruments (append latency, fsync and record
	// counters, snapshot size) into an observability hub; nil disables.
	Obs *obs.Hub
}

// RecoveryInfo describes what a restarted server rebuilt from disk.
type RecoveryInfo struct {
	// Recovered is true when any durable state was found.
	Recovered bool
	// SnapshotLSN is the LSN the loaded snapshot covers (0 if none).
	SnapshotLSN uint64
	// WALRecords is how many log records replayed on top of the snapshot.
	WALRecords int
	// TornTail is true when a half-written final record was detected by
	// CRC and truncated away.
	TornTail bool
	// Users and Jobs count the rebuilt state.
	Users, Jobs int
}

// persistedBlock is one stored block as the WAL and snapshots record it.
// Kept mirrors storedBlock.data != nil: a cheating policy that dropped the
// payload stays cheating across a restart.
type persistedBlock struct {
	Pos  uint64
	Data []byte
	Kept bool
	Size int
	Sig  wire.BlockSig
}

// walStore / walCompute / walUpdate / walDelete are the WAL payloads, gob-
// encoded into store.Record bodies. Each carries the request digest that
// deduplicates redelivery after a crash-before-ack.
type walStore struct {
	UserID string
	Digest uint64
	Blocks []persistedBlock
}

type walCompute struct {
	JobID   string
	UserID  string
	Digest  uint64
	Tasks   []wire.TaskSpec
	Results [][]byte
	Root    []byte
	RootSig wire.IBSig
}

type walUpdate struct {
	UserID string
	Seq    uint64
	Digest uint64
	Block  persistedBlock
}

type walDelete struct {
	UserID string
	Pos    uint64
	Seq    uint64
	Digest uint64
}

// snapState is the full-server snapshot payload.
type snapState struct {
	Storage   map[string][]persistedBlock
	Jobs      []walCompute
	MutSeq    map[string]uint64
	LastStore map[string]uint64
	LastMut   map[string]uint64
}

// initDurability opens the WAL (if configured) and rebuilds state from it.
// Called from NewServer before the server is exposed to any transport.
func (s *Server) initDurability() error {
	d := s.cfg.Durability
	if d == nil {
		return nil
	}
	l, rec, err := store.Open(store.Config{
		Dir:           d.Dir,
		FS:            d.FS,
		SnapshotEvery: d.SnapshotEvery,
		NoSync:        d.NoSync,
		Crash:         d.Crash,
		Obs:           d.Obs,
	})
	if err != nil {
		return fmt.Errorf("core: opening WAL for %q: %w", s.id, err)
	}
	s.log = l
	if rec.Snapshot != nil {
		if err := s.restoreSnapshot(rec.Snapshot); err != nil {
			l.Close()
			return fmt.Errorf("core: restoring snapshot for %q: %w", s.id, err)
		}
	}
	for _, r := range rec.Records {
		if err := s.replayRecord(r); err != nil {
			l.Close()
			return fmt.Errorf("core: replaying WAL record %d for %q: %w", r.LSN, s.id, err)
		}
	}
	s.recovery = RecoveryInfo{
		Recovered:   rec.Snapshot != nil || len(rec.Records) > 0,
		SnapshotLSN: rec.SnapshotLSN,
		WALRecords:  len(rec.Records),
		TornTail:    rec.TornTail,
		Users:       len(s.storage),
		Jobs:        len(s.jobs),
	}
	return nil
}

// Recovery reports what this incarnation rebuilt at startup.
func (s *Server) Recovery() RecoveryInfo { return s.recovery }

// Crash simulates an out-of-band SIGKILL: the server stops answering (its
// connections just die from the callers' view) and the WAL handle is
// invalidated without flushing; disk state is whatever was made durable.
func (s *Server) Crash() {
	s.crashed.Store(true)
	if s.log != nil {
		s.log.Kill()
	}
}

// Close releases the WAL (no-op for an in-memory server).
func (s *Server) Close() error {
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}

// persistLocked appends one mutation record. Callers hold s.mu and must
// not apply the mutation unless ok. On an injected crash the returned
// message is nil — the handler propagates it and the transport turns it
// into a dead connection.
func (s *Server) persistLocked(kind uint8, payload any) (wire.Message, bool) {
	if s.log == nil {
		return nil, true
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
		return &wire.ErrorResponse{Code: "persist_failed", Msg: err.Error()}, false
	}
	if _, err := s.log.Append(kind, buf.Bytes()); err != nil {
		if errors.Is(err, store.ErrCrashed) {
			s.crashed.Store(true)
			return nil, false
		}
		return &wire.ErrorResponse{Code: "persist_failed", Msg: err.Error()}, false
	}
	return nil, true
}

// maybeSnapshotLocked compacts the log when due. Returns false only when a
// crash point fired mid-snapshot (the mutation is durable but unacked —
// the handler must answer with a dead connection, not an ack).
func (s *Server) maybeSnapshotLocked() bool {
	if s.log == nil || !s.log.SnapshotDue() {
		return true
	}
	payload, err := s.marshalStateLocked()
	if err != nil {
		return true // snapshot skipped; the WAL remains authoritative
	}
	if err := s.log.Snapshot(payload); err != nil && errors.Is(err, store.ErrCrashed) {
		s.crashed.Store(true)
		return false
	}
	return true
}

// marshalStateLocked serializes the full server state for a snapshot.
func (s *Server) marshalStateLocked() ([]byte, error) {
	st := snapState{
		Storage:   make(map[string][]persistedBlock, len(s.storage)),
		MutSeq:    s.mutSeq,
		LastStore: s.lastStore,
		LastMut:   s.lastMut,
	}
	for user, blocks := range s.storage {
		pbs := make([]persistedBlock, 0, len(blocks))
		for pos, sb := range blocks {
			pbs = append(pbs, persistedBlock{
				Pos: pos, Data: sb.data, Kept: sb.data != nil, Size: sb.size, Sig: sb.sig,
			})
		}
		sort.Slice(pbs, func(i, j int) bool { return pbs[i].Pos < pbs[j].Pos })
		st.Storage[user] = pbs
	}
	jobIDs := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		jobIDs = append(jobIDs, id)
	}
	sort.Strings(jobIDs)
	for _, id := range jobIDs {
		j := s.jobs[id]
		st.Jobs = append(st.Jobs, walCompute{
			JobID: id, UserID: j.userID, Digest: j.digest,
			Tasks: j.tasks, Results: j.results,
			Root: append([]byte(nil), j.root[:]...), RootSig: j.rootSig,
		})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// restoreSnapshot rebuilds state from a snapshot payload.
func (s *Server) restoreSnapshot(payload []byte) error {
	var st snapState
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); err != nil {
		return fmt.Errorf("decoding snapshot: %w", err)
	}
	for user, pbs := range st.Storage {
		userStore := make(map[uint64]*storedBlock, len(pbs))
		for _, pb := range pbs {
			userStore[pb.Pos] = pb.toStored()
		}
		s.storage[user] = userStore
	}
	for i := range st.Jobs {
		if err := s.installJob(&st.Jobs[i]); err != nil {
			return err
		}
	}
	if st.MutSeq != nil {
		s.mutSeq = st.MutSeq
	}
	if st.LastStore != nil {
		s.lastStore = st.LastStore
	}
	if st.LastMut != nil {
		s.lastMut = st.LastMut
	}
	return nil
}

// replayRecord applies one WAL record during recovery.
func (s *Server) replayRecord(r *store.Record) error {
	dec := gob.NewDecoder(bytes.NewReader(r.Payload))
	switch r.Kind {
	case recStore:
		var w walStore
		if err := dec.Decode(&w); err != nil {
			return err
		}
		s.applyStoreLocked(w.UserID, w.Digest, w.Blocks)
	case recCompute:
		var w walCompute
		if err := dec.Decode(&w); err != nil {
			return err
		}
		if err := s.installJob(&w); err != nil {
			return err
		}
	case recUpdate:
		var w walUpdate
		if err := dec.Decode(&w); err != nil {
			return err
		}
		s.applyUpdateLocked(&w)
	case recDelete:
		var w walDelete
		if err := dec.Decode(&w); err != nil {
			return err
		}
		s.applyDeleteLocked(&w)
	default:
		return fmt.Errorf("unknown WAL record kind %d", r.Kind)
	}
	return nil
}

// installJob rebuilds a job's Merkle tree from its logged tasks and
// results and cross-checks the re-derived root against the root the
// server signed before the crash. Any mismatch is local corruption: the
// server refuses to come up rather than serve state it cannot stand
// behind under audit.
func (s *Server) installJob(w *walCompute) error {
	leaves, err := CommitmentLeaves(w.Tasks, w.Results)
	if err != nil {
		return fmt.Errorf("job %s: %w", w.JobID, err)
	}
	tree, err := merkle.BuildParallel(leaves, s.cfg.Workers)
	if err != nil {
		return fmt.Errorf("job %s: rebuilding commitment tree: %w", w.JobID, err)
	}
	root := tree.Root()
	if !bytes.Equal(root[:], w.Root) {
		return fmt.Errorf("job %s: recovered commitment root %x does not match logged root %x (local corruption)",
			w.JobID, root[:8], w.Root[:min(8, len(w.Root))])
	}
	sig, err := DecodeIBSig(s.scheme.Params(), w.RootSig)
	if err != nil {
		return fmt.Errorf("job %s: decoding logged root signature: %w", w.JobID, err)
	}
	if err := s.scheme.PublicVerify(s.id, rootSigMessage(w.JobID, root[:]), sig); err != nil {
		return fmt.Errorf("job %s: logged root signature does not verify against recovered root (local corruption): %w",
			w.JobID, err)
	}
	s.jobs[w.JobID] = &jobRecord{
		userID:  w.UserID,
		tasks:   w.Tasks,
		results: w.Results,
		tree:    tree,
		root:    root,
		rootSig: w.RootSig,
		digest:  w.Digest,
	}
	return nil
}

func (pb *persistedBlock) toStored() *storedBlock {
	sb := &storedBlock{size: pb.Size, sig: pb.Sig}
	if pb.Kept {
		sb.data = pb.Data
	}
	return sb
}

// applyStoreLocked commits a (policy-transformed) upload to memory.
func (s *Server) applyStoreLocked(userID string, digest uint64, blocks []persistedBlock) {
	userStore, ok := s.storage[userID]
	if !ok {
		userStore = make(map[uint64]*storedBlock, len(blocks))
		s.storage[userID] = userStore
	}
	for i := range blocks {
		userStore[blocks[i].Pos] = blocks[i].toStored()
	}
	s.lastStore[userID] = digest
}

// applyUpdateLocked commits a block replacement to memory.
func (s *Server) applyUpdateLocked(w *walUpdate) {
	userStore, ok := s.storage[w.UserID]
	if !ok {
		userStore = make(map[uint64]*storedBlock, 1)
		s.storage[w.UserID] = userStore
	}
	userStore[w.Block.Pos] = w.Block.toStored()
	s.mutSeq[w.UserID] = w.Seq
	s.lastMut[w.UserID] = w.Digest
}

// applyDeleteLocked commits a block removal to memory.
func (s *Server) applyDeleteLocked(w *walDelete) {
	delete(s.storage[w.UserID], w.Pos)
	s.mutSeq[w.UserID] = w.Seq
	s.lastMut[w.UserID] = w.Digest
}

// --- request digests --------------------------------------------------------
//
// Digests identify a request's full content so a redelivered copy (client
// retry after a crash-before-ack, duplicated frame on the wire) can be
// answered idempotently instead of re-applied. FNV-1a over a canonical,
// length-prefixed encoding; the map inside BlockSig is folded in sorted
// key order so the digest is stable across encodings.

func digestStr(h hash.Hash64, s string) {
	digestU64(h, uint64(len(s)))
	h.Write([]byte(s))
}

func digestBytes(h hash.Hash64, b []byte) {
	digestU64(h, uint64(len(b)))
	h.Write(b)
}

func digestU64(h hash.Hash64, v uint64) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
	h.Write(b[:])
}

func digestBlockSig(h hash.Hash64, sig *wire.BlockSig) {
	digestStr(h, sig.SignerID)
	digestBytes(h, sig.U)
	keys := make([]string, 0, len(sig.Sigma))
	for k := range sig.Sigma {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		digestStr(h, k)
		digestBytes(h, sig.Sigma[k])
	}
}

func digestStoreReq(req *wire.StoreRequest) uint64 {
	h := fnv.New64a()
	digestStr(h, "store")
	digestStr(h, req.UserID)
	for i := range req.Blocks {
		digestU64(h, req.Positions[i])
		digestBytes(h, req.Blocks[i])
		digestBlockSig(h, &req.Sigs[i])
	}
	return h.Sum64()
}

func digestComputeReq(req *wire.ComputeRequest) uint64 {
	h := fnv.New64a()
	digestStr(h, "compute")
	digestStr(h, req.UserID)
	digestStr(h, req.JobID)
	for i := range req.Tasks {
		digestStr(h, req.Tasks[i].FuncName)
		digestU64(h, uint64(req.Tasks[i].Arg))
		digestU64(h, uint64(len(req.Tasks[i].Positions)))
		for _, p := range req.Tasks[i].Positions {
			digestU64(h, p)
		}
	}
	return h.Sum64()
}

func digestUpdateReq(req *wire.UpdateRequest) uint64 {
	h := fnv.New64a()
	digestStr(h, "update")
	digestStr(h, req.UserID)
	digestU64(h, req.Position)
	digestU64(h, req.Seq)
	digestBytes(h, req.Block)
	digestBlockSig(h, &req.Sig)
	return h.Sum64()
}

func digestDeleteReq(req *wire.DeleteRequest) uint64 {
	h := fnv.New64a()
	digestStr(h, "delete")
	digestStr(h, req.UserID)
	digestU64(h, req.Position)
	digestU64(h, req.Seq)
	return h.Sum64()
}
