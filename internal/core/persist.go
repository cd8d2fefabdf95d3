package core

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"slices"
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
//
// A snapshot copies no block and no job: it refers to the WAL records
// that logged them, by LSN, and holds only the dedupe and sequence
// tables. The log keeps every record from the oldest one referred to on
// (store.Log.SnapshotKeep). Overwrites and deletes leave dead records
// behind in that range; when the retained log outgrows baseFactor times
// the live state, the live state is logged whole as one base record,
// every reference moves to it, and the snapshot lets everything before it
// go.

// WAL record kinds (the Kind byte of store.Record).
const (
	recStore   uint8 = 1
	recCompute uint8 = 2
	recUpdate  uint8 = 3
	recDelete  uint8 = 4
	recBase    uint8 = 5 // the whole live state, a snapState
)

// baseFactor bounds the log a snapshot retains at this many times the
// live state's bytes. Logging a base costs one live state's bytes and
// frees the retained log, so the disk holds at most about baseFactor live
// states, and each written byte is written about baseFactor times: once
// in its own record, once in the base that replaces it. A smaller factor
// writes bases more often for less disk; a larger one the reverse.
const baseFactor = 2

// DurabilityConfig attaches a write-ahead log to a server. Nil (the
// default) keeps the server purely in-memory, exactly as before.
type DurabilityConfig struct {
	// Dir is the WAL/snapshot directory, owned exclusively by one server.
	Dir string
	// FS is the filesystem backend the log writes through; nil means the
	// real one. The chaos harness injects a netsim.FaultFS here.
	FS store.FS
	// SnapshotEvery writes a snapshot after this many appended records;
	// 0 disables automatic snapshots. A snapshot refers to the records
	// that logged the live state instead of copying it, and frees the
	// records no live block or job needs; a base record logs the live
	// state whole when the log it retains outgrows baseFactor times it.
	SnapshotEvery int
	// NoSync skips fsync (tests only; a real deployment wants syncs).
	NoSync bool
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
	// WALRecords is how many log records replayed on top of the snapshot,
	// past the ones it retains.
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

// walStore / walCompute / walUpdate / walDelete are the WAL payloads,
// encoded into store.Record bodies by encodeState. Each carries the
// request digest that deduplicates redelivery after a crash-before-ack.
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

// snapState is the whole live state, as a base record logs it.
type snapState struct {
	Storage   map[string][]persistedBlock
	Jobs      []walCompute
	MutSeq    map[string]uint64
	LastStore map[string]uint64
	LastMut   map[string]uint64
}

// snapRefs is the snapshot payload: for each user, each live block's
// position and the LSN of the record holding its live copy, in position
// order; for each job, the LSN of its compute record; and the tables.
type snapRefs struct {
	Blocks    map[string][]blockRef
	Jobs      map[string]uint64
	MutSeq    map[string]uint64
	LastStore map[string]uint64
	LastMut   map[string]uint64
}

type blockRef struct {
	Pos uint64
	LSN uint64
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
		Obs:           d.Obs,
	})
	if err != nil {
		return fmt.Errorf("core: opening WAL for %q: %w", s.id, err)
	}
	s.log = l
	if rec.Snapshot != nil {
		if err := s.restoreSnapshot(rec.Snapshot, rec.Retained); err != nil {
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

// walRecord encodes a mutation record's payload for persistLocked; it is
// nil when the server keeps no log. It needs no lock, so callers can
// encode before they take s.mu.
func (s *Server) walRecord(p statePayload) []byte {
	if s.log == nil {
		return nil
	}
	return encodeState(p)
}

// persistLocked appends one mutation record encoded by walRecord and
// returns its LSN (0 for a server without a log). Callers hold s.mu; a
// non-nil message is the error to answer with, and the mutation must not
// be applied.
func (s *Server) persistLocked(kind uint8, payload []byte) (uint64, wire.Message) {
	if s.log == nil {
		return 0, nil
	}
	lsn, err := s.log.Append(kind, payload)
	if err != nil {
		return 0, &wire.ErrorResponse{Code: "persist_failed", Msg: err.Error()}
	}
	return lsn, nil
}

// maybeSnapshotLocked snapshots the log when due. A failed snapshot or
// base is dropped: the WAL it would have compacted stays authoritative.
// A base too large for one record is refused before it is written, and
// the snapshot keeps referring to the records it would have replaced.
func (s *Server) maybeSnapshotLocked() {
	if s.log == nil || !s.log.SnapshotDue() {
		return
	}
	refs, keep, live := s.refsLocked()
	if keep <= s.log.LSN() && s.log.RetainedBytes(keep) > baseFactor*live {
		if lsn, err := s.log.Append(recBase, s.marshalStateLocked()); err == nil {
			for _, blocks := range s.storage {
				for _, sb := range blocks {
					sb.lsn = lsn
				}
			}
			for _, j := range s.jobs {
				j.lsn = lsn
			}
			refs, keep, _ = s.refsLocked()
		}
	}
	_ = s.log.SnapshotKeep(keep, encodeState(refs))
}

// refsLocked builds the snapshot payload, the lowest LSN it refers to
// (one past the log's last when it refers to none), and about how many
// bytes the live state it describes takes.
func (s *Server) refsLocked() (refs *snapRefs, keep uint64, live int64) {
	refs = &snapRefs{
		Blocks:    make(map[string][]blockRef, len(s.storage)),
		Jobs:      make(map[string]uint64, len(s.jobs)),
		MutSeq:    s.mutSeq,
		LastStore: s.lastStore,
		LastMut:   s.lastMut,
	}
	keep = s.log.LSN() + 1
	for user, blocks := range s.storage {
		brs := make([]blockRef, 0, len(blocks))
		for pos, sb := range blocks {
			brs = append(brs, blockRef{Pos: pos, LSN: sb.lsn})
			keep = min(keep, sb.lsn)
			live += sb.loggedLen()
		}
		slices.SortFunc(brs, func(a, b blockRef) int { return cmp.Compare(a.Pos, b.Pos) })
		refs.Blocks[user] = brs
	}
	for id, j := range s.jobs {
		refs.Jobs[id] = j.lsn
		keep = min(keep, j.lsn)
		live += j.loggedLen()
	}
	return refs, keep, live
}

// loggedLen is about how many bytes the block takes in a WAL record.
func (sb *storedBlock) loggedLen() int64 {
	n := 16 + len(sb.data) + len(sb.sig.SignerID) + len(sb.sig.U)
	for k, v := range sb.sig.Sigma {
		n += len(k) + len(v)
	}
	return int64(n)
}

// loggedLen is about how many bytes the job takes in a WAL record.
func (j *jobRecord) loggedLen() int64 {
	n := 64 + len(j.userID) + len(j.rootSig.U) + len(j.rootSig.V)
	for i := range j.tasks {
		n += len(j.tasks[i].FuncName) + 10 + 8*len(j.tasks[i].Positions)
	}
	for _, r := range j.results {
		n += 1 + len(r)
	}
	return int64(n)
}

// marshalStateLocked serializes the whole live state for a base record.
func (s *Server) marshalStateLocked() []byte {
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
	return encodeState(&st)
}

// restoreBase replaces the whole state with a base record's.
func (s *Server) restoreBase(st *snapState, lsn uint64) error {
	s.storage = make(map[string]map[uint64]*storedBlock, len(st.Storage))
	s.jobs = make(map[string]*jobRecord, len(st.Jobs))
	for user, pbs := range st.Storage {
		userStore := make(map[uint64]*storedBlock, len(pbs))
		for _, pb := range pbs {
			userStore[pb.Pos] = pb.toStored(lsn)
		}
		s.storage[user] = userStore
	}
	for i := range st.Jobs {
		if err := s.installJob(&st.Jobs[i], lsn); err != nil {
			return err
		}
	}
	s.setTables(st.MutSeq, st.LastStore, st.LastMut)
	return nil
}

// setTables installs recovered dedupe and sequence tables.
func (s *Server) setTables(mutSeq, lastStore, lastMut map[string]uint64) {
	orEmpty := func(m map[string]uint64) map[string]uint64 {
		if m == nil {
			return map[string]uint64{}
		}
		return m
	}
	s.mutSeq, s.lastStore, s.lastMut = orEmpty(mutSeq), orEmpty(lastStore), orEmpty(lastMut)
}

// restoreSnapshot rebuilds the state a snapshot describes: it replays
// the records the snapshot retains, requires every live block and job
// they leave behind to be the very copy the snapshot refers to and
// nothing else, and takes the tables from the snapshot. A reference to
// a record that is missing, of the wrong kind, or not the live copy of
// its block — a superseded or deleted one — is refused.
func (s *Server) restoreSnapshot(payload []byte, retained []*store.Record) error {
	var st snapRefs
	if err := decodeState(payload, &st); err != nil {
		return fmt.Errorf("decoding snapshot: %w", err)
	}
	for _, r := range retained {
		if err := s.replayRecord(r); err != nil {
			return fmt.Errorf("replaying retained WAL record %d: %w", r.LSN, err)
		}
	}
	for user := range s.storage {
		if _, ok := st.Blocks[user]; !ok {
			return fmt.Errorf("retained records hold blocks of user %q, the snapshot none", user)
		}
	}
	for user, refs := range st.Blocks {
		blocks := s.storage[user]
		if blocks == nil {
			blocks = make(map[uint64]*storedBlock)
			s.storage[user] = blocks
		}
		if len(refs) != len(blocks) {
			return fmt.Errorf("snapshot refers to %d blocks of user %q, the retained records hold %d", len(refs), user, len(blocks))
		}
		for i, ref := range refs {
			if i > 0 && ref.Pos <= refs[i-1].Pos {
				return fmt.Errorf("snapshot refers to block %d of user %q out of order", ref.Pos, user)
			}
			if sb, ok := blocks[ref.Pos]; !ok || sb.lsn != ref.LSN {
				return fmt.Errorf("snapshot refers to block %d of user %q at LSN %d, which does not hold its live copy", ref.Pos, user, ref.LSN)
			}
		}
	}
	if len(st.Jobs) != len(s.jobs) {
		return fmt.Errorf("snapshot refers to %d jobs, the retained records hold %d", len(st.Jobs), len(s.jobs))
	}
	for id, lsn := range st.Jobs {
		if j, ok := s.jobs[id]; !ok || j.lsn != lsn {
			return fmt.Errorf("snapshot refers to job %s at LSN %d, which does not hold it", id, lsn)
		}
	}
	s.setTables(st.MutSeq, st.LastStore, st.LastMut)
	return nil
}

// replayRecord applies one WAL record during recovery.
func (s *Server) replayRecord(r *store.Record) error {
	switch r.Kind {
	case recStore:
		var w walStore
		if err := decodeState(r.Payload, &w); err != nil {
			return err
		}
		s.applyStoreLocked(w.UserID, w.Digest, w.Blocks, r.LSN)
	case recCompute:
		var w walCompute
		if err := decodeState(r.Payload, &w); err != nil {
			return err
		}
		if err := s.installJob(&w, r.LSN); err != nil {
			return err
		}
	case recUpdate:
		var w walUpdate
		if err := decodeState(r.Payload, &w); err != nil {
			return err
		}
		s.applyUpdateLocked(&w, r.LSN)
	case recDelete:
		var w walDelete
		if err := decodeState(r.Payload, &w); err != nil {
			return err
		}
		s.applyDeleteLocked(&w)
	case recBase:
		var st snapState
		if err := decodeState(r.Payload, &st); err != nil {
			return err
		}
		return s.restoreBase(&st, r.LSN)
	default:
		return fmt.Errorf("unknown WAL record kind %d", r.Kind)
	}
	return nil
}

// installJob rebuilds a job's Merkle tree from its logged tasks and
// results and cross-checks the re-derived root against the root the
// server signed before the crash. Any mismatch is local corruption: the
// server refuses to come up rather than serve state it cannot stand
// behind under audit. lsn is the record the job was logged in.
func (s *Server) installJob(w *walCompute, lsn uint64) error {
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
		lsn:     lsn,
	}
	return nil
}

func (pb *persistedBlock) toStored(lsn uint64) *storedBlock {
	sb := &storedBlock{size: pb.Size, sig: pb.Sig, lsn: lsn}
	if pb.Kept {
		sb.data = pb.Data
	}
	return sb
}

// applyStoreLocked commits a (policy-transformed) upload, logged at lsn,
// to memory.
func (s *Server) applyStoreLocked(userID string, digest uint64, blocks []persistedBlock, lsn uint64) {
	userStore, ok := s.storage[userID]
	if !ok {
		userStore = make(map[uint64]*storedBlock, len(blocks))
		s.storage[userID] = userStore
	}
	for i := range blocks {
		userStore[blocks[i].Pos] = blocks[i].toStored(lsn)
	}
	s.lastStore[userID] = digest
}

// applyUpdateLocked commits a block replacement, logged at lsn, to memory.
func (s *Server) applyUpdateLocked(w *walUpdate, lsn uint64) {
	userStore, ok := s.storage[w.UserID]
	if !ok {
		userStore = make(map[uint64]*storedBlock, 1)
		s.storage[w.UserID] = userStore
	}
	userStore[w.Block.Pos] = w.Block.toStored(lsn)
	s.mutSeq[w.UserID] = w.Seq
	s.lastMut[w.UserID] = w.Digest
}

// applyDeleteLocked commits a block removal to memory.
func (s *Server) applyDeleteLocked(w *walDelete) {
	delete(s.storage[w.UserID], w.Pos)
	s.mutSeq[w.UserID] = w.Seq
	s.lastMut[w.UserID] = w.Digest
}

// --- record codec -------------------------------------------------------------
//
// WAL record and snapshot payloads are one format byte, stateFormat, then
// the payload struct's fields in declaration order in the wire codec
// (wire.Writer / wire.Reader, maps by wire.WriteMap). Digests are 8
// fixed bytes. Every payload has exactly one encoding: the decoder
// refuses trailing bytes, out-of-order keys and lengths past the
// payload's end.

// stateFormat opens every WAL record and snapshot payload written by this
// build. Format 3 held whole-state snapshots and FNV-1a request digests;
// directories written before it hold gob streams, whose first byte is the
// length of a type descriptor and never 4.
const stateFormat byte = 4

// ErrStateFormat marks a WAL record or snapshot whose payload does not
// open with stateFormat: a directory written by an older build, which
// this one cannot replay.
var ErrStateFormat = errors.New("core: WAL or snapshot payload in an unsupported format")

// statePayload is a WAL record or snapshot payload.
type statePayload interface {
	encode(w *wire.Writer)
	decode(r *wire.Reader)
}

// encodeState renders p behind the format byte.
func encodeState(p statePayload) []byte {
	w := wire.Writer{Buf: []byte{stateFormat}}
	p.encode(&w)
	return w.Buf
}

// decodeState parses a payload written by encodeState into p.
func decodeState(payload []byte, p statePayload) error {
	if len(payload) == 0 || payload[0] != stateFormat {
		return fmt.Errorf("payload opens with %x, want format byte %d: %w", payload[:min(1, len(payload))], stateFormat, ErrStateFormat)
	}
	r := wire.NewReader(payload[1:])
	p.decode(r)
	return r.Done()
}

func (pb *persistedBlock) encode(w *wire.Writer) {
	w.Uvarint(pb.Pos)
	w.Bytes(pb.Data)
	w.Bool(pb.Kept)
	w.Uvarint(uint64(pb.Size))
	w.BlockSig(&pb.Sig)
}

// decode refuses a Size no frame could have carried: readBlock
// allocates Size bytes to answer for a block whose payload was dropped.
func (pb *persistedBlock) decode(r *wire.Reader) {
	pb.Pos, pb.Data, pb.Kept, pb.Size = r.Uvarint(), r.Bytes(), r.Bool(), r.Int()
	if pb.Size > wire.MaxFrameLen {
		r.Fail("block size %d exceeds the %d-byte frame bound", pb.Size, wire.MaxFrameLen)
	}
	pb.Sig = r.BlockSig()
}

// persistedBlockMinLen is the shortest persistedBlock encoding.
const persistedBlockMinLen = 4 + 3

func encodeBlocks(w *wire.Writer, pbs []persistedBlock) {
	w.Uvarint(uint64(len(pbs)))
	for i := range pbs {
		pbs[i].encode(w)
	}
}

func decodeBlocks(r *wire.Reader) []persistedBlock {
	n := r.Count(persistedBlockMinLen)
	if n == 0 {
		return nil
	}
	out := make([]persistedBlock, n)
	for i := range out {
		out[i].decode(r)
	}
	return out
}

func (p *walStore) encode(w *wire.Writer) {
	w.String(p.UserID)
	w.Uint64(p.Digest)
	encodeBlocks(w, p.Blocks)
}

func (p *walStore) decode(r *wire.Reader) {
	p.UserID, p.Digest, p.Blocks = r.String(), r.Uint64(), decodeBlocks(r)
}

func (p *walCompute) encode(w *wire.Writer) {
	w.String(p.JobID)
	w.String(p.UserID)
	w.Uint64(p.Digest)
	w.Tasks(p.Tasks)
	w.ByteList(p.Results)
	w.Bytes(p.Root)
	w.IBSig(&p.RootSig)
}

func (p *walCompute) decode(r *wire.Reader) {
	p.JobID, p.UserID, p.Digest, p.Tasks = r.String(), r.String(), r.Uint64(), r.Tasks()
	p.Results, p.Root, p.RootSig = r.PackedByteList(), r.Bytes(), r.IBSig()
}

func (p *walUpdate) encode(w *wire.Writer) {
	w.String(p.UserID)
	w.Uvarint(p.Seq)
	w.Uint64(p.Digest)
	p.Block.encode(w)
}

func (p *walUpdate) decode(r *wire.Reader) {
	p.UserID, p.Seq, p.Digest = r.String(), r.Uvarint(), r.Uint64()
	p.Block.decode(r)
}

func (p *walDelete) encode(w *wire.Writer) {
	w.String(p.UserID)
	w.Uvarint(p.Pos)
	w.Uvarint(p.Seq)
	w.Uint64(p.Digest)
}

func (p *walDelete) decode(r *wire.Reader) {
	p.UserID, p.Pos, p.Seq, p.Digest = r.String(), r.Uvarint(), r.Uvarint(), r.Uint64()
}

func (p *snapState) encode(w *wire.Writer) {
	wire.WriteMap(w, p.Storage, func(pbs []persistedBlock) { encodeBlocks(w, pbs) })
	w.Uvarint(uint64(len(p.Jobs)))
	for i := range p.Jobs {
		p.Jobs[i].encode(w)
	}
	wire.WriteMap(w, p.MutSeq, w.Uvarint)
	wire.WriteMap(w, p.LastStore, w.Uint64)
	wire.WriteMap(w, p.LastMut, w.Uint64)
}

// walComputeMinLen is the shortest walCompute encoding.
const walComputeMinLen = 2 + 8 + 2 + 1 + 1 + 2

func (p *snapState) decode(r *wire.Reader) {
	p.Storage = wire.ReadMap(r, 1, func() []persistedBlock { return decodeBlocks(r) })
	if n := r.Count(walComputeMinLen); n > 0 {
		p.Jobs = make([]walCompute, n)
		for i := range p.Jobs {
			p.Jobs[i].decode(r)
		}
	}
	p.MutSeq = wire.ReadMap(r, 1, r.Uvarint)
	p.LastStore = wire.ReadMap(r, 8, r.Uint64)
	p.LastMut = wire.ReadMap(r, 8, r.Uint64)
}

func (p *snapRefs) encode(w *wire.Writer) {
	wire.WriteMap(w, p.Blocks, func(refs []blockRef) {
		w.Uvarint(uint64(len(refs)))
		for _, ref := range refs {
			w.Uvarint(ref.Pos)
			w.Uvarint(ref.LSN)
		}
	})
	wire.WriteMap(w, p.Jobs, w.Uvarint)
	wire.WriteMap(w, p.MutSeq, w.Uvarint)
	wire.WriteMap(w, p.LastStore, w.Uint64)
	wire.WriteMap(w, p.LastMut, w.Uint64)
}

func (p *snapRefs) decode(r *wire.Reader) {
	p.Blocks = wire.ReadMap(r, 1, func() []blockRef {
		n := r.Count(2)
		if n == 0 {
			return nil
		}
		refs := make([]blockRef, n)
		for i := range refs {
			refs[i] = blockRef{Pos: r.Uvarint(), LSN: r.Uvarint()}
		}
		return refs
	})
	p.Jobs = wire.ReadMap(r, 1, r.Uvarint)
	p.MutSeq = wire.ReadMap(r, 1, r.Uvarint)
	p.LastStore = wire.ReadMap(r, 8, r.Uint64)
	p.LastMut = wire.ReadMap(r, 8, r.Uint64)
}

// --- request digests --------------------------------------------------------
//
// Digests identify a request's full content so a redelivered copy (client
// retry after a crash-before-ack, duplicated frame on the wire) can be
// answered idempotently instead of re-applied. SHA-256 over a canonical,
// length-prefixed encoding, truncated to its first 8 bytes; the map
// inside BlockSig is folded in sorted key order so the digest is stable
// across encodings.

// digest accumulates one request's canonical encoding. Small fields
// collect in buf and reach the hash together, so a block costs two hash
// writes, not a dozen.
type digest struct {
	h   hash.Hash
	buf []byte
}

// digestBuf is buf's capacity; it is hashed once it is nearly full.
const digestBuf = 512

func newDigest(kind string) *digest {
	d := &digest{h: sha256.New(), buf: make([]byte, 0, digestBuf)}
	d.str(kind)
	return d
}

func (d *digest) sum() uint64 {
	d.h.Write(d.buf)
	var b [sha256.Size]byte
	return binary.BigEndian.Uint64(d.h.Sum(b[:0]))
}

// flush hashes buf when it is nearly full, or when a field of n bytes
// that follows would not fit in it.
func (d *digest) flush(n int) {
	if len(d.buf)+n > digestBuf-64 {
		d.h.Write(d.buf)
		d.buf = d.buf[:0]
	}
}

func (d *digest) u64(v uint64) {
	d.flush(0)
	d.buf = binary.BigEndian.AppendUint64(d.buf, v)
}

func (d *digest) bytes(b []byte) {
	d.u64(uint64(len(b)))
	if d.flush(len(b)); len(b) > digestBuf/2 {
		d.h.Write(b)
		return
	}
	d.buf = append(d.buf, b...)
}

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	d.flush(len(s))
	d.buf = append(d.buf, s...)
}

func (d *digest) blockSig(sig *wire.BlockSig) {
	d.str(sig.SignerID)
	d.bytes(sig.U)
	var arr [4]string
	keys := arr[:0]
	for k := range sig.Sigma {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		d.str(k)
		d.bytes(sig.Sigma[k])
	}
}

func digestStoreReq(req *wire.StoreRequest) uint64 {
	d := newDigest("store")
	d.str(req.UserID)
	for i := range req.Blocks {
		d.u64(req.Positions[i])
		d.bytes(req.Blocks[i])
		d.blockSig(&req.Sigs[i])
	}
	return d.sum()
}

func digestComputeReq(req *wire.ComputeRequest) uint64 {
	d := newDigest("compute")
	d.str(req.UserID)
	d.str(req.JobID)
	for i := range req.Tasks {
		d.str(req.Tasks[i].FuncName)
		d.u64(uint64(req.Tasks[i].Arg))
		d.u64(uint64(len(req.Tasks[i].Positions)))
		for _, p := range req.Tasks[i].Positions {
			d.u64(p)
		}
	}
	return d.sum()
}

func digestUpdateReq(req *wire.UpdateRequest) uint64 {
	d := newDigest("update")
	d.str(req.UserID)
	d.u64(req.Position)
	d.u64(req.Seq)
	d.bytes(req.Block)
	d.blockSig(&req.Sig)
	return d.sum()
}

func digestDeleteReq(req *wire.DeleteRequest) uint64 {
	d := newDigest("delete")
	d.str(req.UserID)
	d.u64(req.Position)
	d.u64(req.Seq)
	return d.sum()
}
