package core

import (
	"bytes"
	"crypto/rand"
	"encoding/gob"
	"errors"
	"io"
	"math"
	mrand "math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"seccloud/internal/funcs"
	"seccloud/internal/netsim"
	"seccloud/internal/store"
	"seccloud/internal/transport"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

// Crashed reports whether Crash has "killed" this process.
func (s *Server) Crashed() bool { return s.crashed.Load() }

// durableServer builds (or rebuilds, for an existing dir) the durable
// server "cs:durable" over the given WAL directory. Rebuilding runs the
// full recovery path: snapshot load, WAL replay, Merkle cross-checks.
// A non-nil disk carries the log, with syncs: the after-log crash point
// fires at a record's sync.
func durableServer(t testing.TB, sys *system, dir string, disk *netsim.FaultFS) (*Server, transport.Client) {
	t.Helper()
	key, err := sys.sio.Extract("cs:durable")
	if err != nil {
		t.Fatal(err)
	}
	d := &DurabilityConfig{Dir: dir, SnapshotEvery: 3, NoSync: true}
	if disk != nil {
		d.FS, d.NoSync = disk, false
	}
	srv, err := NewServer(sys.sio.Params(), key, ServerConfig{
		VerifyOnStore: true,
		Random:        rand.Reader,
		Durability:    d,
	})
	if err != nil {
		t.Fatalf("NewServer(durable): %v", err)
	}
	return srv, netsim.NewLoopback(srv, netsim.LinkConfig{})
}

// buildUpdate hand-crafts a fully authenticated UpdateRequest so tests
// can redeliver it byte-for-byte.
func buildUpdate(t testing.TB, sys *system, serverID string, pos, seq uint64, block []byte) *wire.UpdateRequest {
	t.Helper()
	req := &wire.UpdateRequest{UserID: sys.user.ID(), Position: pos, Seq: seq, Block: block}
	sig, err := sys.user.SignBlock(pos, block, serverID, sys.agency.ID())
	if err != nil {
		t.Fatal(err)
	}
	req.Sig = sig
	userKey, err := sys.sio.Extract(sys.user.ID())
	if err != nil {
		t.Fatal(err)
	}
	scheme := sys.user.scheme
	auth, err := scheme.Sign(userKey, req.UpdateAuthBody(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	req.Auth = EncodeIBSig(scheme.Params(), auth)
	return req
}

// delegationFor packages a compute response for the DA.
func delegationFor(t testing.TB, sys *system, serverID, jobID string, job *workload.Job, resp *wire.ComputeResponse) *JobDelegation {
	t.Helper()
	warrant, err := sys.user.Delegate(sys.agency.ID(), jobID, time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	return &JobDelegation{
		UserID:   sys.user.ID(),
		ServerID: serverID,
		JobID:    jobID,
		Tasks:    TasksToWire(job),
		Results:  resp.Results,
		Root:     resp.Root,
		RootSig:  resp.RootSig,
		Warrant:  warrant,
	}
}

func TestDurableServerRecoversAndPassesAudits(t *testing.T) {
	sys := newSystem(t)
	dir := t.TempDir()
	srv, client := durableServer(t, sys, dir, nil)

	gen := workload.NewGenerator(60)
	ds := gen.GenDataset(sys.user.ID(), 10, 4)
	req, err := sys.user.PrepareStore(ds, srv.ID(), sys.agency.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.user.Store(client, req); err != nil {
		t.Fatalf("Store: %v", err)
	}
	job := workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "sum"}, 8)
	resp, err := sys.user.SubmitJob(client, "dur-job", job)
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	// A mutation epilogue: update block 8, delete block 9 (neither is read
	// by the job, so post-restart challenges stay answerable).
	newBlock := funcs.EncodeBlock([]int64{7, 7, 7, 7})
	if err := sys.user.UpdateBlock(client, 8, newBlock, srv.ID(), sys.agency.ID()); err != nil {
		t.Fatalf("UpdateBlock: %v", err)
	}
	if err := sys.user.DeleteBlock(client, 9); err != nil {
		t.Fatalf("DeleteBlock: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// "Restart the process": rebuild the server from disk alone.
	srv2, client2 := durableServer(t, sys, dir, nil)
	info := srv2.Recovery()
	if !info.Recovered || info.Jobs != 1 || info.Users != 1 || info.TornTail {
		t.Fatalf("recovery info %+v", info)
	}
	if got := srv2.StoredBlockCount(sys.user.ID()); got != 9 {
		t.Fatalf("recovered %d blocks, want 9", got)
	}

	d := delegationFor(t, sys, srv2.ID(), "dur-job", job, resp)
	report, err := sys.agency.AuditJob(client2, d, AuditConfig{
		SampleSize: 8, Rng: mrand.New(mrand.NewSource(61)),
	})
	if err != nil {
		t.Fatalf("AuditJob after restart: %v", err)
	}
	if !report.Valid() {
		t.Fatalf("recovered server failed job audit: %+v", report.Failures)
	}
	warrant, err := sys.user.Delegate(sys.agency.ID(), "", time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	sreport, err := sys.agency.AuditStorage(client2, sys.user.ID(), warrant, AuditConfig{
		DatasetSize: 9, SampleSize: 9, Rng: mrand.New(mrand.NewSource(62)),
	})
	if err != nil {
		t.Fatalf("AuditStorage after restart: %v", err)
	}
	if !sreport.Valid() {
		t.Fatalf("recovered server failed storage audit: %+v", sreport.Failures)
	}
}

func TestDuplicateDeliveryIsByteIdentical(t *testing.T) {
	sys := newSystem(t)
	dir := t.TempDir()
	srv, _ := durableServer(t, sys, dir, nil)

	gen := workload.NewGenerator(63)
	ds := gen.GenDataset(sys.user.ID(), 6, 4)
	req, err := sys.user.PrepareStore(ds, srv.ID(), sys.agency.ID())
	if err != nil {
		t.Fatal(err)
	}
	if r := srv.Handle(req).(*wire.StoreResponse); !r.OK {
		t.Fatalf("store rejected: %s", r.Error)
	}
	lsnAfterStore := srv.log.LSN()
	// Redelivered upload: acked, not re-applied, nothing new logged.
	if r := srv.Handle(req).(*wire.StoreResponse); !r.OK {
		t.Fatalf("duplicate store rejected: %s", r.Error)
	}
	if got := srv.StoredBlockCount(sys.user.ID()); got != 6 {
		t.Fatalf("duplicate store changed state: %d blocks", got)
	}
	if srv.log.LSN() != lsnAfterStore {
		t.Fatal("duplicate store appended to the WAL")
	}

	job := workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "digest"}, 6)
	creq := &wire.ComputeRequest{UserID: sys.user.ID(), JobID: "dup-job", Tasks: TasksToWire(job)}
	resp1 := srv.Handle(creq).(*wire.ComputeResponse)
	if resp1.Error != "" {
		t.Fatalf("compute failed: %s", resp1.Error)
	}
	resp2 := srv.Handle(creq).(*wire.ComputeResponse)
	enc1, err := wire.Encode(resp1)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := wire.Encode(resp2)
	if err != nil {
		t.Fatal(err)
	}
	// Byte-identical including the (randomized) root signature: the reply
	// comes from the job table, it is not re-signed.
	if !bytes.Equal(enc1, enc2) {
		t.Fatal("duplicate compute response differs from the original")
	}

	// Same job ID with different tasks is a collision, not an overwrite.
	other := workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "sum"}, 6)
	coll := srv.Handle(&wire.ComputeRequest{
		UserID: sys.user.ID(), JobID: "dup-job", Tasks: TasksToWire(other),
	}).(*wire.ComputeResponse)
	if coll.Error == "" {
		t.Fatal("job ID reuse with different tasks accepted")
	}
}

func TestCrashMatrix(t *testing.T) {
	for _, p := range netsim.CrashPoints() {
		t.Run(p.String(), func(t *testing.T) {
			sys := newSystem(t)
			dir := t.TempDir()
			disk := netsim.NewFaultFS(netsim.FaultFSConfig{Seed: 1})
			srv, client := durableServer(t, sys, dir, disk)
			// The process the disk's crash kills: the gate drops the
			// reply of the request the crash fired in, and every later one.
			gate := netsim.NewCrashGate(disk, srv, srv.Crash)

			gen := workload.NewGenerator(64)
			ds := gen.GenDataset(sys.user.ID(), 10, 4)
			req, err := sys.user.PrepareStore(ds, srv.ID(), sys.agency.ID())
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.user.Store(client, req); err != nil { // WAL append 1
				t.Fatalf("Store: %v", err)
			}
			job := workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "sum"}, 8)
			resp, err := sys.user.SubmitJob(client, "cm-job", job) // WAL append 2
			if err != nil {
				t.Fatalf("SubmitJob: %v", err)
			}
			d := delegationFor(t, sys, srv.ID(), "cm-job", job, resp)

			// The crashing mutation — an update to block 9, outside the
			// job's read set, so the job's claimed results stay truthful.
			// WAL append 3, which also makes the snapshot due
			// (SnapshotEvery=3) so CrashMidSnapshot can fire.
			upd := buildUpdate(t, sys, srv.ID(), 9, 1, funcs.EncodeBlock([]int64{5, 5, 5, 5}))
			disk.Arm(p)
			if r := gate.Handle(upd); r != nil {
				t.Fatalf("crashed server answered: %#v", r)
			}
			if !disk.Fired() || !srv.Crashed() {
				t.Fatalf("crash did not fire (fired=%v crashed=%v)", disk.Fired(), srv.Crashed())
			}
			// The dead "process" answers nothing at all.
			if r := gate.Handle(&wire.ChallengeRequest{JobID: "cm-job"}); r != nil {
				t.Fatalf("dead server answered a challenge: %#v", r)
			}

			// Restart from disk.
			srv2, client2 := durableServer(t, sys, dir, nil)
			info := srv2.Recovery()
			if !info.Recovered {
				t.Fatalf("nothing recovered: %+v", info)
			}
			if (p == netsim.CrashTornTail) != info.TornTail {
				t.Fatalf("torn tail reported %v for crash point %v", info.TornTail, p)
			}
			applied := p == netsim.CrashAfterLog || p == netsim.CrashMidSnapshot
			if applied && info.WALRecords != 3 {
				t.Fatalf("want the mutation durable, recovered %d records", info.WALRecords)
			}
			if !applied && info.WALRecords != 2 {
				t.Fatalf("want the mutation lost, recovered %d records", info.WALRecords)
			}

			// The client's retry of the unacked mutation: either a dedup ack
			// (mutation was durable) or a fresh application (it was lost).
			// Both converge to the same state.
			if r := srv2.Handle(upd).(*wire.StoreResponse); !r.OK {
				t.Fatalf("retried mutation rejected after %v: %s", p, r.Error)
			}
			if got := srv2.StoredBlockCount(sys.user.ID()); got != 10 {
				t.Fatalf("recovered %d blocks, want 10", got)
			}

			// DA audits against the restarted server: computation and
			// storage both pass with zero failures — an honest crash must
			// never look like cheating.
			report, err := sys.agency.AuditJob(client2, d, AuditConfig{
				SampleSize: 8, Rng: mrand.New(mrand.NewSource(65)),
			})
			if err != nil {
				t.Fatalf("AuditJob after %v: %v", p, err)
			}
			if !report.Valid() {
				t.Fatalf("job audit failed after %v: %+v", p, report.Failures)
			}
			warrant, err := sys.user.Delegate(sys.agency.ID(), "", time.Now().Add(time.Hour))
			if err != nil {
				t.Fatal(err)
			}
			sreport, err := sys.agency.AuditStorage(client2, sys.user.ID(), warrant, AuditConfig{
				DatasetSize: 10, SampleSize: 10, Rng: mrand.New(mrand.NewSource(66)),
			})
			if err != nil {
				t.Fatalf("AuditStorage after %v: %v", p, err)
			}
			if !sreport.Valid() {
				t.Fatalf("storage audit failed after %v: %+v", p, sreport.Failures)
			}
		})
	}
}

func TestRecoveryRejectsTamperedLog(t *testing.T) {
	sys := newSystem(t)
	dir := t.TempDir()
	srv, client := durableServer(t, sys, dir, nil)

	gen := workload.NewGenerator(67)
	ds := gen.GenDataset(sys.user.ID(), 4, 4)
	req, err := sys.user.PrepareStore(ds, srv.ID(), sys.agency.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.user.Store(client, req); err != nil {
		t.Fatal(err)
	}
	job := workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "sum"}, 4)
	if _, err := sys.user.SubmitJob(client, "tamper-job", job); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	// Rewrite the WAL with one compute result flipped and every frame CRC
	// recomputed: the storage layer sees a perfectly valid log, but the
	// re-derived Merkle root no longer matches the root the server signed.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("wal segments: %v (%v)", segs, err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	const magicLen = 8 // "SECWAL01"
	rest := raw[magicLen:]
	var out bytes.Buffer
	out.Write(raw[:magicLen])
	tampered := false
	for {
		rec, n, err := store.ReadRecord(rest)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("reading WAL record: %v", err)
		}
		rest = rest[n:]
		if rec.Kind == recCompute && !tampered {
			var w walCompute
			if err := decodeState(rec.Payload, &w); err != nil {
				t.Fatal(err)
			}
			w.Results[0][0] ^= 1
			rec.Payload = encodeState(&w)
			tampered = true
		}
		frame, err := store.EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(frame)
	}
	if !tampered {
		t.Fatal("no compute record found to tamper")
	}
	if err := os.WriteFile(segs[0], out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// Recovery must refuse to serve silently-corrupted state.
	key, err := sys.sio.Extract("cs:durable")
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewServer(sys.sio.Params(), key, ServerConfig{
		VerifyOnStore: true,
		Random:        rand.Reader,
		Durability:    &DurabilityConfig{Dir: dir, NoSync: true},
	})
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("tampered log recovered without complaint: %v", err)
	}
}

// A directory written by a build that logged gob streams is refused with
// ErrStateFormat, whether the gob payload is a WAL record or a snapshot:
// recovery must never guess at a payload it cannot parse.
func TestRecoveryRefusesGobDirectory(t *testing.T) {
	sys := newSystem(t, nil)
	gobBytes := func(v any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for name, write := range map[string]func(l *store.Log) error{
		"record": func(l *store.Log) error {
			_, err := l.Append(recDelete, gobBytes(&walDelete{UserID: "u", Pos: 1, Seq: 2, Digest: 3}))
			return err
		},
		"snapshot": func(l *store.Log) error {
			// The snapshot covers (and compacts away) one record first.
			if _, err := l.Append(recDelete, gobBytes(&walDelete{UserID: "u", Pos: 1, Seq: 2})); err != nil {
				return err
			}
			return l.Snapshot(gobBytes(&snapState{MutSeq: map[string]uint64{"u": 1}}))
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := store.Open(store.Config{Dir: dir, NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := write(l); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			key, err := sys.sio.Extract("cs:durable")
			if err != nil {
				t.Fatal(err)
			}
			_, err = NewServer(sys.sio.Params(), key, ServerConfig{
				Random:     rand.Reader,
				Durability: &DurabilityConfig{Dir: dir, NoSync: true},
			})
			if !errors.Is(err, ErrStateFormat) {
				t.Fatalf("gob %s recovered: got %v, want ErrStateFormat", name, err)
			}
		})
	}
}

// A persisted block's size is what readBlock allocates to answer for a
// dropped payload, so the decoder refuses one no frame could have carried.
func TestStateCodecRefusesOutOfRangeBlockSize(t *testing.T) {
	for _, tc := range []struct {
		size uint64
		ok   bool
	}{{0, true}, {wire.MaxFrameLen, true}, {wire.MaxFrameLen + 1, false}, {1 << 31, false}, {math.MaxUint64, false}} {
		w := wire.Writer{Buf: []byte{stateFormat}}
		w.String("u")
		w.Uint64(7)
		w.Uvarint(1) // one block
		w.Uvarint(0) // Pos
		w.Bytes(nil) // Data
		w.Bool(false)
		w.Uvarint(tc.size)
		w.BlockSig(&wire.BlockSig{})
		var got walStore
		err := decodeState(w.Buf, &got)
		if (err == nil) != tc.ok {
			t.Fatalf("size %d: decode error %v, want accepted %v", tc.size, err, tc.ok)
		}
		if tc.ok && got.Blocks[0].Size != int(tc.size) {
			t.Fatalf("size %d decoded as %d", tc.size, got.Blocks[0].Size)
		}
	}
}

// refsFixture is a server without a log and the records a snapshot of
// it retains: user u's upload of blocks 0 and 1 at LSN 1, job j over
// block 0 at LSN 2, the replacement of block 1 at LSN 3 and the deletion
// of block 0 at LSN 4. What they leave live is block 1 from LSN 3 and
// the job from LSN 2, which goodRefs refers to.
func refsFixture(tb testing.TB) (*Server, []*store.Record) {
	tb.Helper()
	sys := newSystem(tb)
	key, err := sys.sio.Extract("cs:fuzz")
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := NewServer(sys.sio.Params(), key, ServerConfig{Random: rand.Reader})
	if err != nil {
		tb.Fatal(err)
	}
	// A real compute record, whose root and signature check out, over a
	// stored block.
	srv.Handle(&wire.StoreRequest{UserID: "u", Positions: []uint64{0}, Blocks: [][]byte{make([]byte, 16)},
		Sigs: []wire.BlockSig{{SignerID: "u"}}})
	resp := srv.Handle(&wire.ComputeRequest{UserID: "u", JobID: "j",
		Tasks: []wire.TaskSpec{{FuncName: "sum", Positions: []uint64{0}}, {FuncName: "digest", Positions: []uint64{0}}}}).(*wire.ComputeResponse)
	job := srv.jobs["j"]
	if job == nil {
		tb.Fatalf("fixture job refused: %s", resp.Error)
	}
	block := func(pos uint64, fill byte) persistedBlock {
		return persistedBlock{Pos: pos, Data: bytes.Repeat([]byte{fill}, 16), Kept: true, Size: 16, Sig: wire.BlockSig{SignerID: "u"}}
	}
	payloads := []statePayload{
		&walStore{UserID: "u", Digest: 1, Blocks: []persistedBlock{block(0, 0), block(1, 1)}},
		&walCompute{JobID: "j", UserID: "u", Digest: job.digest,
			Tasks: job.tasks, Results: resp.Results, Root: resp.Root, RootSig: resp.RootSig},
		&walUpdate{UserID: "u", Seq: 1, Digest: 2, Block: block(1, 2)},
		&walDelete{UserID: "u", Pos: 0, Seq: 2, Digest: 3},
	}
	kinds := []uint8{recStore, recCompute, recUpdate, recDelete}
	retained := make([]*store.Record, len(payloads))
	for i, p := range payloads {
		retained[i] = &store.Record{LSN: uint64(i + 1), Kind: kinds[i], Payload: encodeState(p)}
	}
	resetState(srv)
	return srv, retained
}

// resetState empties a server's state.
func resetState(srv *Server) {
	srv.storage = make(map[string]map[uint64]*storedBlock)
	srv.jobs = make(map[string]*jobRecord)
	srv.mutSeq, srv.lastStore, srv.lastMut = map[string]uint64{}, map[string]uint64{}, map[string]uint64{}
}

// refsPayload is a snapshot of refsFixture's records referring to
// user u's blocks and job j as given.
func refsPayload(blocks []blockRef, jobLSN uint64) []byte {
	return encodeState(&snapRefs{
		Blocks: map[string][]blockRef{"u": blocks}, Jobs: map[string]uint64{"j": jobLSN},
		MutSeq: map[string]uint64{"u": 2}, LastStore: map[string]uint64{"u": 1}, LastMut: map[string]uint64{"u": 3},
	})
}

var goodRefs = []blockRef{{Pos: 1, LSN: 3}}

// badRefs are snapshots of refsFixture's records that refer to
// something other than the live state.
var badRefs = map[string][]byte{
	"missing LSN":              refsPayload([]blockRef{{Pos: 1, LSN: 9}}, 2),
	"record of the wrong kind": refsPayload([]blockRef{{Pos: 1, LSN: 2}}, 2),
	"position not held":        refsPayload([]blockRef{{Pos: 1, LSN: 3}, {Pos: 5, LSN: 3}}, 2),
	"superseded copy":          refsPayload([]blockRef{{Pos: 1, LSN: 1}}, 2),
	"deleted block":            refsPayload([]blockRef{{Pos: 0, LSN: 1}, {Pos: 1, LSN: 3}}, 2),
	"live block left out":      refsPayload(nil, 2),
	"repeated position":        refsPayload([]blockRef{{Pos: 1, LSN: 3}, {Pos: 1, LSN: 3}}, 2),
	"job at the wrong LSN":     refsPayload(goodRefs, 1),
	"job that is not there": encodeState(&snapRefs{
		Blocks: map[string][]blockRef{"u": goodRefs}, Jobs: map[string]uint64{"j": 2, "k": 3}}),
}

// TestRestoreRefusesBadReferences: a snapshot whose references do not
// name exactly the live copies the retained records leave is refused.
func TestRestoreRefusesBadReferences(t *testing.T) {
	srv, retained := refsFixture(t)
	if err := srv.restoreSnapshot(refsPayload(goodRefs, 2), retained); err != nil {
		t.Fatalf("the live state's references refused: %v", err)
	}
	if sb := srv.storage["u"][1]; len(srv.storage["u"]) != 1 || sb.data[0] != 2 || srv.jobs["j"] == nil || srv.mutSeq["u"] != 2 {
		t.Fatalf("restored %d blocks of u and job %v", len(srv.storage["u"]), srv.jobs["j"] != nil)
	}
	for name, payload := range badRefs {
		resetState(srv)
		if err := srv.restoreSnapshot(payload, retained); err == nil {
			t.Errorf("%s: restored", name)
		}
	}
}

// FuzzReplayState feeds payloads that passed the WAL's CRC to recovery:
// kind 0 to the snapshot restore path, over refsFixture's retained
// records, the five record kinds to replay. Neither may panic, decoding
// may not allocate more than a small multiple of the payload's length,
// and a payload the decoder accepts must re-encode to the same bytes.
// Every block the payload restores is then served once, which reaches
// readBlock's allocation for a dropped one.
func FuzzReplayState(f *testing.F) {
	srv, retained := refsFixture(f)
	for _, r := range retained {
		f.Add(r.Kind, r.Payload)
	}
	f.Add(uint8(0), refsPayload(goodRefs, 2))
	for _, payload := range badRefs {
		f.Add(uint8(0), payload)
	}
	rng := mrand.New(mrand.NewSource(3))
	for kind, proto := range []statePayload{new(snapRefs), new(walStore), new(walCompute), new(walUpdate), new(walDelete), new(snapState)} {
		for i := 0; i < 4; i++ {
			p := reflect.New(reflect.TypeOf(proto).Elem())
			fillRandom(rng, p.Elem())
			f.Add(uint8(kind), encodeState(p.Interface().(statePayload)))
		}
	}
	f.Add(recStore, []byte{stateFormat})
	f.Add(uint8(0), []byte{0x3a, 0xff})
	payloadFor := map[uint8]func() statePayload{
		0:          func() statePayload { return new(snapRefs) },
		recStore:   func() statePayload { return new(walStore) },
		recCompute: func() statePayload { return new(walCompute) },
		recUpdate:  func() statePayload { return new(walUpdate) },
		recDelete:  func() statePayload { return new(walDelete) },
		recBase:    func() statePayload { return new(snapState) },
	}
	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		mk, ok := payloadFor[kind]
		if !ok {
			return
		}
		// The fewest bytes three decodes allocate: the fuzzing engine's
		// own goroutines allocate too, and only ever add to a reading.
		var p statePayload
		var err error
		grew := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			p = mk()
			err = decodeState(payload, p)
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if grew > 64*uint64(len(payload))+4096 {
			t.Fatalf("decoding %d bytes allocated %d", len(payload), grew)
		}
		if err == nil && !bytes.Equal(encodeState(p), payload) {
			t.Fatalf("accepted payload re-encodes differently:\n  in  %x\n  out %x", payload, encodeState(p))
		}
		resetState(srv)
		if kind == 0 {
			_ = srv.restoreSnapshot(payload, retained)
		} else {
			_ = srv.replayRecord(&store.Record{LSN: 1, Kind: kind, Payload: payload})
		}
		for user, blocks := range srv.storage {
			for pos := range blocks {
				if _, _, err := srv.serveBlock(user, pos); err != nil {
					t.Fatalf("serving restored block %d of %q: %v", pos, user, err)
				}
			}
		}
	})
}
