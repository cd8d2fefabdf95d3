package core

import (
	"bytes"
	"crypto/rand"
	"encoding/gob"
	"io"
	mrand "math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"seccloud/internal/funcs"
	"seccloud/internal/netsim"
	"seccloud/internal/store"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

// Crashed reports whether an injected crash has "killed" this process.
func (s *Server) Crashed() bool { return s.crashed.Load() }

// durableServer builds (or rebuilds, for an existing dir) the durable
// server "cs:durable" over the given WAL directory. Rebuilding runs the
// full recovery path: snapshot load, WAL replay, Merkle cross-checks.
func durableServer(t testing.TB, sys *system, dir string, crash *store.Crasher) (*Server, netsim.Client) {
	t.Helper()
	key, err := sys.sio.Extract("cs:durable")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(sys.sio.Params(), key, ServerConfig{
		VerifyOnStore: true,
		Random:        rand.Reader,
		Durability: &DurabilityConfig{
			Dir: dir, SnapshotEvery: 3, NoSync: true, Crash: crash,
		},
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
	for _, p := range store.CrashPoints() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			sys := newSystem(t)
			dir := t.TempDir()
			crash := &store.Crasher{}
			srv, client := durableServer(t, sys, dir, crash)

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
			crash.Arm(p)
			if r := srv.Handle(upd); r != nil {
				t.Fatalf("crashed server answered: %#v", r)
			}
			if !crash.Fired() || !srv.Crashed() {
				t.Fatalf("crash did not fire (fired=%v crashed=%v)", crash.Fired(), srv.Crashed())
			}
			// The dead "process" answers nothing at all.
			if r := srv.Handle(&wire.ChallengeRequest{JobID: "cm-job"}); r != nil {
				t.Fatalf("dead server answered a challenge: %#v", r)
			}

			// Restart from disk.
			srv2, client2 := durableServer(t, sys, dir, nil)
			info := srv2.Recovery()
			if !info.Recovered {
				t.Fatalf("nothing recovered: %+v", info)
			}
			if (p == store.CrashTornTail) != info.TornTail {
				t.Fatalf("torn tail reported %v for crash point %v", info.TornTail, p)
			}
			applied := p == store.CrashAfterLog || p == store.CrashMidSnapshot
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
	rd := bytes.NewReader(raw[magicLen:])
	var out bytes.Buffer
	out.Write(raw[:magicLen])
	tampered := false
	for {
		rec, _, err := store.ReadRecord(rd)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("reading WAL record: %v", err)
		}
		if rec.Kind == recCompute && !tampered {
			var w walCompute
			if err := gob.NewDecoder(bytes.NewReader(rec.Payload)).Decode(&w); err != nil {
				t.Fatal(err)
			}
			w.Results[0][0] ^= 1
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
				t.Fatal(err)
			}
			rec.Payload = buf.Bytes()
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
