package core

import (
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"reflect"
	"testing"

	"seccloud/internal/funcs"
	"seccloud/internal/ibc"
	"seccloud/internal/store"
	"seccloud/internal/wire"
)

// TestRecoveryMatchesNeverCrashedServer runs random histories of
// uploads (new positions and re-uploads of old ones), updates, deletes,
// jobs and redeliveries of earlier requests against a durable server
// that is killed and recovered after every op, and against an in-memory
// server that never stops. After every recovery the two must hold the
// same blocks, signatures, jobs, dedupe tables and mutation sequences,
// and every job's root signature must be the one the durable server
// acknowledged. Each configuration must recover at least once from a
// snapshot that retains records and once with a base record on disk.
func TestRecoveryMatchesNeverCrashedServer(t *testing.T) {
	sys := newSystem(t)
	users := []string{sys.user.ID(), "user:bob"}
	keys := make(map[string]*ibc.PrivateKey, len(users))
	for _, u := range users {
		k, err := sys.sio.Extract(u)
		if err != nil {
			t.Fatal(err)
		}
		keys[u] = k
	}
	srvKey, err := sys.sio.Extract("cs:diff")
	if err != nil {
		t.Fatal(err)
	}
	scheme := sys.user.scheme
	auth := func(user string, body []byte) wire.IBSig {
		sig, err := scheme.Sign(keys[user], body, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		return EncodeIBSig(scheme.Params(), sig)
	}
	newServer := func(d *DurabilityConfig) *Server {
		srv, err := NewServer(sys.sio.Params(), srvKey, ServerConfig{Random: rand.Reader, Durability: d})
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		return srv
	}

	for _, every := range []int{1, 3, 16} {
		t.Run(fmt.Sprintf("SnapshotEvery=%d", every), func(t *testing.T) {
			rng := mrand.New(mrand.NewSource(int64(every)))
			d := &DurabilityConfig{Dir: t.TempDir(), SnapshotEvery: every, NoSync: true}
			ref, dut := newServer(nil), newServer(d)
			positions := map[string][]uint64{} // live positions, per user
			next := map[string]uint64{}        // next fresh position, per user
			seq := map[string]uint64{}
			rootSigs := map[string]wire.IBSig{}
			var sent []wire.Message
			retaining, bases := 0, 0 // recoveries from a retaining snapshot, with a base on disk
			block := func() []byte {
				return funcs.EncodeBlock([]int64{rng.Int63(), rng.Int63(), rng.Int63(), rng.Int63()})
			}
			for op := 0; op < 90; op++ {
				u := users[rng.Intn(len(users))]
				live := positions[u]
				var req wire.Message
				switch r := rng.Intn(20); {
				case r == 0 && len(sent) > 0:
					req = sent[rng.Intn(len(sent))]
				case r < 4 || len(live) == 0:
					st := &wire.StoreRequest{UserID: u}
					for i := 1 + rng.Intn(3); i > 0; i-- {
						pos := next[u]
						if len(live) > 0 && rng.Intn(3) == 0 {
							pos = live[rng.Intn(len(live))]
						} else {
							next[u]++
						}
						st.Positions = append(st.Positions, pos)
						st.Blocks = append(st.Blocks, block())
						st.Sigs = append(st.Sigs, wire.BlockSig{SignerID: u, U: []byte{byte(op)}})
					}
					req = st
				case r < 6:
					c := &wire.ComputeRequest{UserID: u, JobID: fmt.Sprintf("job-%d", op)}
					for i := 1 + rng.Intn(3); i > 0; i-- {
						c.Tasks = append(c.Tasks, wire.TaskSpec{FuncName: "sum", Positions: []uint64{live[rng.Intn(len(live))]}})
					}
					req = c
				case r < 8:
					seq[u]++
					del := &wire.DeleteRequest{UserID: u, Position: live[rng.Intn(len(live))], Seq: seq[u]}
					del.Auth = auth(u, del.DeleteAuthBody())
					req = del
				default:
					seq[u]++
					up := &wire.UpdateRequest{UserID: u, Position: live[rng.Intn(len(live))], Seq: seq[u], Block: block(),
						Sig: wire.BlockSig{SignerID: u, U: []byte{byte(op)}}}
					up.Auth = auth(u, up.UpdateAuthBody())
					req = up
				}
				sent = append(sent, req)

				want, got := ref.Handle(req), dut.Handle(req)
				if cr, ok := got.(*wire.ComputeResponse); ok && cr.Error == "" {
					if _, seen := rootSigs[cr.JobID]; !seen {
						rootSigs[cr.JobID] = cr.RootSig
					}
					cr2 := *cr
					cr2.RootSig = want.(*wire.ComputeResponse).RootSig
					got = &cr2
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d (%T): durable server answered %+v, the reference %+v", op, req, got, want)
				}
				positions[u] = livePositions(ref, u)

				dut.Crash()
				_ = dut.Close()
				l, rec, err := store.Open(store.Config{Dir: d.Dir, NoSync: true})
				if err != nil {
					t.Fatalf("op %d: opening the log: %v", op, err)
				}
				if len(rec.Retained) > 0 {
					retaining++
				}
				for _, r := range append(rec.Retained, rec.Records...) {
					if r.Kind == recBase {
						bases++
						break
					}
				}
				_ = l.Close()
				dut = newServer(d)
				if err := sameState(ref, dut, rootSigs); err != nil {
					t.Fatalf("op %d (%T), recovered at snapshot LSN %d: %v", op, req, dut.Recovery().SnapshotLSN, err)
				}
			}
			t.Logf("%d recoveries from a retaining snapshot, %d with a base record", retaining, bases)
			if retaining == 0 || bases == 0 {
				t.Fatal("both snapshot kinds must be forced")
			}
		})
	}
}

// livePositions lists user's stored positions on srv.
func livePositions(srv *Server, user string) []uint64 {
	var out []uint64
	for pos := range srv.storage[user] {
		out = append(out, pos)
	}
	return out
}

// sameState compares what a recovered server holds with what the
// reference holds; root signatures, which each server draws for itself,
// are compared with the ones the recovered server acknowledged.
func sameState(ref, got *Server, rootSigs map[string]wire.IBSig) error {
	if len(got.storage) != len(ref.storage) {
		return fmt.Errorf("%d users stored, want %d", len(got.storage), len(ref.storage))
	}
	for user, blocks := range ref.storage {
		gb, ok := got.storage[user]
		if !ok || len(gb) != len(blocks) {
			return fmt.Errorf("user %q: %d blocks, want %d", user, len(gb), len(blocks))
		}
		for pos, sb := range blocks {
			g, ok := gb[pos]
			if !ok || !reflect.DeepEqual(g.data, sb.data) || g.size != sb.size || !reflect.DeepEqual(g.sig, sb.sig) {
				return fmt.Errorf("user %q block %d differs", user, pos)
			}
		}
	}
	if len(got.jobs) != len(ref.jobs) {
		return fmt.Errorf("%d jobs, want %d", len(got.jobs), len(ref.jobs))
	}
	for id, j := range ref.jobs {
		g, ok := got.jobs[id]
		if !ok || g.userID != j.userID || !reflect.DeepEqual(g.tasks, j.tasks) || !reflect.DeepEqual(g.results, j.results) ||
			g.root != j.root || g.digest != j.digest || !reflect.DeepEqual(g.rootSig, rootSigs[id]) {
			return fmt.Errorf("job %s differs", id)
		}
	}
	for name, pair := range map[string][2]map[string]uint64{
		"mutSeq": {got.mutSeq, ref.mutSeq}, "lastStore": {got.lastStore, ref.lastStore}, "lastMut": {got.lastMut, ref.lastMut},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			return fmt.Errorf("%s %v, want %v", name, pair[0], pair[1])
		}
	}
	return nil
}
