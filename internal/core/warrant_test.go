package core

import (
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	mrand "math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"seccloud/internal/funcs"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

// newTenant extracts a second identity in sys's deployment.
func newTenant(t *testing.T, sys *system, id string) *User {
	t.Helper()
	key, err := sys.sio.Extract(id)
	if err != nil {
		t.Fatal(err)
	}
	return NewUser(sys.sio.Params(), key, rand.Reader)
}

// aliceJob stores a small dataset for sys's user and commits job-1 on
// server 0, returning its delegation.
func aliceJob(t *testing.T, sys *system) *JobDelegation {
	t.Helper()
	sys.storeDataset(t, workload.NewGenerator(3).GenDataset(sys.user.ID(), 4, 16))
	return sys.runJob(t, "job-1", workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "sum"}, 4))
}

// TestWarrantBindsOwner: a warrant signs over the audit of its signer's
// own data. At the parent commit a valid warrant from any user unlocked
// every user's blocks and job items; each entry point now refuses it with
// a stable string and hands out nothing.
func TestWarrantBindsOwner(t *testing.T) {
	sys := newSystem(t, nil)
	d := aliceJob(t, sys)
	mallory := newTenant(t, sys, "user:mallory")
	foreign, err := WildcardWarrant(mallory, sys.agency.ID(), time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	own, err := WildcardWarrant(sys.user, sys.agency.ID(), time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	const refusal = `core: warrant signed by "user:mallory" does not cover data of "user:alice"`

	cases := []struct {
		name string
		// run presents w and returns the refusal text ("" if none) and
		// whether any data came back.
		run func(w wire.Warrant) (string, bool)
		// prefix is what wraps the refusal at this entry point.
		prefix string
	}{
		{"storage audit", func(w wire.Warrant) (string, bool) {
			resp := sys.servers[0].Handle(&wire.StorageAuditRequest{
				UserID: sys.user.ID(), Positions: []uint64{0}, Warrant: w,
			}).(*wire.StorageAuditResponse)
			return resp.Error, len(resp.Blocks) > 0 || len(resp.Sigs) > 0
		}, ""},
		{"challenge", func(w wire.Warrant) (string, bool) {
			resp := sys.servers[0].Handle(&wire.ChallengeRequest{
				JobID: d.JobID, Indices: []uint64{0}, Warrant: w,
			}).(*wire.ChallengeResponse)
			return resp.Error, len(resp.Items) > 0
		}, ""},
		{"delegation", func(w wire.Warrant) (string, bool) {
			bad := *d
			bad.Warrant = w
			report, err := sys.agency.AuditJob(sys.clients[0], &bad, AuditConfig{SampleSize: 2})
			if err != nil {
				return err.Error(), report != nil
			}
			return "", true
		}, "core: delegation rejected: "},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if msg, leaked := c.run(foreign); msg != c.prefix+refusal || leaked {
				t.Fatalf("mallory's warrant for alice's data: refusal %q, data returned %v; want %q and nothing",
					msg, leaked, c.prefix+refusal)
			}
			if msg, leaked := c.run(own); msg != "" || !leaked {
				t.Fatalf("alice's own wildcard warrant: refusal %q, data returned %v", msg, leaked)
			}
		})
	}
}

// TestSigMemoKeyInjective pins the forgery the server's old warrant memo
// let through. Its key was body|U|V, and a warrant body is itself a
// '|'-joined string, so an identity that embeds a body prefix can make
// its own honest warrant's key equal to that of a "warrant from alice"
// whose U and V are not points at all. At the parent commit the forgery
// hit the memo, skipped decoding and read alice's block; the
// length-prefixed key makes it miss, and DecodeIBSig refuses it.
func TestSigMemoKeyInjective(t *testing.T) {
	oldKey := func(w *wire.Warrant) string { return string(w.Body()) + "|" + string(w.Sig.U) + "|" + string(w.Sig.V) }
	notAfter := time.Now().Add(time.Hour).Unix()
	// forge has a user whose identity ends in alice's body sign an honest
	// warrant with fields (delegate, job), and returns it beside the
	// forged warrant from alice for delegate aliceDelegate and no job.
	forge := func(t *testing.T, sys *system, aliceDelegate, delegate, job string) (honest, forged wire.Warrant) {
		t.Helper()
		forged = wire.Warrant{UserID: sys.user.ID(), DelegateID: aliceDelegate, NotAfterUnix: notAfter}
		eve := newTenant(t, sys, string(forged.Body()[len("warrant|user="):]))
		honest, err := eve.Delegate(delegate, job, time.Unix(notAfter+1, 0))
		if err != nil {
			t.Fatal(err)
		}
		forged.Sig.U = []byte("delegate=" + delegate)
		forged.Sig.V = []byte(fmt.Sprintf("job=%s|notafter=%d|%s|%s", job, notAfter+1, honest.Sig.U, honest.Sig.V))
		if oldKey(&honest) != oldKey(&forged) {
			t.Fatalf("probe does not collide under the old key:\n%q\n%q", oldKey(&honest), oldKey(&forged))
		}
		if sigMemoKey(honest.UserID, honest.Body(), honest.Sig) == sigMemoKey(forged.UserID, forged.Body(), forged.Sig) {
			t.Fatal("probe collides under the memo key")
		}
		return honest, forged
	}
	malformed := func(sys *system, forged wire.Warrant) string {
		return fmt.Sprintf("core: warrant signature malformed: core: decoding signature U: "+
			"curve: point encoding has %d bytes, want %d: curve: invalid point",
			len(forged.Sig.U), len(sys.sio.Params().G1().MarshalPoint(sys.sio.Params().G1().Generator())))
	}

	t.Run("server", func(t *testing.T) {
		sys := newSystem(t, nil)
		sys.storeDataset(t, workload.NewGenerator(3).GenDataset(sys.user.ID(), 2, 16))
		honest, forged := forge(t, sys, sys.agency.ID(), "x", "y")
		// The honest warrant verifies and enters the memo; its signer
		// holds no data, so the read after it fails.
		resp := sys.servers[0].Handle(&wire.StorageAuditRequest{
			UserID: honest.UserID, Positions: []uint64{0}, Warrant: honest,
		}).(*wire.StorageAuditResponse)
		if want := fmt.Sprintf("core: no block at position 0 for user %q", honest.UserID); resp.Error != want {
			t.Fatalf("honest warrant: %q, want %q", resp.Error, want)
		}
		resp = sys.servers[0].Handle(&wire.StorageAuditRequest{
			UserID: sys.user.ID(), Positions: []uint64{0}, Warrant: forged,
		}).(*wire.StorageAuditResponse)
		if want := malformed(sys, forged); resp.Error != want || len(resp.Blocks) != 0 {
			t.Fatalf("forged warrant: %q with %d blocks, want %q and none", resp.Error, len(resp.Blocks), want)
		}
	})
	t.Run("agency", func(t *testing.T) {
		sys := newSystem(t, nil)
		d := aliceJob(t, sys)
		da := sys.agency.ID()
		honest, forged := forge(t, sys, da, da, "")
		// The honest warrant verifies and enters the memo before its
		// delegation fails on the (absent) root signature.
		err := sys.agency.AcceptDelegation(&JobDelegation{UserID: honest.UserID, JobID: "job-e", Warrant: honest})
		if want := "core: root signature malformed: core: decoding signature U: curve: point encoding has 0 bytes"; err == nil || err.Error()[:len(want)] != want {
			t.Fatalf("honest warrant: %v, want it to pass and the root signature to fail", err)
		}
		bad := *d
		bad.Warrant = forged
		if err, want := sys.agency.AcceptDelegation(&bad), malformed(sys, forged); err == nil || err.Error() != want {
			t.Fatalf("forged warrant: %v, want %q", err, want)
		}
	})
}

// TestSigMemoHitStillChecks: once a delegation's signatures are in the
// agency's memo, everything else about it is still checked on every use,
// with the parent commit's error text, and a signature whose bytes differ
// is verified afresh.
func TestSigMemoHitStillChecks(t *testing.T) {
	sys := newSystem(t, nil)
	now := time.Now()
	sys.agency.WithClock(func() time.Time { return now })
	d := aliceJob(t, sys)
	d2 := sys.runJob(t, "job-2", workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "sum"}, 4))
	for _, dd := range []*JobDelegation{d, d2} {
		if err := sys.agency.AcceptDelegation(dd); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(sys.agency.sigs.ok); n != 4 {
		t.Fatalf("memo holds %d signatures after two delegations, want 4", n)
	}
	srv := sys.servers[0]
	resign := func(msg []byte) wire.IBSig {
		sig, err := srv.scheme.Sign(srv.key, msg, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		return EncodeIBSig(srv.scheme.Params(), sig)
	}
	fresh := resign(rootSigMessage(d.JobID, d.Root))

	cases := []struct {
		name  string
		tweak func(d *JobDelegation) func() // returns an undo, or nil
		want  string
	}{
		{"accepted again", func(*JobDelegation) func() { return nil }, ""},
		{"expired warrant", func(*JobDelegation) func() {
			saved := now
			now = time.Unix(d.Warrant.NotAfterUnix+1, 0)
			return func() { now = saved }
		}, "core: warrant expired at " + time.Unix(d.Warrant.NotAfterUnix, 0).UTC().Format(time.RFC3339)},
		{"flipped result byte", func(d *JobDelegation) func() {
			d.Results = append([][]byte(nil), d.Results...)
			d.Results[2] = append([]byte{d.Results[2][0] ^ 1}, d.Results[2][1:]...)
			return nil
		}, "core: claimed results do not match the committed root"},
		{"another valid root signature", func(d *JobDelegation) func() {
			d.RootSig = fresh
			return nil
		}, ""},
		{"root signature spliced from two", func(d *JobDelegation) func() {
			d.RootSig = wire.IBSig{U: fresh.U, V: d.RootSig.V}
			return nil
		}, "core: root signature invalid: dvs: signature verification failed"},
		{"root signature of another job", func(d *JobDelegation) func() {
			d.RootSig = d2.RootSig
			return nil
		}, "core: root signature invalid: dvs: signature verification failed"},
		{"warrant for another job", func(d *JobDelegation) func() {
			d.Warrant = d2.Warrant
			return nil
		}, `core: warrant is for job "job-2", want "job-1"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dd := *d
			if undo := c.tweak(&dd); undo != nil {
				defer undo()
			}
			err := sys.agency.AcceptDelegation(&dd)
			if got := fmt.Sprint(err); (c.want == "" && err != nil) || (c.want != "" && got != c.want) {
				t.Fatalf("AcceptDelegation: %v, want %q", err, c.want)
			}
		})
	}
	// The delegate binding is the caller's to give; a hit does not skip it.
	if err, want := sys.agency.sigs.verifyWarrant(sys.agency.scheme, &d.Warrant, d.JobID, "da:other", now),
		`core: warrant delegates to "da:auditor", want "da:other"`; err == nil || err.Error() != want {
		t.Fatalf("warrant for another delegate: %v, want %q", err, want)
	}
	// Only the valid fresh root signature was added.
	if n := len(sys.agency.sigs.ok); n != 5 {
		t.Fatalf("memo holds %d signatures, want 5", n)
	}

	// The server's memo: expiry and the job binding still hold after a hit.
	current := now
	clocked, err := NewServer(sys.sio.Params(), srv.key, ServerConfig{
		Random: rand.Reader, Clock: func() time.Time { return current },
	})
	if err != nil {
		t.Fatal(err)
	}
	challenge := func(jobID string) string {
		return clocked.Handle(&wire.ChallengeRequest{JobID: jobID, Indices: []uint64{0}, Warrant: d.Warrant}).(*wire.ChallengeResponse).Error
	}
	for i := 0; i < 2; i++ {
		if got := challenge("job-1"); got != "unknown job" {
			t.Fatalf("valid warrant: %q, want the later %q", got, "unknown job")
		}
	}
	if got, want := challenge("job-2"), `core: warrant is for job "job-1", want "job-2"`; got != want {
		t.Fatalf("warrant for another job: %q, want %q", got, want)
	}
	current = time.Unix(d.Warrant.NotAfterUnix+1, 0)
	if got, want := challenge("job-1"), "core: warrant expired at "+time.Unix(d.Warrant.NotAfterUnix, 0).UTC().Format(time.RFC3339); got != want {
		t.Fatalf("expired warrant: %q, want %q", got, want)
	}
}

// TestSigMemoResetsWhenFull: the memo holds at most sigMemoLimit entries
// and starts over when full.
func TestSigMemoResetsWhenFull(t *testing.T) {
	sys := newSystem(t)
	w, err := sys.user.Delegate(sys.agency.ID(), "", time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	var m sigMemo
	m.ok = make(map[[sha256.Size]byte]struct{}, sigMemoLimit)
	for i := 0; i < sigMemoLimit; i++ {
		m.ok[sha256.Sum256([]byte(strconv.Itoa(i)))] = struct{}{}
	}
	if err := m.verifyWarrant(sys.agency.scheme, &w, "", "", time.Now()); err != nil {
		t.Fatal(err)
	}
	if _, hit := m.ok[sigMemoKey(w.UserID, w.Body(), w.Sig)]; len(m.ok) != 1 || !hit {
		t.Fatalf("full memo after an insert holds %d entries (new one present: %v), want only the new one", len(m.ok), hit)
	}
}

// TestThresholdAgencySharesSigMemo: a threshold-combiner agency accepts
// delegations through the same memo as a single-key one.
func TestThresholdAgencySharesSigMemo(t *testing.T) {
	f := newThrFixture(t, 2, 3)
	d := aliceJob(t, f.sys)
	ag := f.agency(t, 1)
	for i := 0; i < 3; i++ {
		report, err := ag.AuditJob(f.sys.clients[0], d, AuditConfig{
			SampleSize: 3, Rng: mrand.New(mrand.NewSource(int64(i))), BatchSignatures: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !report.Valid() || report.Threshold == nil {
			t.Fatalf("audit %d: valid=%v, threshold trail %v", i, report.Valid(), report.Threshold)
		}
		if n := len(ag.sigs.ok); n != 2 {
			t.Fatalf("after audit %d the memo holds %d signatures, want the warrant and the root", i, n)
		}
	}
}

// TestSigMemoConcurrentAuditors: two auditors sharing one Agency and one
// Server, each sweeping its own delegation and a shared one plus a
// storage audit, all pass (run under -race).
func TestSigMemoConcurrentAuditors(t *testing.T) {
	sys := newSystem(t, nil)
	shared := aliceJob(t, sys)
	warrant, err := WildcardWarrant(sys.user, sys.agency.ID(), time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for a := 0; a < 2; a++ {
		own := sys.runJob(t, fmt.Sprintf("job-own-%d", a), workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "sum"}, 4))
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				for _, d := range []*JobDelegation{own, shared} {
					r, err := sys.agency.AuditJob(sys.clients[0], d, AuditConfig{
						SampleSize: 2, Rng: mrand.New(mrand.NewSource(int64(10*a + i))), BatchSignatures: true,
					})
					if err != nil || !r.Valid() {
						t.Errorf("auditor %d, %s audit %d: %v", a, d.JobID, i, err)
						return
					}
				}
				r, err := sys.agency.AuditStorage(sys.clients[0], sys.user.ID(), warrant, AuditConfig{
					DatasetSize: 4, SampleSize: 2, Rng: mrand.New(mrand.NewSource(int64(10*a + i))),
				})
				if err != nil || !r.Valid() {
					t.Errorf("auditor %d, storage audit %d: %v", a, i, err)
					return
				}
			}
		}(a)
	}
	wg.Wait()
}
