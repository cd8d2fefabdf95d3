package netsim

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"seccloud/internal/store"
	"seccloud/internal/wire"
)

// diskImage reads every file of dir, by name.
func diskImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		img[e.Name()] = string(data)
	}
	return img
}

// sameImage reports whether two disk images hold the same files.
func sameImage(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for name, data := range a {
		if got, ok := b[name]; !ok || got != data {
			return false
		}
	}
	return true
}

// faultRun is one scripted run of a log over a sick disk.
type faultRun struct {
	counts FaultFSCounts
	errs   []error
	image  map[string]string
	fireOp int   // the op at which the armed point fired; -1 if none
	next   int64 // the PRNG's next draw after the run
}

// runFaulty appends 20 records under SnapshotEvery 3 on a disk with
// every write-side fault rate active, arming p before op 6. Whenever
// the log wedges or the crash fires, the process restarts: the disk
// restarts and the log reopens. At op skip the run makes no append and
// restarts instead, as a run whose append at that op reached no disk
// operation would.
func runFaulty(t *testing.T, seed int64, p CrashPoint, skip int) faultRun {
	t.Helper()
	dir := t.TempDir()
	ffs := NewFaultFS(FaultFSConfig{
		Seed: seed, SyncErrRate: 0.1, ShortWriteRate: 0.1, RenameTornRate: 0.3,
	})
	run := faultRun{fireOp: -1}
	cfg := store.Config{Dir: dir, FS: ffs, SnapshotEvery: 3}
	l, _, err := store.Open(cfg)
	if err != nil {
		// Open can fail under faults; that is itself a deterministic outcome.
		run.errs = append(run.errs, err)
	}
	for i := 0; i < 20 && err == nil; i++ {
		if i == 6 {
			ffs.Arm(p)
		}
		if i != skip {
			_, err := l.Append(1, []byte{byte(i)})
			run.errs = append(run.errs, err)
			if l.SnapshotDue() {
				run.errs = append(run.errs, l.Snapshot([]byte{'s', byte(i)}))
			}
			if ffs.Fired() {
				run.fireOp = i
			}
			if l.Wedged() == nil && !ffs.Fired() {
				continue
			}
		}
		l.Kill()
		ffs.Restart()
		l, _, err = store.Open(cfg)
		run.errs = append(run.errs, err)
	}
	if l != nil {
		l.Close()
	}
	run.counts = ffs.Counts()
	run.image = diskImage(t, dir)
	ffs.mu.Lock()
	run.next = ffs.rng.Int63()
	ffs.mu.Unlock()
	return run
}

// TestFaultFSDeterminism: identical seeds and operation sequences fire
// identical faults — the property every chaos reproducer rests on.
func TestFaultFSDeterminism(t *testing.T) {
	run := func(seed int64) (FaultFSCounts, []error) {
		dir := t.TempDir()
		ffs := NewFaultFS(FaultFSConfig{
			Seed: seed, SyncErrRate: 0.3, ShortWriteRate: 0.2, RenameTornRate: 0.5,
		})
		l, _, err := store.Open(store.Config{Dir: dir, FS: ffs})
		if err != nil {
			// Open can fail under faults; that is itself a deterministic outcome.
			return ffs.Counts(), []error{err}
		}
		var errs []error
		for i := 0; i < 20; i++ {
			_, err := l.Append(1, []byte{byte(i)})
			errs = append(errs, err)
			if l.Wedged() != nil {
				ffs2 := ffs // same disk, fresh process
				nl, _, oerr := store.Open(store.Config{Dir: dir, FS: ffs2})
				errs = append(errs, oerr)
				if oerr != nil {
					break
				}
				l = nl
			}
		}
		l.Close()
		return ffs.Counts(), errs
	}
	c1, e1 := run(42)
	c2, e2 := run(42)
	if c1 != c2 {
		t.Fatalf("same seed, different fault counts: %+v vs %+v", c1, c2)
	}
	if len(e1) != len(e2) {
		t.Fatalf("same seed, different error traces: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if (e1[i] == nil) != (e2[i] == nil) {
			t.Fatalf("same seed, error trace diverges at op %d: %v vs %v", i, e1[i], e2[i])
		}
	}
	c3, _ := run(43)
	if c1 == c3 && c1.Total() > 0 {
		t.Log("different seeds produced identical counts (possible but suspicious)")
	}

	// An armed crash point among active fault rates: the same seed, ops
	// and point leave the same disk bytes, counts and PRNG position.
	const seed = 7
	for _, p := range CrashPoints() {
		a, b := runFaulty(t, seed, p, -1), runFaulty(t, seed, p, -1)
		if a.fireOp < 0 {
			t.Fatalf("%v: the armed point never fired", p)
		}
		if a.fireOp != b.fireOp || a.counts != b.counts || a.next != b.next || !sameImage(a.image, b.image) {
			t.Fatalf("%v: same seed, different runs: fired at op %d vs %d, counts %+v vs %+v",
				p, a.fireOp, b.fireOp, a.counts, b.counts)
		}
		for i := range a.errs {
			if (a.errs[i] == nil) != (b.errs[i] == nil) {
				t.Fatalf("%v: same seed, error trace diverges at op %d: %v vs %v", p, i, a.errs[i], b.errs[i])
			}
		}
		if a.counts.Total() == 0 {
			t.Fatalf("%v: no fault fired beside the crash", p)
		}
	}

	// before-log persists nothing and draws nothing: its run ends where a
	// run that skipped the crashing append entirely ends.
	crashed := runFaulty(t, seed, CrashBeforeLog, -1)
	skipped := runFaulty(t, seed, CrashNone, crashed.fireOp)
	if crashed.counts != skipped.counts || crashed.next != skipped.next || !sameImage(crashed.image, skipped.image) {
		t.Fatalf("before-log at op %d moved the disk or its PRNG: counts %+v vs %+v",
			crashed.fireOp, crashed.counts, skipped.counts)
	}
}

// TestFaultFSInertPassthrough: a FaultFS with zero rates must behave
// byte-identically to the raw filesystem, including snapshot compaction.
func TestFaultFSInertPassthrough(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(FaultFSConfig{Seed: 9})
	l, _, err := store.Open(store.Config{Dir: dir, FS: ffs, SnapshotEvery: 2})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := l.Append(1, []byte{'e', byte(i)}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if !l.SnapshotDue() {
		t.Fatal("snapshot not due")
	}
	if err := l.Snapshot([]byte("compact-me")); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if _, err := l.Append(1, []byte{'f', 0}); err != nil {
		t.Fatalf("append: %v", err)
	}
	l.Kill()
	l2, rec, err := store.Open(store.Config{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if string(rec.Snapshot) != "compact-me" || len(rec.Records) != 1 {
		t.Fatalf("recovered snapshot %q + %d records", rec.Snapshot, len(rec.Records))
	}
	if got := ffs.Counts().Total(); got != 0 {
		t.Fatalf("inert FaultFS fired %d faults", got)
	}
	if _, err := filepath.Glob(filepath.Join(dir, "*.tmp")); err != nil {
		t.Fatalf("glob: %v", err)
	}
}

func TestCrashPointNames(t *testing.T) {
	for _, p := range CrashPoints() {
		got, ok := CrashPointByName(p.String())
		if !ok || got != p {
			t.Errorf("CrashPointByName(%q) = %v, %v", p.String(), got, ok)
		}
	}
	if _, ok := CrashPointByName("bogus"); ok {
		t.Error("bogus crash point parsed")
	}
}

// TestCrashPointsSkipSegmentMagic: a new segment's magic write and its
// sync match no crash point, so an armed point waits for the first
// record.
func TestCrashPointsSkipSegmentMagic(t *testing.T) {
	for _, p := range []CrashPoint{CrashBeforeLog, CrashAfterLog, CrashTornTail} {
		ffs := NewFaultFS(FaultFSConfig{Seed: 1})
		ffs.Arm(p)
		l, _, err := store.Open(store.Config{Dir: t.TempDir(), FS: ffs})
		if err != nil || ffs.Fired() {
			t.Fatalf("%v: creating the first segment: err=%v fired=%v", p, err, ffs.Fired())
		}
		if _, err := l.Append(1, []byte("r")); !errors.Is(err, ErrCrashed) || !ffs.Fired() {
			t.Fatalf("%v: first record: err=%v fired=%v", p, err, ffs.Fired())
		}
		// The dead process writes nothing more until the disk restarts.
		if err := l.Snapshot([]byte("s")); !errors.Is(err, store.ErrWedged) {
			t.Fatalf("%v: snapshot on a dead disk: %v", p, err)
		}
		if _, err := ffs.OpenFile(filepath.Join(t.TempDir(), "x"), os.O_CREATE|os.O_WRONLY, 0o644); !errors.Is(err, ErrCrashed) {
			t.Fatalf("%v: open on a dead disk: %v", p, err)
		}
		ffs.Restart()
		if ffs.Fired() {
			t.Fatalf("%v: still fired after Restart", p)
		}
	}
}

// gateProbe answers every request and records how many it saw.
type gateProbe struct{ seen int }

func (h *gateProbe) Handle(m wire.Message) wire.Message {
	h.seen++
	return &wire.StoreResponse{OK: true}
}

// TestCrashGateDropsFromTheFiringRequest: the reply of the request in
// which the disk fired is dropped and the process killed; every later
// request is dropped unanswered until the disk restarts.
func TestCrashGateDropsFromTheFiringRequest(t *testing.T) {
	ffs := NewFaultFS(FaultFSConfig{Seed: 1})
	probe := &gateProbe{}
	kills := 0
	fire := &firingHandler{disk: ffs, next: probe}
	g := NewCrashGate(ffs, fire, func() { kills++ })
	if g.Handle(&wire.ChallengeRequest{}) == nil {
		t.Fatal("gate dropped a reply before any crash")
	}
	fire.fire = true
	if r := g.Handle(&wire.ChallengeRequest{}); r != nil || kills != 1 || !errors.Is(fire.err, ErrCrashed) {
		t.Fatalf("firing request: reply %v, %d kills, write error %v", r, kills, fire.err)
	}
	if r := g.Handle(&wire.ChallengeRequest{}); r != nil || probe.seen != 2 {
		t.Fatalf("request after the crash: reply %v, handler saw %d", r, probe.seen)
	}
	ffs.Restart()
	if g.Handle(&wire.ChallengeRequest{}) == nil || probe.seen != 3 {
		t.Fatal("gate still dropping after Restart")
	}
}

// firingHandler fires the disk's armed before-log point inside Handle
// when fire is set, as a server appending a record would.
type firingHandler struct {
	disk *FaultFS
	next *gateProbe
	fire bool
	err  error // what the firing write returned
}

func (h *firingHandler) Handle(m wire.Message) wire.Message {
	if h.fire {
		h.fire = false
		h.disk.Arm(CrashBeforeLog)
		_, h.err = (&faultFile{fs: h.disk, wal: true}).Write([]byte("record"))
	}
	return h.next.Handle(m)
}
