package store_test

// The log's durability contract on a simulated disk: netsim.FaultFS
// injects fsync errors, short writes, snapshot rot and torn renames, and
// kills the writing process at an armed crash point. Recovery through a
// fresh Open must keep every acked record and surface any other damage.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"seccloud/internal/netsim"
	"seccloud/internal/store"
)

func mustOpen(t *testing.T, cfg store.Config) (*store.Log, *store.Recovered) {
	t.Helper()
	l, rec, err := store.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

// appendN appends n records tagged tag.
func appendN(t *testing.T, l *store.Log, n int, tag byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append(1, []byte{tag, byte(i)}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// crashDisk is a fault-free disk for the crash tests.
func crashDisk() *netsim.FaultFS { return netsim.NewFaultFS(netsim.FaultFSConfig{Seed: 1}) }

// TestFsyncErrorWedgesLog is the regression test for the swallowed-fsync
// bug: a failed fsync must leave the log sticky-wedged — every later
// append and snapshot fails loudly with ErrWedged — and a fresh Open must
// recover exactly the records that were acked before the failure.
func TestFsyncErrorWedgesLog(t *testing.T) {
	dir := t.TempDir()
	ffs := netsim.NewFaultFS(netsim.FaultFSConfig{Seed: 1})
	l, _, err := store.Open(store.Config{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendN(t, l, 3, 'a')

	ffs.SetRates(netsim.FaultFSConfig{SyncErrRate: 1})
	if _, err := l.Append(1, []byte("doomed")); err == nil {
		t.Fatal("append with failing fsync succeeded")
	} else if !netsim.IsDiskFault(err) {
		t.Fatalf("append error does not expose the disk fault: %v", err)
	}
	if l.Wedged() == nil {
		t.Fatal("log not wedged after fsync failure")
	}

	// The disk is healed, but the log must stay wedged: a post-failure
	// fsync reporting success proves nothing about the lost pages.
	ffs.SetRates(netsim.FaultFSConfig{})
	if _, err := l.Append(1, []byte("late")); !errors.Is(err, store.ErrWedged) {
		t.Fatalf("append after wedge: got %v, want ErrWedged", err)
	}
	if err := l.Snapshot([]byte("snap")); !errors.Is(err, store.ErrWedged) {
		t.Fatalf("snapshot after wedge: got %v, want ErrWedged", err)
	}
	if l.SnapshotDue() {
		t.Fatal("wedged log claims a snapshot is due")
	}

	// Recovery (the only exit from a wedge) returns at least the acked
	// prefix. The unacked 4th record's frame did reach the disk before
	// the fsync failed, so it may legitimately reappear — recovering an
	// unacked write is allowed (upper-layer idempotency absorbs it);
	// losing an acked one never is.
	l2, rec, err := store.Open(store.Config{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if len(rec.Records) < 3 {
		t.Fatalf("recovered %d records, want at least the 3 acked", len(rec.Records))
	}
}

// TestShortWriteWedgesAndRecovers: an injected ENOSPC mid-frame leaves a
// torn tail on disk; the log wedges, and recovery truncates the tear
// while keeping every acked record.
func TestShortWriteWedgesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	ffs := netsim.NewFaultFS(netsim.FaultFSConfig{Seed: 2})
	l, _, err := store.Open(store.Config{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendN(t, l, 4, 'b')

	ffs.SetRates(netsim.FaultFSConfig{ShortWriteRate: 1})
	if _, err := l.Append(1, []byte("torn-by-enospc")); err == nil {
		t.Fatal("short write acked")
	}
	if l.Wedged() == nil {
		t.Fatal("log not wedged after short write")
	}
	ffs.SetRates(netsim.FaultFSConfig{})

	l2, rec, err := store.Open(store.Config{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	defer l2.Close()
	if !rec.TornTail {
		t.Fatal("recovery did not report the torn tail")
	}
	if len(rec.Records) != 4 {
		t.Fatalf("recovered %d records, want 4", len(rec.Records))
	}
	// The reopened log must append cleanly past the repaired tear.
	if _, err := l2.Append(1, []byte("after-repair")); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
}

// TestSnapshotReadRotRefusedLoudly: bit-rot on the snapshot read path is
// detected by the CRC and surfaces as a loud recovery error — never
// silently served — and because the rot is read-path only, a later clean
// read recovers everything.
func TestSnapshotReadRotRefusedLoudly(t *testing.T) {
	dir := t.TempDir()
	ffs := netsim.NewFaultFS(netsim.FaultFSConfig{Seed: 3})
	l, _, err := store.Open(store.Config{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendN(t, l, 2, 'c')
	if err := l.Snapshot([]byte("state-after-2")); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	l.Kill()

	ffs.SetRates(netsim.FaultFSConfig{ReadRotRate: 1})
	if _, _, err := store.Open(store.Config{Dir: dir, FS: ffs}); err == nil {
		t.Fatal("recovery served a rotten snapshot")
	} else if !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("rot surfaced as %v, want ErrCorrupt", err)
	}
	if ffs.Counts().ReadRots == 0 {
		t.Fatal("rot never fired")
	}

	ffs.SetRates(netsim.FaultFSConfig{})
	l2, rec, err := store.Open(store.Config{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatalf("clean reopen: %v", err)
	}
	defer l2.Close()
	if string(rec.Snapshot) != "state-after-2" {
		t.Fatalf("recovered snapshot %q", rec.Snapshot)
	}
}

// TestTornRenameKeepsWALAuthoritative: a torn rename fails the snapshot
// publication, the temp file is ignored by recovery, and the WAL still
// replays every acked record.
func TestTornRenameKeepsWALAuthoritative(t *testing.T) {
	dir := t.TempDir()
	ffs := netsim.NewFaultFS(netsim.FaultFSConfig{Seed: 4})
	l, _, err := store.Open(store.Config{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendN(t, l, 5, 'd')

	ffs.SetRates(netsim.FaultFSConfig{RenameTornRate: 1})
	if err := l.Snapshot([]byte("never-published")); err == nil {
		t.Fatal("torn rename published a snapshot")
	} else if !netsim.IsDiskFault(err) {
		t.Fatalf("torn rename surfaced as %v", err)
	}
	// Snapshot failure must not wedge: the WAL is still authoritative.
	if _, err := l.Append(1, []byte("still-writable")); err != nil {
		t.Fatalf("append after failed snapshot: %v", err)
	}
	l.Kill()

	ffs.SetRates(netsim.FaultFSConfig{})
	l2, rec, err := store.Open(store.Config{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if rec.Snapshot != nil {
		t.Fatal("unpublished snapshot leaked into recovery")
	}
	if len(rec.Records) != 6 {
		t.Fatalf("recovered %d records, want 6", len(rec.Records))
	}
}

func TestCrashBeforeLogLosesNothingButTheMutation(t *testing.T) {
	dir := t.TempDir()
	disk := crashDisk()
	l, _ := mustOpen(t, store.Config{Dir: dir, NoSync: true, FS: disk})
	if _, err := l.Append(1, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	disk.Arm(netsim.CrashBeforeLog)
	if _, err := l.Append(1, []byte("lost")); !errors.Is(err, netsim.ErrCrashed) {
		t.Fatalf("armed append: %v", err)
	}
	// The log wedged on the failed write; the dead disk would refuse it
	// anyway.
	if _, err := l.Append(1, []byte("dead")); !errors.Is(err, store.ErrWedged) {
		t.Fatalf("post-crash append: %v", err)
	}
	disk.Restart()
	_, rec := mustOpen(t, store.Config{Dir: dir, NoSync: true, FS: disk})
	if len(rec.Records) != 1 || string(rec.Records[0].Payload) != "kept" {
		t.Fatalf("recovered %+v", rec.Records)
	}
}

// TestCrashAfterLogKeepsTheMutation runs the log with syncs: after-log
// fires at a record's successful sync.
func TestCrashAfterLogKeepsTheMutation(t *testing.T) {
	dir := t.TempDir()
	disk := crashDisk()
	l, _ := mustOpen(t, store.Config{Dir: dir, FS: disk})
	disk.Arm(netsim.CrashAfterLog)
	if _, err := l.Append(1, []byte("durable-but-unacked")); !errors.Is(err, netsim.ErrCrashed) {
		t.Fatalf("armed append: %v", err)
	}
	if !disk.Fired() {
		t.Fatal("the crash did not fire")
	}
	disk.Restart()
	_, rec := mustOpen(t, store.Config{Dir: dir, FS: disk})
	if len(rec.Records) != 1 || string(rec.Records[0].Payload) != "durable-but-unacked" {
		t.Fatalf("recovered %+v", rec.Records)
	}
}

func TestCrashTornTailTruncates(t *testing.T) {
	dir := t.TempDir()
	disk := crashDisk()
	l, _ := mustOpen(t, store.Config{Dir: dir, NoSync: true, FS: disk})
	if _, err := l.Append(1, []byte("whole")); err != nil {
		t.Fatal(err)
	}
	disk.Arm(netsim.CrashTornTail)
	if _, err := l.Append(1, []byte("torn-in-half")); !errors.Is(err, netsim.ErrCrashed) {
		t.Fatalf("armed append: %v", err)
	}
	disk.Restart()
	l2, rec := mustOpen(t, store.Config{Dir: dir, NoSync: true, FS: disk})
	if !rec.TornTail {
		t.Fatal("torn tail not reported")
	}
	if len(rec.Records) != 1 || string(rec.Records[0].Payload) != "whole" {
		t.Fatalf("recovered %+v", rec.Records)
	}
	// The truncated log appends cleanly and the LSN sequence stays whole.
	lsn, err := l2.Append(1, []byte("after-repair"))
	if err != nil || lsn != 2 {
		t.Fatalf("append after repair: lsn=%d err=%v", lsn, err)
	}
	l2.Close()
	_, rec = mustOpen(t, store.Config{Dir: dir, NoSync: true, FS: disk})
	if len(rec.Records) != 2 || rec.TornTail {
		t.Fatalf("post-repair recovery: %d records torn=%v", len(rec.Records), rec.TornTail)
	}
}

func TestCrashMidSnapshotFallsBackToWAL(t *testing.T) {
	dir := t.TempDir()
	disk := crashDisk()
	l, _ := mustOpen(t, store.Config{Dir: dir, NoSync: true, FS: disk})
	for i := 0; i < 4; i++ {
		if _, err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	disk.Arm(netsim.CrashMidSnapshot)
	if err := l.Snapshot([]byte("half-written")); !errors.Is(err, netsim.ErrCrashed) {
		t.Fatalf("armed snapshot: %v", err)
	}
	disk.Restart()
	_, rec := mustOpen(t, store.Config{Dir: dir, NoSync: true, FS: disk})
	if rec.Snapshot != nil {
		t.Fatalf("recovered a snapshot that was never published: %q", rec.Snapshot)
	}
	if len(rec.Records) != 4 {
		t.Fatalf("recovered %d records, want the full WAL", len(rec.Records))
	}
}

func TestMidSnapshotCrashAfterPriorSnapshot(t *testing.T) {
	// old snapshot + WAL tail must survive a crash during the NEXT snapshot.
	dir := t.TempDir()
	disk := crashDisk()
	l, _ := mustOpen(t, store.Config{Dir: dir, NoSync: true, FS: disk})
	l.Append(1, []byte("a"))
	if err := l.Snapshot([]byte("gen1")); err != nil {
		t.Fatal(err)
	}
	l.Append(1, []byte("b"))
	disk.Arm(netsim.CrashMidSnapshot)
	if err := l.Snapshot([]byte("gen2")); !errors.Is(err, netsim.ErrCrashed) {
		t.Fatalf("armed snapshot: %v", err)
	}
	disk.Restart()
	_, rec := mustOpen(t, store.Config{Dir: dir, NoSync: true, FS: disk})
	if string(rec.Snapshot) != "gen1" || len(rec.Records) != 1 || string(rec.Records[0].Payload) != "b" {
		t.Fatalf("recovered snap=%q records=%+v", rec.Snapshot, rec.Records)
	}
}

// sweepSteps is the crash sweep's script length: seven appends under
// SnapshotEvery 3, so a snapshot follows the third and the sixth, with a
// clean close and reopen before the fifth.
const sweepSteps = 7

// TestCrashSweep arms each crash point before every step of the sweep
// script, so each point fires at every write it matches rather than
// only the first, and checks the image each crash leaves: recovery on
// the restarted disk succeeds, every acked record is back in LSN order,
// and no unacked record appears except the one in flight.
func TestCrashSweep(t *testing.T) {
	images := 0
	for _, p := range netsim.CrashPoints() {
		for k := 0; k < sweepSteps; k++ {
			if crashImage(t, p, k) {
				images++
			}
		}
	}
	t.Logf("%d crash images checked", images)
	// Seven record writes each for before-log, after-log and torn-tail,
	// and the two snapshots for mid-snapshot.
	if images != 3*sweepSteps+2 {
		t.Fatalf("checked %d crash images, want %d", images, 3*sweepSteps+2)
	}
}

// crashImage runs the sweep script with p armed for step k only, and
// checks the image if the crash fired there. A snapshot's payload is its
// records' payloads, newline-joined.
func crashImage(t *testing.T, p netsim.CrashPoint, k int) bool {
	t.Helper()
	disk := crashDisk()
	cfg := store.Config{Dir: t.TempDir(), FS: disk, SnapshotEvery: 3}
	l, _ := mustOpen(t, cfg)
	var acked []string
	inFlight := ""
	for i := 0; i < sweepSteps && !disk.Fired(); i++ {
		if i == 4 {
			if err := l.Close(); err != nil {
				t.Fatalf("%v step %d: close: %v", p, k, err)
			}
			l, _ = mustOpen(t, cfg)
		}
		if i == k {
			disk.Arm(p)
		}
		payload := fmt.Sprintf("record-%d", i)
		if _, err := l.Append(1, []byte(payload)); err != nil {
			if !disk.Fired() {
				t.Fatalf("%v step %d: append %d: %v", p, k, i, err)
			}
			inFlight = payload
			break
		}
		acked = append(acked, payload)
		if l.SnapshotDue() {
			if err := l.Snapshot([]byte(strings.Join(acked, "\n"))); err != nil && !disk.Fired() {
				t.Fatalf("%v step %d: snapshot after %d: %v", p, k, i, err)
			}
		}
		disk.Arm(netsim.CrashNone)
	}
	if !disk.Fired() {
		return false
	}

	disk.Restart()
	l, rec, err := store.Open(cfg)
	if err != nil {
		t.Errorf("%v at step %d: recovery refused a crash image: %v", p, k, err)
		return true
	}
	defer l.Close()
	var got []string
	if rec.Snapshot != nil {
		got = strings.Split(string(rec.Snapshot), "\n")
	}
	if uint64(len(got)) != rec.SnapshotLSN {
		t.Errorf("%v at step %d: snapshot at LSN %d holds %d records", p, k, rec.SnapshotLSN, len(got))
	}
	for i, r := range rec.Records {
		if want := rec.SnapshotLSN + uint64(i) + 1; r.LSN != want {
			t.Errorf("%v at step %d: record %d has LSN %d, want %d", p, k, i, r.LSN, want)
		}
		got = append(got, string(r.Payload))
	}
	want := strings.Join(acked, ",")
	if g := strings.Join(got, ","); g != want && (inFlight == "" || g != strings.Join(append(acked, inFlight), ",")) {
		t.Errorf("%v at step %d: recovered [%s], want the acked [%s] (in flight: %q)", p, k, g, want, inFlight)
	}
	if lsn, err := l.Append(1, []byte("after")); err != nil || lsn != uint64(len(got)+1) {
		t.Errorf("%v at step %d: append after recovery: lsn=%d err=%v, want lsn %d", p, k, lsn, err, len(got)+1)
	}
	return true
}
