package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func mustOpen(t *testing.T, cfg Config) (*Log, *Recovered) {
	t.Helper()
	l, rec, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func TestRecordRoundTrip(t *testing.T) {
	rec := &Record{LSN: 42, Kind: 7, Payload: []byte("hello durability")}
	frame, err := EncodeRecord(rec)
	if err != nil {
		t.Fatalf("EncodeRecord: %v", err)
	}
	got, n, err := ReadRecord(frame)
	if err != nil {
		t.Fatalf("ReadRecord: %v", err)
	}
	if n != len(frame) {
		t.Fatalf("consumed %d of %d bytes", n, len(frame))
	}
	if got.LSN != rec.LSN || got.Kind != rec.Kind || !bytes.Equal(got.Payload, rec.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, rec)
	}
}

func TestRecordDetectsCorruption(t *testing.T) {
	frame, _ := EncodeRecord(&Record{LSN: 1, Kind: 1, Payload: []byte("payload")})
	for _, i := range []int{8, 12, len(frame) - 1} {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0xff
		if _, _, err := ReadRecord(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("flip at %d: want ErrCorrupt, got %v", i, err)
		}
	}
}

func TestRecordDetectsTruncation(t *testing.T) {
	frame, _ := EncodeRecord(&Record{LSN: 1, Kind: 1, Payload: []byte("payload")})
	for _, n := range []int{1, 7, 10, len(frame) - 1} {
		if _, _, err := ReadRecord(frame[:n]); !errors.Is(err, ErrTorn) {
			t.Errorf("truncate at %d: want ErrTorn, got %v", n, err)
		}
	}
	if _, _, err := ReadRecord(nil); err == nil || errors.Is(err, ErrTorn) {
		// clean end-of-stream is EOF, not a torn record
		t.Errorf("empty stream: want io.EOF, got %v", err)
	}
}

func TestAppendReplay(t *testing.T) {
	dir := t.TempDir()
	l, rec := mustOpen(t, Config{Dir: dir, NoSync: true})
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	for i := 0; i < 10; i++ {
		lsn, err := l.Append(3, []byte(fmt.Sprintf("mutation-%d", i)))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn %d, want %d", lsn, i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, rec = mustOpen(t, Config{Dir: dir, NoSync: true})
	if len(rec.Records) != 10 || rec.TornTail {
		t.Fatalf("recovered %d records (torn=%v), want 10", len(rec.Records), rec.TornTail)
	}
	for i, r := range rec.Records {
		if want := fmt.Sprintf("mutation-%d", i); string(r.Payload) != want || r.Kind != 3 {
			t.Fatalf("record %d: kind %d payload %q", i, r.Kind, r.Payload)
		}
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Config{Dir: dir, SnapshotEvery: 3, NoSync: true})
	for i := 0; i < 3; i++ {
		if _, err := l.Append(1, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if !l.SnapshotDue() {
		t.Fatal("snapshot not due after SnapshotEvery appends")
	}
	if err := l.Snapshot([]byte("state@3")); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if l.SnapshotDue() {
		t.Fatal("snapshot still due after compaction")
	}
	// Post-snapshot records replay on top of the snapshot.
	if _, err := l.Append(2, []byte("after")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, rec := mustOpen(t, Config{Dir: dir, NoSync: true})
	if string(rec.Snapshot) != "state@3" || rec.SnapshotLSN != 3 {
		t.Fatalf("snapshot %q @ %d", rec.Snapshot, rec.SnapshotLSN)
	}
	if len(rec.Records) != 1 || string(rec.Records[0].Payload) != "after" || rec.Records[0].LSN != 4 {
		t.Fatalf("post-snapshot records: %+v", rec.Records)
	}
	// Compaction actually dropped the old segment.
	entries, _ := os.ReadDir(dir)
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("dir has %v, want exactly one snapshot + one WAL", names)
	}
}

// TestSnapshotWithoutAppends: a snapshot right after Open of an empty
// directory, and a second one with no append in between, keep the live
// WAL segment instead of re-creating it under the same name; a reopen
// recovers the last payload and the records appended after it.
func TestSnapshotWithoutAppends(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Config{Dir: dir, NoSync: true})
	for _, p := range []string{"first", "second"} {
		if err := l.Snapshot([]byte(p)); err != nil {
			t.Fatalf("Snapshot(%q): %v", p, err)
		}
	}
	if _, err := l.Append(1, []byte("after")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, rec := mustOpen(t, Config{Dir: dir, NoSync: true})
	if string(rec.Snapshot) != "second" || rec.SnapshotLSN != 0 {
		t.Fatalf("snapshot %q @ %d, want \"second\" @ 0", rec.Snapshot, rec.SnapshotLSN)
	}
	if len(rec.Records) != 1 || string(rec.Records[0].Payload) != "after" {
		t.Fatalf("post-snapshot records: %+v", rec.Records)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 2 {
		t.Fatalf("dir has %d files, want exactly one snapshot + one WAL", len(entries))
	}
}

func TestKillBetweenOperations(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Config{Dir: dir, NoSync: true})
	l.Append(1, []byte("acked"))
	l.Kill()
	if _, err := l.Append(1, []byte("post-kill")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after Kill: %v", err)
	}
	_, rec := mustOpen(t, Config{Dir: dir, NoSync: true})
	if len(rec.Records) != 1 || string(rec.Records[0].Payload) != "acked" {
		t.Fatalf("recovered %+v", rec.Records)
	}
}

func TestInteriorCorruptionIsFatalNotTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Config{Dir: dir, NoSync: true})
	l.Append(1, []byte("first"))
	l.Append(1, []byte("second"))
	l.Close()
	// Flip a byte inside the FIRST record: damage followed by intact data
	// is local corruption, not a torn tail.
	path := filepath.Join(dir, walName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(walMagic)+12] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Config{Dir: dir, NoSync: true}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("interior corruption: want ErrCorrupt, got %v", err)
	}
}

// TestSnapshotRefusesOversizePayload: a payload the snapshot decoder
// would refuse is refused before anything is written, so the WAL that
// covers the state survives and a reopen recovers every record.
func TestSnapshotRefusesOversizePayload(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Config{Dir: dir, NoSync: true})
	if _, err := l.Append(1, []byte("acked")); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(make([]byte, MaxRecordLen+1)); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversize snapshot: got %v, want ErrRecordTooLarge", err)
	}
	if _, err := l.Append(1, []byte("after")); err != nil {
		t.Fatalf("append after a refused snapshot: %v", err)
	}
	l.Close()
	_, rec := mustOpen(t, Config{Dir: dir, NoSync: true})
	if rec.Snapshot != nil || len(rec.Records) != 2 {
		t.Fatalf("recovered snapshot %v and %d records, want the whole WAL", rec.Snapshot != nil, len(rec.Records))
	}
}

// TestSnapshotKeepBounds: a snapshot may retain records from any LSN
// still on disk up to one past the last, and no other.
func TestSnapshotKeepBounds(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Config{Dir: dir, NoSync: true})
	for i := 0; i < 4; i++ {
		if _, err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.SnapshotKeep(6, nil); err == nil {
		t.Fatal("a snapshot at LSN 4 retained records from 6")
	}
	if err := l.SnapshotKeep(3, []byte("0 1")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []byte{4}); err != nil {
		t.Fatal(err)
	}
	// The snapshot at 4 retains 3 and 4, so their segment, which also
	// holds 1 and 2, stays, and a floor of 1 is still allowed.
	if err := l.SnapshotKeep(1, nil); err != nil {
		t.Fatalf("keep 1 with the first segment on disk: %v", err)
	}
	if err := l.SnapshotKeep(6, []byte("0 1 2 3 4")); err != nil {
		t.Fatal(err)
	}
	if err := l.SnapshotKeep(3, nil); err == nil {
		t.Fatal("a snapshot retained records whose segment was deleted")
	}
	l.Close()
	_, rec := mustOpen(t, Config{Dir: dir, NoSync: true})
	if string(rec.Snapshot) != "0 1 2 3 4" || rec.SnapshotLSN != 5 || len(rec.Retained)+len(rec.Records) != 0 {
		t.Fatalf("recovered %q at %d, %d retained, %d after", rec.Snapshot, rec.SnapshotLSN, len(rec.Retained), len(rec.Records))
	}
}
