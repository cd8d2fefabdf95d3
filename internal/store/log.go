package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"seccloud/internal/obs"
)

// File layout inside a log directory:
//
//	snap-<%016x>.snap   snapshot covering all records with LSN ≤ <hex>
//	wal-<%016x>.log     WAL segment whose records all have LSN > <hex>
//	*.tmp               in-progress snapshot (ignored by recovery)
//
// Compaction order is the recovery invariant: the new snapshot is written
// to a temp file, synced, and atomically renamed BEFORE any old file is
// deleted, so a crash at any point leaves either (old snapshot + full WAL)
// or (new snapshot + tail WAL) — both replayable. Records carry globally
// monotonic LSNs, so a replay that sees both an overlapping snapshot and
// pre-snapshot WAL records simply skips the records the snapshot covers.

const (
	walMagic  = "SECWAL01"
	snapMagic = "SECSNAP1"
)

// ErrWedged marks a log that refused further writes after an earlier
// write or fsync failure. A failed fsync leaves the page cache in an
// indeterminate state and a short write leaves a torn frame mid-file;
// either way, appending more records would bury the damage where
// recovery's torn-tail repair can no longer reach it. The only way out
// is a fresh Open, which re-reads the directory and truncates the tear.
var ErrWedged = errors.New("store: log wedged by earlier write failure")

// Config shapes a Log.
type Config struct {
	// Dir is the log directory (created if missing).
	Dir string
	// FS is the filesystem backend; nil means the real one (OSFS). Tests
	// and the chaos harness substitute netsim.FaultFS to model a sick or
	// crashing disk.
	FS FS
	// SnapshotEvery makes SnapshotDue return true after this many records
	// appended since the last snapshot; 0 disables the hint (the owner
	// can still snapshot explicitly).
	SnapshotEvery int
	// NoSync skips the fsync after each append. Tests and simulations
	// set it for speed; a deployment wanting crash-durability must not.
	NoSync bool
	// Obs attaches WAL instruments (append latency, record/fsync
	// counters, snapshot size and compaction gauges); nil leaves the log
	// uninstrumented with zero overhead.
	Obs *obs.Hub
}

// Recovered is what Open rebuilt from disk.
type Recovered struct {
	// Snapshot is the newest intact snapshot payload (nil if none).
	Snapshot []byte
	// SnapshotLSN is the LSN the snapshot covers through.
	SnapshotLSN uint64
	// Records are the WAL records after the snapshot, in LSN order.
	Records []*Record
	// TornTail reports that a torn final record was detected and
	// truncated (the kill-mid-write artifact).
	TornTail bool
}

// Log is an append-only write-ahead log with snapshot compaction. All
// methods are safe for concurrent use.
type Log struct {
	mu        sync.Mutex
	cfg       Config
	fs        FS
	dir       string
	f         File   // active WAL segment
	walPath   string // path of the active WAL segment
	lsn       uint64 // last assigned LSN
	sinceSnap int
	closed    bool
	wedge     error // first write/fsync failure; non-nil refuses all writes
	obs       *walObs
}

// Open opens (or creates) the log directory, recovers its contents, and
// returns the log positioned to append. A torn final WAL record — the
// expected artifact of a crash mid-write — is truncated away and reported
// in Recovered; any other damage is returned as an error so corruption is
// surfaced locally instead of served to an auditor.
func Open(cfg Config) (*Log, *Recovered, error) {
	if cfg.Dir == "" {
		return nil, nil, fmt.Errorf("store: log needs a directory")
	}
	fsys := cfg.FS
	if fsys == nil {
		fsys = OSFS()
	}
	if err := fsys.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: creating log dir: %w", err)
	}
	rec, maxLSN, walPath, err := recoverDir(fsys, cfg.Dir)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{cfg: cfg, fs: fsys, dir: cfg.Dir, lsn: maxLSN, obs: newWALObs(cfg.Obs)}
	if walPath == "" {
		walPath = filepath.Join(cfg.Dir, walName(maxLSN))
		if err := l.createSegment(walPath); err != nil {
			return nil, nil, err
		}
	} else {
		f, err := fsys.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("store: reopening WAL: %w", err)
		}
		l.f, l.walPath = f, walPath
	}
	l.sinceSnap = len(rec.Records)
	return l, rec, nil
}

// createSegment starts a fresh WAL segment at path. Callers must hold l.mu
// (or own l exclusively).
func (l *Log) createSegment(path string) error {
	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating WAL segment: %w", err)
	}
	// On failure the half-created file must be scrubbed, not just closed:
	// left on disk it sorts after the still-live segment, so recovery would
	// treat that segment as sealed and turn its recoverable torn tail into
	// fatal mid-log corruption. (Found by the chaos harness: a FaultFS
	// short write during compaction's segment rotation, followed later by
	// a torn-tail crash, bricked recovery.)
	if _, err := f.Write([]byte(walMagic)); err != nil {
		f.Close()
		_ = l.fs.Remove(path)
		return fmt.Errorf("store: writing WAL magic: %w", err)
	}
	if !l.cfg.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			_ = l.fs.Remove(path)
			return fmt.Errorf("store: syncing WAL magic: %w", err)
		}
		l.obs.fsync()
	}
	l.f, l.walPath = f, path
	return nil
}

func walName(lsn uint64) string  { return fmt.Sprintf("wal-%016x.log", lsn) }
func snapName(lsn uint64) string { return fmt.Sprintf("snap-%016x.snap", lsn) }

// Append assigns the next LSN, frames the record, and writes it durably.
// It returns the assigned LSN.
func (l *Log) Append(kind uint8, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.wedge != nil {
		return 0, fmt.Errorf("%w (first failure: %v)", ErrWedged, l.wedge)
	}
	var start time.Time
	if l.obs != nil {
		start = time.Now()
	}
	rec := &Record{LSN: l.lsn + 1, Kind: kind, Payload: payload}
	frame, err := EncodeRecord(rec)
	if err != nil {
		return 0, err
	}
	if _, err := l.f.Write(frame); err != nil {
		// The frame may be partially on disk (short write). Wedge: any
		// further append would land after the tear and turn recoverable
		// tail damage into unrecoverable mid-file corruption.
		l.wedge = err
		return 0, fmt.Errorf("store: appending record: %w", err)
	}
	if !l.cfg.NoSync {
		if err := l.f.Sync(); err != nil {
			// fsyncgate discipline: after a failed fsync the kernel may
			// have dropped the dirty pages and cleared the error, so a
			// retried fsync reporting success proves nothing. The record
			// was acked to nobody; wedge so every later append fails
			// loudly instead of building on unsynced state.
			l.wedge = err
			return 0, fmt.Errorf("store: syncing record: %w", err)
		}
		l.obs.fsync()
	}
	l.lsn = rec.LSN
	l.sinceSnap++
	if l.obs != nil {
		l.obs.records.Inc()
		l.obs.appendLat.Observe(time.Since(start).Seconds())
	}
	return rec.LSN, nil
}

// SnapshotDue reports whether enough records accumulated since the last
// snapshot that the owner should compact.
func (l *Log) SnapshotDue() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return !l.closed && l.wedge == nil && l.cfg.SnapshotEvery > 0 && l.sinceSnap >= l.cfg.SnapshotEvery
}

// Wedged returns the first write/fsync failure that wedged the log, or
// nil while the log is healthy.
func (l *Log) Wedged() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wedge
}

// Snapshot writes a snapshot covering every record appended so far, then
// compacts: a fresh WAL segment replaces the old one and superseded files
// are deleted. The snapshot becomes visible atomically (temp + rename):
// a crash leaves at most a half-written temp file, which recovery
// ignores.
func (l *Log) Snapshot(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.wedge != nil {
		return fmt.Errorf("%w (first failure: %v)", ErrWedged, l.wedge)
	}
	tmp := filepath.Join(l.dir, snapName(l.lsn)+".tmp")
	data := encodeSnapshot(l.lsn, payload)
	if err := writeFileSync(l.fs, tmp, data); err != nil {
		// A snapshot failure does not wedge the log: the temp file is
		// scratch, the WAL stays authoritative, and appends continue.
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	l.obs.fsync()
	final := filepath.Join(l.dir, snapName(l.lsn))
	if err := l.fs.Rename(tmp, final); err != nil {
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return err
	}
	l.obs.fsync()
	// The snapshot is durable; rotate the WAL and drop superseded files.
	// A live segment that already starts at l.lsn holds no record (none
	// was appended since it was created) and stays live.
	live := filepath.Join(l.dir, walName(l.lsn))
	if l.walPath != live {
		old := l.f
		if err := l.createSegment(live); err != nil {
			return err
		}
		// Close result deliberately dropped: the segment was fsync'd on
		// every append (or the owner opted out via NoSync), so close has
		// nothing left to make durable, and the replacement segment is
		// already live.
		_ = old.Close()
	}
	l.sinceSnap = 0
	if l.obs != nil {
		l.obs.snapBytes.Set(float64(len(data)))
		l.obs.compactions.Inc()
	}
	l.removeSuperseded(final, live)
	return nil
}

// removeSuperseded deletes every snapshot/WAL file other than the two
// just published. Best-effort by design — the ReadDir and Remove results
// are deliberately ignored: leftovers are harmless (recovery skips
// covered records) and vanish at the next compaction, whereas failing
// the snapshot over an undeletable stale file would trade durability for
// tidiness.
func (l *Log) removeSuperseded(keepSnap, keepWAL string) {
	entries, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		p := filepath.Join(l.dir, name)
		if p == keepSnap || p == keepWAL {
			continue
		}
		if strings.HasPrefix(name, "snap-") || strings.HasPrefix(name, "wal-") {
			_ = l.fs.Remove(p)
		}
	}
}

// LSN returns the last assigned log sequence number.
func (l *Log) LSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// Kill simulates an out-of-band SIGKILL between operations: the log is
// closed without touching the files, and every later operation fails
// with ErrClosed. Recovery via Open rebuilds everything that was
// acknowledged.
func (l *Log) Kill() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
}

// Close releases the active segment (a clean shutdown, not a crash).
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	l.closed = true
	return err
}

// --- snapshot codec ---------------------------------------------------------

// encodeSnapshot frames a snapshot: magic(8) ‖ lsn(8) ‖ len(4) ‖ crc(4) ‖
// payload. The CRC covers lsn ‖ len ‖ payload so a truncated or damaged
// snapshot is detected as a unit.
func encodeSnapshot(lsn uint64, payload []byte) []byte {
	buf := make([]byte, 24+len(payload))
	copy(buf[0:8], snapMagic)
	binary.BigEndian.PutUint64(buf[8:16], lsn)
	binary.BigEndian.PutUint32(buf[16:20], uint32(len(payload)))
	copy(buf[24:], payload)
	crc := crc32.NewIEEE()
	crc.Write(buf[8:20])
	crc.Write(buf[24:])
	binary.BigEndian.PutUint32(buf[20:24], crc.Sum32())
	return buf
}

// decodeSnapshot parses a snapshot file's bytes.
func decodeSnapshot(data []byte) (lsn uint64, payload []byte, err error) {
	if len(data) < 24 || string(data[0:8]) != snapMagic {
		return 0, nil, fmt.Errorf("store: bad snapshot header: %w", ErrCorrupt)
	}
	lsn = binary.BigEndian.Uint64(data[8:16])
	n := int(binary.BigEndian.Uint32(data[16:20]))
	if n > MaxRecordLen || len(data) != 24+n {
		return 0, nil, fmt.Errorf("store: snapshot length mismatch: %w", ErrCorrupt)
	}
	crc := crc32.NewIEEE()
	crc.Write(data[8:20])
	crc.Write(data[24:])
	if got, want := crc.Sum32(), binary.BigEndian.Uint32(data[20:24]); got != want {
		return 0, nil, fmt.Errorf("store: snapshot checksum mismatch (got %08x, want %08x): %w",
			got, want, ErrCorrupt)
	}
	return lsn, data[24:], nil
}

// --- recovery ---------------------------------------------------------------

// recoverDir reads the newest intact snapshot and replays every WAL
// record after it. It returns the recovered contents, the highest LSN
// seen, and the path of the WAL segment to keep appending to ("" when a
// fresh segment must be created).
func recoverDir(fsys FS, dir string) (*Recovered, uint64, string, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, 0, "", fmt.Errorf("store: reading log dir: %w", err)
	}
	var snaps, wals []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// A crash mid-snapshot left this; it was never published.
			continue
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			snaps = append(snaps, name)
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			wals = append(wals, name)
		}
	}
	sort.Strings(snaps)
	sort.Strings(wals)

	rec := &Recovered{}
	// Newest intact snapshot wins; older ones are compaction leftovers.
	for i := len(snaps) - 1; i >= 0; i-- {
		data, err := fsys.ReadFile(filepath.Join(dir, snaps[i]))
		if err != nil {
			return nil, 0, "", fmt.Errorf("store: reading snapshot: %w", err)
		}
		lsn, payload, err := decodeSnapshot(data)
		if err != nil {
			if i == len(snaps)-1 && len(snaps) > 1 {
				// The newest snapshot is damaged but an older one exists:
				// fall back (the WAL still covers the gap only if it was
				// not compacted — a missing gap surfaces as non-contiguous
				// LSNs below, which is reported as corruption).
				continue
			}
			return nil, 0, "", err
		}
		rec.Snapshot = payload
		rec.SnapshotLSN = lsn
		break
	}

	maxLSN := rec.SnapshotLSN
	lastWAL := ""
	for wi, name := range wals {
		path := filepath.Join(dir, name)
		final := wi == len(wals)-1
		records, torn, err := readSegment(fsys, path, final)
		if err != nil {
			return nil, 0, "", fmt.Errorf("store: segment %s: %w", name, err)
		}
		rec.TornTail = rec.TornTail || torn
		for _, r := range records {
			if r.LSN <= rec.SnapshotLSN {
				continue // already covered by the snapshot
			}
			if r.LSN != maxLSN+1 {
				return nil, 0, "", fmt.Errorf("store: segment %s: LSN %d after %d: %w",
					name, r.LSN, maxLSN, ErrCorrupt)
			}
			maxLSN = r.LSN
			rec.Records = append(rec.Records, r)
		}
		if final && !torn {
			lastWAL = path
		}
	}
	// A torn tail was truncated; appending continues in a fresh segment is
	// not needed — readSegment already truncated the file, so reuse it.
	if rec.TornTail && len(wals) > 0 {
		lastWAL = filepath.Join(dir, wals[len(wals)-1])
	}
	return rec, maxLSN, lastWAL, nil
}

// readSegment reads every record of one WAL segment. In the final
// segment, a record that ends mid-frame or fails its CRC *at the tail* is
// truncated away and reported; the same damage followed by further intact
// bytes — or in a non-final segment — is corruption.
func readSegment(fsys FS, path string, final bool) ([]*Record, bool, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, false, fmt.Errorf("store: reading WAL: %w", err)
	}
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		return nil, false, fmt.Errorf("store: bad WAL magic: %w", ErrCorrupt)
	}
	var records []*Record
	r := bytes.NewReader(data[len(walMagic):])
	offset := len(walMagic)
	for {
		rec, n, err := ReadRecord(r)
		switch {
		case err == nil:
			records = append(records, rec)
			offset += n
			continue
		case errors.Is(err, io.EOF):
			return records, false, nil
		case errors.Is(err, ErrTorn), errors.Is(err, ErrCorrupt):
			if !final || r.Len() > 0 {
				// Damage with live data after it (or in an already-sealed
				// segment) cannot be a torn tail: report, don't repair.
				return nil, false, err
			}
			if terr := fsys.Truncate(path, int64(offset)); terr != nil {
				return nil, false, fmt.Errorf("store: truncating torn tail: %w", terr)
			}
			return records, true, nil
		default:
			return nil, false, err
		}
	}
}

// --- fsync helpers ----------------------------------------------------------

// writeFileSync writes data to path and fsyncs it.
func writeFileSync(fsys FS, path string, data []byte) error {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
