package netsim

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"seccloud/internal/store"
	"seccloud/internal/transport"
	"seccloud/internal/wire"
)

// FaultFS wraps another store.FS and injects disk faults from a seeded
// PRNG, so a given (seed, operation sequence) always misbehaves
// identically — the property the chaos harness's reproducers depend on.
// Four fault classes:
//
//   - SyncErrRate: File.Sync (and SyncDir) fail with an injected EIO.
//     After a failed fsync the kernel page-cache state is indeterminate
//     (the "fsyncgate" lesson), which is why store.Log wedges itself
//     sticky on this error rather than retrying.
//   - ShortWriteRate: File.Write persists only a prefix and fails with an
//     injected ENOSPC — the torn-tail artifact of a full disk.
//   - ReadRotRate: ReadFile returns a copy with one bit flipped, but only
//     for snapshot files ("snap-*"): cold-sector media rot. The WAL tail
//     is deliberately exempt, because flipping the final record's bytes is
//     byte-indistinguishable from a torn write, which recovery is allowed
//     (and required) to truncate — rotting it would make an acked write
//     vanish "legally" and turn the durability invariant into noise. The
//     disk content itself is never modified: a retried read may succeed.
//   - RenameTornRate: Rename fails before doing anything (a power-cut
//     during snapshot publication). The temp file stays; the WAL remains
//     authoritative; recovery ignores *.tmp.
//
// Metadata ops (MkdirAll, ReadDir, Remove, Truncate) inject no faults:
// they model the directory fan-out the harness does not vary.
//
// A FaultFS also kills the process that writes through it at an armed
// CrashPoint. From the write that fires the point until Restart, every
// write-side operation fails with ErrCrashed and reaches neither the disk
// nor the PRNG: a dead process writes nothing. Reads still work.
type FaultFS struct {
	inner store.FS

	mu     sync.Mutex
	cfg    FaultFSConfig
	rng    *rand.Rand
	counts FaultFSCounts
	armed  CrashPoint
	fired  bool
}

// FaultFSConfig sets the per-operation fault probabilities (all in [0,1])
// and the PRNG seed that makes the injection deterministic.
type FaultFSConfig struct {
	Seed           int64
	SyncErrRate    float64
	ShortWriteRate float64
	ReadRotRate    float64
	RenameTornRate float64
}

// active reports whether any fault can fire under this config.
func (c FaultFSConfig) active() bool {
	return c.SyncErrRate > 0 || c.ShortWriteRate > 0 || c.ReadRotRate > 0 || c.RenameTornRate > 0
}

// FaultFSCounts is a snapshot of how many faults actually fired.
type FaultFSCounts struct {
	SyncErrs    int64
	ShortWrites int64
	ReadRots    int64
	TornRenames int64
}

// Total sums every fired fault.
func (c FaultFSCounts) Total() int64 {
	return c.SyncErrs + c.ShortWrites + c.ReadRots + c.TornRenames
}

// DiskFaultError is the error every injected disk fault surfaces as.
type DiskFaultError struct {
	Op   string // "write", "sync", "rename"
	Path string
	Kind string // "enospc", "eio", "torn-rename"
}

func (e *DiskFaultError) Error() string {
	return fmt.Sprintf("faultfs: injected %s during %s of %s", e.Kind, e.Op, e.Path)
}

// IsDiskFault reports whether err (or anything it wraps) is an injected
// disk fault.
func IsDiskFault(err error) bool {
	var de *DiskFaultError
	return errors.As(err, &de)
}

// CrashPoint names a write at which a FaultFS kills the writing
// process. The four points span the ordering boundaries of the
// log-before-ack discipline: whether the mutation's record is durable,
// whether the caller saw the acknowledgment, and whether the bytes on
// disk are whole. A record write is a write to a WAL segment ("wal-*")
// other than the first through a handle that created the file, which
// is the segment's magic; neither the magic nor its sync fires a point.
type CrashPoint int

// The crash points.
const (
	CrashNone CrashPoint = iota // never fires
	// CrashBeforeLog: the next record write persists nothing.
	CrashBeforeLog
	// CrashAfterLog: the next record's sync completes, and the crash
	// fires if it succeeded. A log run without syncs never reaches it.
	CrashAfterLog
	// CrashMidSnapshot: the next write to a "*.tmp" file persists half.
	CrashMidSnapshot
	// CrashTornTail: the next record write persists half the frame and
	// syncs it.
	CrashTornTail
)

var crashPointNames = [...]string{"none", "before-log", "after-log", "mid-snapshot", "torn-tail"}

// String renders the crash point name (schedule steps, logs).
func (p CrashPoint) String() string {
	if p < 0 || int(p) >= len(crashPointNames) {
		return "crash-point(?)"
	}
	return crashPointNames[p]
}

// CrashPointByName parses a crash point name as schedules spell it.
func CrashPointByName(name string) (CrashPoint, bool) {
	for p, n := range crashPointNames {
		if n == name {
			return CrashPoint(p), true
		}
	}
	return CrashNone, false
}

// CrashPoints lists every real crash point (the crash matrix).
func CrashPoints() []CrashPoint {
	return []CrashPoint{CrashBeforeLog, CrashAfterLog, CrashMidSnapshot, CrashTornTail}
}

// ErrCrashed is what every write-side operation returns from the write
// that fired a crash point until Restart.
var ErrCrashed = errors.New("faultfs: process crashed")

// NewFaultFS wraps the real filesystem with seeded fault injection.
func NewFaultFS(cfg FaultFSConfig) *FaultFS {
	return &FaultFS{inner: store.OSFS(), cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// SetRates replaces the fault probabilities without resetting the PRNG or
// the counters, so a nemesis can sicken and heal the disk mid-run while
// the draw sequence stays a pure function of the seed.
func (f *FaultFS) SetRates(cfg FaultFSConfig) {
	f.mu.Lock()
	defer f.mu.Unlock()
	seed := f.cfg.Seed
	f.cfg = cfg
	f.cfg.Seed = seed
}

// Counts returns how many faults have fired so far.
func (f *FaultFS) Counts() FaultFSCounts {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts
}

// Arm schedules a crash at the next write p matches; CrashNone disarms.
func (f *FaultFS) Arm(p CrashPoint) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armed = p
}

// Fired reports whether a crash point fired since the last Restart.
func (f *FaultFS) Fired() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired
}

// Restart models a fresh process over the same disk: it disarms, and
// writes reach the disk again. Rates, PRNG and counts carry on.
func (f *FaultFS) Restart() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armed, f.fired = CrashNone, false
}

// fire fires p if it is armed: from here on the process is dead.
func (f *FaultFS) fire(p CrashPoint) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fired || f.armed != p {
		return false
	}
	f.armed, f.fired = CrashNone, true
	return true
}

// roll draws once and reports whether a fault with probability rate fires.
// The PRNG is only consulted while the config is active, which keeps
// fault-free runs byte-identical to runs with FaultFS absent entirely.
func (f *FaultFS) roll(rate float64) bool {
	if rate <= 0 {
		return false
	}
	return f.rng.Float64() < rate
}

// alive runs op unless a crash fired.
func (f *FaultFS) alive(op func() error) error {
	if f.Fired() {
		return ErrCrashed
	}
	return op()
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	return f.alive(func() error { return f.inner.MkdirAll(path, perm) })
}

func (f *FaultFS) OpenFile(path string, flag int, perm os.FileMode) (store.File, error) {
	if f.Fired() {
		return nil, ErrCrashed
	}
	inner, err := f.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	wal := strings.HasPrefix(filepath.Base(path), "wal-")
	return &faultFile{fs: f, path: path, inner: inner, wal: wal, magic: wal && flag&os.O_CREATE != 0}, nil
}

func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	data, err := f.inner.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.cfg.active() || !strings.HasPrefix(filepath.Base(path), "snap-") {
		return data, nil
	}
	if f.roll(f.cfg.ReadRotRate) && len(data) > 0 {
		f.counts.ReadRots++
		rotten := append([]byte(nil), data...)
		i := f.rng.Intn(len(rotten))
		rotten[i] ^= 1 << uint(f.rng.Intn(8))
		return rotten, nil
	}
	return data, nil
}

func (f *FaultFS) ReadDir(path string) ([]fs.DirEntry, error) { return f.inner.ReadDir(path) }

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if f.Fired() {
		return ErrCrashed
	}
	f.mu.Lock()
	if f.cfg.active() && f.roll(f.cfg.RenameTornRate) {
		f.counts.TornRenames++
		f.mu.Unlock()
		return &DiskFaultError{Op: "rename", Path: newpath, Kind: "torn-rename"}
	}
	f.mu.Unlock()
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(path string) error {
	return f.alive(func() error { return f.inner.Remove(path) })
}

func (f *FaultFS) Truncate(path string, size int64) error {
	return f.alive(func() error { return f.inner.Truncate(path, size) })
}

func (f *FaultFS) SyncDir(path string) error {
	return f.alive(func() error {
		if err := f.syncFault(path); err != nil {
			return err
		}
		return f.inner.SyncDir(path)
	})
}

// syncFault draws for an injected fsync failure of path.
func (f *FaultFS) syncFault(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.cfg.active() || !f.roll(f.cfg.SyncErrRate) {
		return nil
	}
	f.counts.SyncErrs++
	return &DiskFaultError{Op: "sync", Path: path, Kind: "eio"}
}

// faultFile intercepts writes and syncs on one open handle, which one
// goroutine uses at a time (store.Log writes under its lock).
type faultFile struct {
	fs     *FaultFS
	path   string
	inner  store.File
	wal    bool // a WAL segment: its writes after the magic are records
	magic  bool // the next write is the magic of a segment this handle created
	record bool // the last write was a record, whose sync is the after-log point
}

// Write fires an armed crash point when this write is the one it names.
// The dying process's half write still goes through the fault rates, as
// the bytes of any other write do, and a torn tail's is synced.
func (ff *faultFile) Write(p []byte) (int, error) {
	ff.record, ff.magic = ff.wal && !ff.magic, false
	switch {
	case ff.fs.Fired(), ff.record && ff.fs.fire(CrashBeforeLog):
		return 0, ErrCrashed
	case ff.record && ff.fs.fire(CrashTornTail):
		if _, err := ff.write(p[:len(p)/2]); err == nil {
			_ = ff.sync()
		}
		return 0, ErrCrashed
	case strings.HasSuffix(ff.path, ".tmp") && ff.fs.fire(CrashMidSnapshot):
		_, _ = ff.write(p[:len(p)/2])
		return 0, ErrCrashed
	}
	return ff.write(p)
}

// write is Write under the fault rates alone.
func (ff *faultFile) write(p []byte) (int, error) {
	ff.fs.mu.Lock()
	if ff.fs.cfg.active() && ff.fs.roll(ff.fs.cfg.ShortWriteRate) {
		ff.fs.counts.ShortWrites++
		n := len(p) / 2
		ff.fs.mu.Unlock()
		// The prefix really lands on disk — that is what makes the fault
		// "torn" rather than clean: the next recovery must cope with it.
		if n > 0 {
			if _, werr := ff.inner.Write(p[:n]); werr != nil {
				return 0, werr
			}
		}
		return n, &DiskFaultError{Op: "write", Path: ff.path, Kind: "enospc"}
	}
	ff.fs.mu.Unlock()
	return ff.inner.Write(p)
}

// Sync fires an armed after-log point once a record's sync succeeded.
func (ff *faultFile) Sync() error {
	if ff.fs.Fired() {
		return ErrCrashed
	}
	if err := ff.sync(); err != nil || !ff.record || !ff.fs.fire(CrashAfterLog) {
		return err
	}
	return ErrCrashed
}

// sync is Sync under the fault rates alone.
func (ff *faultFile) sync() error {
	if err := ff.fs.syncFault(ff.path); err != nil {
		return err
	}
	return ff.inner.Sync()
}

func (ff *faultFile) Close() error { return ff.inner.Close() }

// CrashGate is the process half of a disk crash, in front of a server
// whose WAL lives on a FaultFS: it drops the reply of the request in
// which the disk fired a crash point and kills the server, and drops
// every later request until the disk restarts. A dropped reply is a nil
// one, which transports treat as the process dying mid-request.
type CrashGate struct {
	disk *FaultFS
	next transport.Handler
	kill func()
}

// NewCrashGate puts a gate in front of next, whose writes go to disk.
// kill runs after the request the crash fired in returned, outside any
// lock a disk call was made under, and may run more than once a crash.
func NewCrashGate(disk *FaultFS, next transport.Handler, kill func()) *CrashGate {
	return &CrashGate{disk: disk, next: next, kill: kill}
}

// Handle forwards m unless the process is dead, and drops the reply of
// the request it dies in.
func (g *CrashGate) Handle(m wire.Message) wire.Message {
	if g.disk.Fired() {
		return nil
	}
	resp := g.next.Handle(m)
	if g.disk.Fired() {
		g.kill()
		return nil
	}
	return resp
}
