package store

import "sync"

// CrashPoint names a place in the durability pipeline where an injected
// process crash can fire. The four points span the interesting ordering
// boundaries of the log-before-ack discipline: whether the mutation's
// record is durable, whether the caller saw the acknowledgment, and
// whether the bytes on disk are whole.
type CrashPoint int

// The injectable crash points.
const (
	// CrashNone never fires.
	CrashNone CrashPoint = iota
	// CrashBeforeLog kills the process before the mutation's record is
	// written: after recovery the mutation never happened.
	CrashBeforeLog
	// CrashAfterLog kills the process after the record is durable but
	// before the caller can be acknowledged: after recovery the mutation
	// IS applied, and the client's retry must be answered idempotently.
	CrashAfterLog
	// CrashMidSnapshot kills the process halfway through writing a
	// snapshot: the half-written temp file must be ignored and recovery
	// must fall back to the previous snapshot plus the full WAL.
	CrashMidSnapshot
	// CrashTornTail kills the process halfway through writing a WAL
	// record, leaving a torn final record that recovery must detect via
	// CRC/length and truncate — never replay, never treat as fatal.
	CrashTornTail
)

// String renders the crash point name (flag values, logs).
func (p CrashPoint) String() string {
	switch p {
	case CrashNone:
		return "none"
	case CrashBeforeLog:
		return "before-log"
	case CrashAfterLog:
		return "after-log"
	case CrashMidSnapshot:
		return "mid-snapshot"
	case CrashTornTail:
		return "torn-tail"
	default:
		return "crash-point(?)"
	}
}

// CrashPointByName parses a crash point name as used by CLI flags.
func CrashPointByName(name string) (CrashPoint, bool) {
	for _, p := range append(CrashPoints(), CrashNone) {
		if p.String() == name {
			return p, true
		}
	}
	return CrashNone, false
}

// CrashPoints lists every real crash point (the crash matrix).
func CrashPoints() []CrashPoint {
	return []CrashPoint{CrashBeforeLog, CrashAfterLog, CrashMidSnapshot, CrashTornTail}
}

// Crasher injects process crashes into a Log. Arm schedules a crash at
// the next matching point; once fired, the Log is dead — every operation
// returns ErrCrashed until the state is recovered through a fresh Open.
//
// OnCrash, if set, is called exactly once when the crash fires, so a
// transport orchestrator can tear down the server's connections the way
// a real SIGKILL would. It runs on the goroutine that hit the crash
// point and must not block (spawn if teardown needs to wait on anything).
type Crasher struct {
	mu      sync.Mutex
	armed   CrashPoint
	fired   bool
	OnCrash func()
}

// Arm schedules the next matching crash point to fire. Arming CrashNone
// disarms.
func (c *Crasher) Arm(p CrashPoint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed = p
}

// Fired reports whether the crash has fired.
func (c *Crasher) Fired() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired
}

// at reports whether an armed crash should fire at point p, and if so
// consumes the arming and runs the OnCrash hook. nil Crashers never fire.
func (c *Crasher) at(p CrashPoint) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	if c.fired || c.armed != p {
		c.mu.Unlock()
		return false
	}
	c.fired = true
	c.armed = CrashNone
	hook := c.OnCrash
	c.mu.Unlock()
	if hook != nil {
		hook()
	}
	return true
}
