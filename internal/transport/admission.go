package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"seccloud/internal/obs"
	"seccloud/internal/wire"
)

// OverloadedError is the client-side face of a server's typed shed reply
// (wire.OverloadResponse): the peer answered, honestly, that it refused
// to execute the request because its admission queue is full.
//
// It is deliberately OUTSIDE the retryable taxonomy — IsRetryable and
// IsTimeout both report false for it — because retrying into a saturated
// server amplifies the overload that caused the shed in the first place.
// Callers should back off for RetryAfter (when the server hinted one) or
// fail over to a different replica. Audit layers classify it as a shed
// round, never a bad proof: an overloaded server is busy, not cheating.
type OverloadedError struct {
	// Op names the operation that was shed.
	Op string
	// RetryAfter is the server's backoff hint; zero means "no hint".
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadedError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("netsim: %s shed by overloaded peer (retry after %v)", e.Op, e.RetryAfter)
	}
	return fmt.Sprintf("netsim: %s shed by overloaded peer", e.Op)
}

// IsOverloaded reports whether err (anywhere in its chain) is a typed
// overload shed.
func IsOverloaded(err error) bool {
	var oe *OverloadedError
	return errors.As(err, &oe)
}

// RetryAfterMillis encodes a backoff hint for the wire, where 0 means
// "no hint". Sub-millisecond hints round UP to 1ms instead of truncating
// to 0: a 500µs RetryAfter that arrives as "no hint" strips the client of
// the backoff signal entirely, which is the opposite of what a shedding
// server wants.
func RetryAfterMillis(d time.Duration) int64 {
	if d <= 0 {
		return 0
	}
	ms := int64(d / time.Millisecond)
	if d%time.Millisecond != 0 {
		ms++
	}
	return ms
}

// CheckOverload converts a decoded reply into the typed *OverloadedError
// when the peer shed the request. Transports call it on every successful
// decode so an OverloadResponse never leaks to protocol code as a normal
// message; any other message passes through.
func CheckOverload(op string, m wire.Message) (wire.Message, error) {
	ov, ok := m.(*wire.OverloadResponse)
	if !ok {
		return m, nil
	}
	return nil, &OverloadedError{Op: op, RetryAfter: time.Duration(ov.RetryAfterMillis) * time.Millisecond}
}

// AdmissionConfig bounds a server's concurrent work and its request
// queue.
type AdmissionConfig struct {
	// MaxInflight is the number of requests allowed to execute at once;
	// values < 1 mean 1.
	MaxInflight int
	// MaxQueue bounds the waiters behind the inflight slots. 0 means no
	// queue (shed immediately when all slots are busy). A negative value
	// means an UNBOUNDED queue — the classic unprotected server — kept
	// only so experiments can show what shedding buys.
	MaxQueue int
	// RetryAfter is the backoff hint attached to shed responses.
	RetryAfter time.Duration
}

// admitWaiter is one queued request. done carries slot ownership: the
// releaser that closes it has already transferred its inflight slot.
type admitWaiter struct {
	done     chan struct{}
	admitted bool // guarded by Admission.mu
}

// Admission is a server-side gate: at most MaxInflight requests execute
// concurrently, at most MaxQueue more wait, and everything beyond that is
// shed with a typed overload response instead of queueing without bound.
//
// Bounded queues drain newest-first (adaptive LIFO): under a burst the
// most recently arrived request is the one whose client is least likely
// to have given up, so serving it converts capacity into goodput instead
// of into replies nobody is waiting for anymore. The unbounded mode
// (MaxQueue < 0) drains FIFO on purpose — it models the naive server
// whose latency grows with its backlog, which is exactly the pathology
// the experiments contrast against.
//
// Safe for concurrent use. The zero value is not useful; use
// NewAdmission.
type Admission struct {
	cfg AdmissionConfig

	mu       sync.Mutex
	inflight int
	waiters  []*admitWaiter

	admitted uint64
	queued   uint64
	shed     uint64
	maxDepth int

	obsShed *obs.Counter
}

// NewAdmission returns a gate for cfg.
func NewAdmission(cfg AdmissionConfig) *Admission {
	if cfg.MaxInflight < 1 {
		cfg.MaxInflight = 1
	}
	return &Admission{cfg: cfg}
}

// WithObs registers the gate's instruments on h under the given transport
// label: admission_shed_total counts sheds, and scrape-time gauges
// admission_inflight / admission_queue_depth expose live occupancy.
// Returns a for chaining; a nil hub is a no-op.
func (a *Admission) WithObs(h *obs.Hub, transport string) *Admission {
	if h == nil {
		return a
	}
	a.obsShed = h.Counter("admission_shed_total", "transport").With(transport)
	reg := h.Registry()
	inflight := reg.Gauge("admission_inflight", "transport").With(transport)
	depth := reg.Gauge("admission_queue_depth", "transport").With(transport)
	reg.OnScrape(func() {
		i, q := a.Depth()
		inflight.Set(float64(i))
		depth.Set(float64(q))
	})
	return a
}

// RetryAfter returns the configured shed backoff hint.
func (a *Admission) RetryAfter() time.Duration { return a.cfg.RetryAfter }

// shedError builds the typed error for a locally applied gate.
func (a *Admission) shedError(op string) error {
	return &OverloadedError{Op: op, RetryAfter: a.cfg.RetryAfter}
}

// Acquire admits the caller, queues it, or sheds it. A nil return means
// the caller owns an execution slot and must call Release exactly once.
// A shed returns an *OverloadedError; a cancellation while queued returns
// a timeout-classified transport error (the caller gave up waiting — the
// request was never executed).
func (a *Admission) Acquire(ctx context.Context) error {
	a.mu.Lock()
	if a.inflight < a.cfg.MaxInflight {
		a.inflight++
		a.admitted++
		a.mu.Unlock()
		return nil
	}
	if a.cfg.MaxQueue >= 0 && len(a.waiters) >= a.cfg.MaxQueue {
		a.shed++
		if d := len(a.waiters); d > a.maxDepth {
			a.maxDepth = d
		}
		a.mu.Unlock()
		if a.obsShed != nil {
			a.obsShed.Inc()
		}
		return a.shedError("admit")
	}
	w := &admitWaiter{done: make(chan struct{})}
	a.waiters = append(a.waiters, w)
	a.queued++
	if d := len(a.waiters); d > a.maxDepth {
		a.maxDepth = d
	}
	a.mu.Unlock()

	select {
	case <-w.done:
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		if w.admitted {
			// Lost the race: a releaser handed us a slot just as the
			// caller gave up. Pass the slot on so it is not leaked.
			a.mu.Unlock()
			a.Release()
			return &TransportError{Op: "admit", Timeout: true, Err: ctx.Err()}
		}
		for i, q := range a.waiters {
			if q == w {
				a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
				break
			}
		}
		a.mu.Unlock()
		return &TransportError{Op: "admit", Timeout: true, Err: ctx.Err()}
	}
}

// Release returns an execution slot: the next waiter (newest-first for
// bounded queues, oldest-first for the unbounded baseline) inherits it,
// or the slot goes idle.
func (a *Admission) Release() {
	a.mu.Lock()
	if n := len(a.waiters); n > 0 {
		var w *admitWaiter
		if a.cfg.MaxQueue < 0 {
			w, a.waiters = a.waiters[0], a.waiters[1:]
		} else {
			w, a.waiters = a.waiters[n-1], a.waiters[:n-1]
		}
		w.admitted = true
		a.admitted++
		close(w.done)
		a.mu.Unlock()
		return
	}
	a.inflight--
	a.mu.Unlock()
}

// Depth returns the current occupancy: executing requests and queued
// waiters.
func (a *Admission) Depth() (inflight, queued int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight, len(a.waiters)
}

// AdmissionStats is a snapshot of the gate's counters.
type AdmissionStats struct {
	// Admitted counts requests that got an execution slot.
	Admitted uint64
	// Queued counts requests that waited before executing (or giving up).
	Queued uint64
	// Shed counts requests refused with an overload response.
	Shed uint64
	// MaxQueueDepth is the deepest the wait queue ever got.
	MaxQueueDepth int
}

// Snapshot returns the gate counters.
func (a *Admission) Snapshot() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdmissionStats{Admitted: a.admitted, Queued: a.queued, Shed: a.shed, MaxQueueDepth: a.maxDepth}
}
