// Package netsim provides the small RPC abstraction SecCloud parties talk
// over (Client, Handler) and the in-process transport behind it.
//
// Loopback fully encodes every message, so byte counts are exact, and
// charges a configurable latency/bandwidth model to a virtual clock. This
// is the substrate for the paper's transmission-cost (C_trans) accounting
// — the paper itself simulates; we additionally keep the real protocol
// bytes. The real-socket implementation of the same interfaces is
// internal/daemon; the fault injector, error taxonomy, retries, admission
// and hedging here serve both.
//
// The paper highlights that "data transfer bottlenecks are regarded top
// ten obstacles" for cloud computing; Stats makes those transfer costs a
// first-class measured quantity.
package netsim

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"seccloud/internal/obs"
	"seccloud/internal/wire"
)

// Handler processes a single request and produces a response. A Handler
// must be safe for concurrent use; a socket server invokes it from
// per-connection goroutines.
//
// A nil response means the handling process died mid-request (e.g. an
// injected crash point fired): transports treat it as a connection death
// — the caller sees a retryable transport error, never a reply — exactly
// what a SIGKILL between receiving a request and writing its response
// looks like from the outside.
type Handler interface {
	Handle(m wire.Message) wire.Message
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(m wire.Message) wire.Message

// Handle calls f(m).
func (f HandlerFunc) Handle(m wire.Message) wire.Message { return f(m) }

// Client performs request/response round trips against one peer.
type Client interface {
	// RoundTripContext sends m and waits for the peer's reply, with
	// cancellation and a per-request deadline taken from ctx (pass
	// context.Background() for none beyond the transport's own).
	// Failures are classified by the package's error taxonomy:
	// transport-class errors satisfy IsRetryable.
	RoundTripContext(ctx context.Context, m wire.Message) (wire.Message, error)
	// Stats returns a snapshot of the link's traffic counters.
	Stats() StatsSnapshot
	// Close releases the client's resources.
	Close() error
}

// LinkConfig models a network link for the loopback transport.
type LinkConfig struct {
	// RTT is the round-trip latency charged per call.
	RTT time.Duration
	// BytesPerSecond is the link bandwidth; zero means infinite.
	BytesPerSecond float64
}

// Stats accumulates traffic counters. Safe for concurrent use; the zero
// value is ready.
type Stats struct {
	mu         sync.Mutex
	calls      int64
	bytesSent  int64
	bytesRecv  int64
	simLatency time.Duration
}

// StatsSnapshot is an immutable copy of the counters.
type StatsSnapshot struct {
	// Calls is the number of round trips completed.
	Calls int64
	// BytesSent counts request bytes (client → server).
	BytesSent int64
	// BytesRecv counts response bytes (server → client).
	BytesRecv int64
	// SimLatency is the total modeled network time (loopback only; zero
	// on a real socket, where latency is real).
	SimLatency time.Duration
	// Faults counts injected network faults on this link.
	Faults FaultCounts
}

// TotalBytes is the sum of both directions.
func (s StatsSnapshot) TotalBytes() int64 { return s.BytesSent + s.BytesRecv }

func (s *Stats) record(sent, recv int, lat time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	s.bytesSent += int64(sent)
	s.bytesRecv += int64(recv)
	s.simLatency += lat
}

// Snapshot returns a copy of the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StatsSnapshot{
		Calls:      s.calls,
		BytesSent:  s.bytesSent,
		BytesRecv:  s.bytesRecv,
		SimLatency: s.simLatency,
	}
}

// Reset zeroes the counters.
func (s *Stats) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls, s.bytesSent, s.bytesRecv, s.simLatency = 0, 0, 0, 0
}

// Loopback is the in-process transport. It encodes every message through
// the real wire codec (so malformed messages fail exactly as they would on
// a socket) and charges the link model to a virtual clock. With a
// FaultConfig attached (WithFaults) it additionally injects seeded,
// deterministic network faults on both message legs.
type Loopback struct {
	handler   Handler
	link      LinkConfig
	stats     Stats
	faults    atomic.Pointer[Injector]
	clock     atomic.Pointer[Clock]
	obs       *RPCObs
	admission *Admission
}

var _ Client = (*Loopback)(nil)

// NewLoopback returns a loopback client bound to handler.
func NewLoopback(handler Handler, link LinkConfig) *Loopback {
	return &Loopback{handler: handler, link: link}
}

// WithFaults attaches a fault injector to the link and returns l.
func (l *Loopback) WithFaults(fc FaultConfig) *Loopback {
	l.faults.Store(NewInjector(fc))
	return l
}

// SetFaults replaces the link's fault configuration at runtime — the
// nemesis handle. The fault counters accumulated so far carry over to the
// new injector, so Stats stays monotonic across reconfigurations; the
// PRNG restarts from the new config's seed, keeping every configuration
// epoch independently reproducible.
func (l *Loopback) SetFaults(fc FaultConfig) {
	old := l.faults.Load()
	inj := NewInjector(fc)
	if old != nil {
		if inj == nil {
			// Inert config: keep an injector alive purely to carry the
			// historical counters (all rates zero, so it never fires).
			inj = &Injector{}
		}
		inj.counts = old.Snapshot()
	}
	l.faults.Store(inj)
}

// WithClock makes the link evaluate caller deadlines against c instead of
// the wall clock, so injected clock skew feeds the same deadline
// arithmetic production code would run. A nil clock (the default) means
// time.Now.
func (l *Loopback) WithClock(c *Clock) *Loopback {
	l.clock.Store(c)
	return l
}

// now reads the link's notion of current time.
func (l *Loopback) now() time.Time {
	if c := l.clock.Load(); c != nil {
		return c.Now()
	}
	return time.Now()
}

// WithObs attaches observability instruments to the link (latency
// histogram, request and fault counters under transport="loopback") and
// returns l. A nil hub leaves the link uninstrumented.
func (l *Loopback) WithObs(h *obs.Hub) *Loopback {
	l.obs = NewRPCObs(h, "loopback")
	return l
}

// WithAdmission puts the "server side" of the loopback behind an
// admission gate: requests beyond the gate's inflight and queue bounds
// receive a typed overload response (surfacing to callers as a
// non-retryable *OverloadedError) instead of executing. Gates are meant
// to be shared — attach the same *Admission to every loopback reaching
// one server so the bound covers the server, not the link. Unlike the
// link's virtual latency, time spent queued at the gate is real blocked
// time, which is what makes overload experiments honest.
func (l *Loopback) WithAdmission(a *Admission) *Loopback {
	l.admission = a
	return l
}

// RoundTripContext encodes m, delivers it to the handler, and encodes the
// reply, with cancellation and deadline handling. The loopback's latency is virtual: a ctx deadline is enforced against
// the *modeled* latency of this call (link RTT + transfer + injected
// delay), so deadline behaviour is deterministic and test-friendly.
func (l *Loopback) RoundTripContext(ctx context.Context, m wire.Message) (wire.Message, error) {
	resp, lat, err := l.roundTripModeled(ctx, m)
	if err == nil {
		resp, err = CheckOverload("roundtrip", resp)
	}
	l.obs.Observe(lat, err)
	return resp, err
}

// roundTripModeled performs the round trip and reports the modeled
// latency accumulated up to the point the call succeeded or died, which
// the observability layer records even for failed trips.
func (l *Loopback) roundTripModeled(ctx context.Context, m wire.Message) (wire.Message, time.Duration, error) {
	var lat time.Duration
	if err := ctx.Err(); err != nil {
		return nil, lat, transportErr("roundtrip", err)
	}
	reqBytes, err := wire.Encode(m)
	if err != nil {
		return nil, lat, err
	}
	// One injector per round trip: a concurrent SetFaults reconfigures
	// the *next* call, never a call in flight.
	faults := l.faults.Load()

	// Request leg.
	reqPlan := faults.Plan(true)
	lat += reqPlan.Delay
	if reqPlan.Disconnect {
		return nil, lat, &FaultError{Kind: FaultDisconnect, Op: "request"}
	}
	if reqPlan.Drop {
		l.stats.record(len(reqBytes), 0, lat)
		return nil, lat, &FaultError{Kind: FaultDrop, Op: "request"}
	}
	if reqPlan.Corrupt {
		reqBytes = append([]byte(nil), reqBytes...)
		faults.Corrupt(reqBytes)
	}
	// Decode on the "server side" to faithfully model (de)serialization.
	req, err := wire.Decode(reqBytes)
	if err != nil {
		l.stats.record(len(reqBytes), 0, lat)
		return nil, lat, &FaultError{Kind: FaultCorrupt, Op: "request", Err: err}
	}
	var resp wire.Message
	shed := false
	if l.admission != nil {
		if aerr := l.admission.Acquire(ctx); aerr != nil {
			if !IsOverloaded(aerr) {
				// Gave up while queued: the request never executed.
				l.stats.record(len(reqBytes), 0, lat)
				return nil, lat, aerr
			}
			// Shed: the server answers with the typed overload frame,
			// which travels the response leg like any other reply.
			shed = true
			resp = &wire.OverloadResponse{
				RetryAfterMillis: RetryAfterMillis(l.admission.RetryAfter()),
			}
		} else {
			resp = l.handler.Handle(req)
			l.admission.Release()
		}
	} else {
		resp = l.handler.Handle(req)
	}
	if resp == nil {
		// The "process" died mid-request (crash injection): the caller's
		// connection just goes dead — a retryable transport fault, not a
		// reply.
		l.stats.record(len(reqBytes), 0, lat)
		return nil, lat, &FaultError{Kind: FaultDisconnect, Op: "response",
			Err: errors.New("netsim: peer died mid-request")}
	}
	if reqPlan.Duplicate && !shed {
		// A retransmit the server cannot tell from a fresh request: the
		// handler runs again and the extra answer is discarded, exactly
		// what a duplicated datagram does to a stateless responder.
		_ = l.handler.Handle(req)
	}
	if l.admission != nil {
		// Time spent queued at the gate is real, not modeled: a caller
		// whose deadline expired while waiting must see a timeout, not a
		// reply it has already given up on.
		if cerr := ctx.Err(); cerr != nil {
			l.stats.record(len(reqBytes), 0, lat)
			return nil, lat, transportErr("roundtrip", cerr)
		}
	}

	// Response leg.
	respBytes, err := wire.Encode(resp)
	if err != nil {
		return nil, lat, err
	}
	respPlan := faults.Plan(false)
	lat += respPlan.Delay
	if respPlan.Disconnect {
		l.stats.record(len(reqBytes), 0, lat)
		return nil, lat, &FaultError{Kind: FaultDisconnect, Op: "response"}
	}
	if respPlan.Drop {
		l.stats.record(len(reqBytes), 0, lat)
		return nil, lat, &FaultError{Kind: FaultDrop, Op: "response"}
	}
	if respPlan.Corrupt {
		respBytes = append([]byte(nil), respBytes...)
		faults.Corrupt(respBytes)
	}
	resp2, err := wire.Decode(respBytes)
	if err != nil {
		l.stats.record(len(reqBytes), len(respBytes), lat)
		return nil, lat, &FaultError{Kind: FaultCorrupt, Op: "response", Err: err}
	}
	lat += l.link.RTT
	if l.link.BytesPerSecond > 0 {
		transfer := float64(len(reqBytes)+len(respBytes)) / l.link.BytesPerSecond
		lat += time.Duration(transfer * float64(time.Second))
	}
	if deadline, ok := ctx.Deadline(); ok {
		// Virtual time vs. the caller's budget: if the modeled latency of
		// this call exceeds the remaining real budget, the reply would
		// have arrived too late. The budget is read off the link's clock,
		// so injected skew shifts deadline decisions exactly as a skewed
		// host clock would.
		if remaining := deadline.Sub(l.now()); lat > remaining {
			l.stats.record(len(reqBytes), len(respBytes), lat)
			return nil, lat, &TransportError{Op: "roundtrip", Timeout: true, Err: context.DeadlineExceeded}
		}
	}
	l.stats.record(len(reqBytes), len(respBytes), lat)
	return resp2, lat, nil
}

// Stats returns the link counters.
func (l *Loopback) Stats() StatsSnapshot {
	snap := l.stats.Snapshot()
	snap.Faults = l.faults.Load().Snapshot()
	return snap
}

// Close is a no-op for the loopback transport.
func (l *Loopback) Close() error { return nil }
