package transport

import (
	"errors"
	"time"

	"seccloud/internal/obs"
)

// RPCObs holds pre-resolved instrument cells for one transport, so the
// per-round-trip cost with observability enabled is two atomic adds and a
// histogram insert. Every client transport — the simulator's Loopback and
// the daemon's pooled socket client — records through it, so one error maps
// to one fault label whichever link carried it. A nil *RPCObs (the
// default) no-ops everywhere, keeping uninstrumented links
// allocation-free.
type RPCObs struct {
	transport string
	requests  *obs.Counter
	latency   *obs.Histogram
	faults    *obs.CounterVec
}

// NewRPCObs resolves the rpc_* instruments for transport on h; nil for a
// nil hub.
func NewRPCObs(h *obs.Hub, transport string) *RPCObs {
	if h == nil {
		return nil
	}
	return &RPCObs{
		transport: transport,
		requests:  h.Counter("rpc_requests_total", "transport").With(transport),
		latency:   h.Histogram("rpc_latency_seconds", nil, "transport").With(transport),
		faults:    h.Counter("rpc_faults_total", "transport", "fault"),
	}
}

// Observe records one round trip: lat is modeled time for the loopback
// transport and wall time for a socket; failed trips additionally count
// into rpc_faults_total by fault class.
func (o *RPCObs) Observe(lat time.Duration, err error) {
	if o == nil {
		return
	}
	o.requests.Inc()
	o.latency.Observe(lat.Seconds())
	if err != nil {
		o.faults.With(o.transport, faultLabel(err)).Inc()
	}
}

// faultLabel classifies a round-trip error for the rpc_faults_total
// fault label: injected faults by kind (drop, corrupt, disconnect, …),
// typed sheds as "overloaded", deadline misses as "timeout", anything
// else as "transport".
func faultLabel(err error) string {
	var fe *FaultError
	if errors.As(err, &fe) {
		return fe.Kind.String()
	}
	if IsOverloaded(err) {
		return "overloaded"
	}
	if IsTimeout(err) {
		return "timeout"
	}
	return "transport"
}

// RetryHook returns an OnRetry callback for a Retrier that counts retry
// attempts into rpc_retries_total{fault} on the hub. Returns nil for a
// nil hub, which Retrier treats as "no hook".
func RetryHook(h *obs.Hub) func(attempt int, err error, backoff time.Duration) {
	if h == nil {
		return nil
	}
	retries := h.Counter("rpc_retries_total", "fault")
	return func(_ int, err error, _ time.Duration) {
		retries.With(faultLabel(err)).Inc()
	}
}
