package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"seccloud/internal/netsim"
	"seccloud/internal/ops"
	"seccloud/internal/pairing"
	"seccloud/internal/wire"
)

// Span names. The three layers an op's wall time is split over are
// exactly the three decorators the harness owns: the op itself (client
// code: core.User or core.Agency), the netsim.Client returned by Dial
// (everything between the caller and the handler: pool, framing, codec,
// socket) and the netsim.Handler given to daemon.Listen (core.Server).
const (
	spanOp        = "op"
	spanRoundTrip = "client.roundtrip"
	spanHandle    = "server.handle"
)

// span is one recorded interval. Spans of one op share its id in Op;
// Parent is the id of the span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// Kind is the op kind for an op span and the request's wire kind for
	// the other two.
	Kind    string `json:"kind"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Crypto is the delta of the span's own party's op counters: user
	// plus agency for an op, the server for a handle.
	Crypto *ops.Snapshot `json:"crypto,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// exchange is one request/response pair an op moved through the client
// decorator, kept until the op ends so the codec can be timed on exactly
// these messages.
type exchange struct {
	req, resp wire.Message
}

// opTrace is what the traced run keeps per op beyond its spans.
type opTrace struct {
	id   int
	kind opKind
	wall time.Duration
	// user, agency, server are the crypto op deltas per party.
	user, agency, server ops.Snapshot
	fs                   fsCounts
	wire                 wireCost
	sampled, verified    int
	lostRounds           int
}

// tracer records spans for the traced run. It is built disabled; while
// disabled its decorators forward without reading the clock, which is the
// "untraced" side of trace.overhead_ratio. The traced run has one client,
// so at most one op, one round trip and one handler call are open at a
// time; the mutex is for the handler, which runs on the listener's
// connection goroutine.
type tracer struct {
	now     clock
	enabled atomic.Bool
	epoch   time.Time

	mu      sync.Mutex
	nextID  int
	spans   []span
	ops     []*opTrace
	curOp   *span
	curRT   *span
	pending []exchange
}

func newTracer(now clock) *tracer { return &tracer{now: now, epoch: now()} }

func (t *tracer) open(name, kind string, parent *span) *span {
	t.nextID++
	s := &span{ID: t.nextID, Name: name, Kind: kind, StartNS: int64(t.now().Sub(t.epoch))}
	if parent != nil {
		s.Parent, s.Op = parent.ID, parent.Op
	} else {
		s.Op = s.ID
	}
	return s
}

func (t *tracer) finish(s *span) {
	s.EndNS = int64(t.now().Sub(t.epoch))
	t.spans = append(t.spans, *s)
}

// openOp is the handle startOp returns; its zero value (tracing off) does
// nothing.
type openOp struct {
	t      *tracer
	e      *env
	s      *span
	tr     *opTrace
	before [3]ops.Snapshot
	fs     fsCounts
}

func counters(e *env) [3]ops.Snapshot {
	return [3]ops.Snapshot{
		e.userPP.G1().Counters().Snapshot(),
		e.agencyPP.G1().Counters().Snapshot(),
		e.serverPP.G1().Counters().Snapshot(),
	}
}

// startOp opens the root span of one op. Safe on a nil tracer.
func (t *tracer) startOp(k opKind, e *env) openOp {
	if t == nil || !t.enabled.Load() {
		return openOp{}
	}
	o := openOp{t: t, e: e, before: counters(e), fs: e.fs.counts()}
	t.mu.Lock()
	o.s = t.open(spanOp, k.String(), nil)
	o.tr = &opTrace{id: o.s.ID, kind: k}
	t.curOp = o.s
	t.pending = t.pending[:0]
	t.mu.Unlock()
	return o
}

// end closes the op span and then, outside every span, prices the codec
// on the messages the op moved and lets them go.
func (o openOp) end(s sample) {
	if o.t == nil {
		return
	}
	t := o.t
	t.mu.Lock()
	t.finish(o.s)
	t.curOp = nil
	after := counters(o.e)
	o.tr.wall = o.s.dur()
	o.tr.user, o.tr.agency, o.tr.server = after[0].Sub(o.before[0]), after[1].Sub(o.before[1]), after[2].Sub(o.before[2])
	o.tr.fs = o.e.fs.counts().sub(o.fs)
	o.tr.sampled, o.tr.verified, o.tr.lostRounds = s.sampled, s.verified, s.lostRounds
	client := addSnapshots(o.tr.user, o.tr.agency)
	t.spans[len(t.spans)-1].Crypto = &client
	pending := append([]exchange(nil), t.pending...)
	t.pending = t.pending[:0]
	t.ops = append(t.ops, o.tr)
	t.mu.Unlock()
	o.tr.wire = priceWire(t.now, pending)
}

func addSnapshots(a, b ops.Snapshot) ops.Snapshot {
	return ops.Snapshot{
		PointMuls: a.PointMuls + b.PointMuls, MillerLoops: a.MillerLoops + b.MillerLoops,
		FinalExps: a.FinalExps + b.FinalExps, HashToPoints: a.HashToPoints + b.HashToPoints,
		PrecompHits: a.PrecompHits + b.PrecompHits, PrecompMisses: a.PrecompMisses + b.PrecompMisses,
	}
}

// tracedClient decorates the netsim.Client a transport dialed.
type tracedClient struct {
	netsim.Client
	t *tracer
}

func (t *tracer) client(c netsim.Client) netsim.Client { return &tracedClient{Client: c, t: t} }

func (c *tracedClient) RoundTrip(m wire.Message) (wire.Message, error) {
	return c.RoundTripContext(context.Background(), m)
}

func (c *tracedClient) RoundTripContext(ctx context.Context, m wire.Message) (wire.Message, error) {
	t := c.t
	if !t.enabled.Load() {
		return c.Client.RoundTripContext(ctx, m)
	}
	t.mu.Lock()
	s := t.open(spanRoundTrip, m.Kind(), t.curOp)
	t.curRT = s
	t.mu.Unlock()
	resp, err := c.Client.RoundTripContext(ctx, m)
	t.mu.Lock()
	t.finish(s)
	t.curRT = nil
	if err == nil {
		t.pending = append(t.pending, exchange{m, resp})
	}
	t.mu.Unlock()
	return resp, err
}

// tracedHandler decorates the netsim.Handler behind the listener.
type tracedHandler struct {
	inner netsim.Handler
	pp    *pairing.Params
	t     *tracer
}

func (t *tracer) handler(h netsim.Handler, serverPP *pairing.Params) netsim.Handler {
	return &tracedHandler{inner: h, pp: serverPP, t: t}
}

func (h *tracedHandler) Handle(m wire.Message) wire.Message {
	t := h.t
	if !t.enabled.Load() {
		return h.inner.Handle(m)
	}
	before := h.pp.G1().Counters().Snapshot()
	t.mu.Lock()
	s := t.open(spanHandle, m.Kind(), t.curRT)
	t.mu.Unlock()
	resp := h.inner.Handle(m)
	t.mu.Lock()
	t.finish(s)
	d := h.pp.G1().Counters().Snapshot().Sub(before)
	t.spans[len(t.spans)-1].Crypto = &d
	t.mu.Unlock()
	return resp
}

// selfTime is one op's wall time split over the three layers.
type selfTime struct {
	client, daemon, server time.Duration
	// roundTrips are the durations of the op's client.roundtrip spans.
	roundTrips []time.Duration
}

// selfTimes splits every op's wall time by the rule "a span's self time is
// its duration minus what its children cover", keyed by op id. It refuses
// spans that do not nest: a child outside its parent, or siblings that
// overlap, would make the split meaningless.
func selfTimes(spans []span) (map[int]*selfTime, error) {
	byID := make(map[int]span, len(spans))
	children := make(map[int][]span)
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			return nil, fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]*selfTime)
	for _, s := range spans {
		var covered time.Duration
		var lastEnd int64
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		for i, c := range kids {
			if c.StartNS < s.StartNS || c.EndNS > s.EndNS {
				return nil, fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", c.ID, c.Name, s.ID, s.Name)
			}
			if i > 0 && c.StartNS < lastEnd {
				return nil, fmt.Errorf("span %d (%s) overlaps its sibling under %d", c.ID, c.Name, s.ID)
			}
			lastEnd = c.EndNS
			covered += c.dur()
		}
		if s.Parent != 0 {
			if _, ok := byID[s.Parent]; !ok {
				return nil, fmt.Errorf("span %d (%s) names a missing parent %d", s.ID, s.Name, s.Parent)
			}
		}
		st := out[s.Op]
		if st == nil {
			st = &selfTime{}
			out[s.Op] = st
		}
		self := s.dur() - covered
		switch s.Name {
		case spanOp:
			st.client += self
		case spanRoundTrip:
			st.daemon += self
			st.roundTrips = append(st.roundTrips, s.dur())
		case spanHandle:
			st.server += self
		default:
			return nil, fmt.Errorf("span %d has unknown name %q", s.ID, s.Name)
		}
	}
	return out, nil
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Env      string `json:"env"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64, envLine string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	t.mu.Lock()
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Env: envLine, Spans: t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
