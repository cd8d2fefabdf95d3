package netsim

import (
	"context"
	"sync"

	"seccloud/internal/transport"
	"seccloud/internal/wire"
)

// Partition is a shared, mutable map of which directed node pairs cannot
// currently exchange messages. Unlike FaultConfig's per-link symmetric
// rates, a partition is directional and group-wise: Cut({"da"}, {"s1"})
// blocks auditor→server traffic while the reverse direction still works,
// which is how asymmetric real-world partitions (one-way firewall rules,
// broken return routes) behave. Every PartitionedClient consults the same
// Partition, so one Cut call re-shapes the whole topology atomically.
//
// The asymmetry matters for invariants: when only the *response* leg is
// blocked, the server still executes the request — a write can be applied
// without its ack ever arriving. Schedules exercising that path are what
// separate "acked writes survive" from the weaker "observed writes
// survive".
type Partition struct {
	mu      sync.Mutex
	blocked map[string]map[string]bool // from → to → blocked
	drops   int64
}

// NewPartition returns a fully-healed partition map.
func NewPartition() *Partition {
	return &Partition{blocked: make(map[string]map[string]bool)}
}

// Block severs the single directed edge from → to.
func (p *Partition) Block(from, to string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.blocked[from]
	if m == nil {
		m = make(map[string]bool)
		p.blocked[from] = m
	}
	m[to] = true
}

// CutOneWay blocks every edge from a node in `from` to a node in `to`
// (traffic the other way still flows).
func (p *Partition) CutOneWay(from, to []string) {
	for _, f := range from {
		for _, t := range to {
			p.Block(f, t)
		}
	}
}

// Cut blocks both directions between the two groups — the classic
// symmetric group partition, built from two directional cuts.
func (p *Partition) Cut(a, b []string) {
	p.CutOneWay(a, b)
	p.CutOneWay(b, a)
}

// Heal clears every blocked edge.
func (p *Partition) Heal() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.blocked = make(map[string]map[string]bool)
}

// Blocked reports whether from → to traffic is currently severed.
func (p *Partition) Blocked(from, to string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.blocked[from][to]
}

// Drops returns how many message legs the partition has eaten.
func (p *Partition) Drops() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.drops
}

func (p *Partition) dropped() {
	p.mu.Lock()
	p.drops++
	p.mu.Unlock()
}

// PartitionedClient wraps a Client with partition checks on both legs.
// A blocked request leg means the server never sees the call; a blocked
// response leg means the server executed it but the reply is lost — the
// caller cannot tell the two apart, exactly like a real partition. Either
// way the error is a retryable *FaultError (FaultPartition): a partition
// says nothing about the peer's honesty.
type PartitionedClient struct {
	inner    transport.Client
	part     *Partition
	from, to string
}

var _ transport.Client = (*PartitionedClient)(nil)

// PartitionClient wraps inner so its traffic is subject to part's cuts,
// with the endpoints named from (caller side) and to (callee side).
func PartitionClient(inner transport.Client, part *Partition, from, to string) *PartitionedClient {
	return &PartitionedClient{inner: inner, part: part, from: from, to: to}
}

// RoundTripContext applies the partition to both message legs.
func (c *PartitionedClient) RoundTripContext(ctx context.Context, m wire.Message) (wire.Message, error) {
	if c.part.Blocked(c.from, c.to) {
		c.part.dropped()
		return nil, &transport.FaultError{Kind: transport.FaultPartition, Op: "request"}
	}
	resp, err := c.inner.RoundTripContext(ctx, m)
	if err != nil {
		return nil, err
	}
	if c.part.Blocked(c.to, c.from) {
		// The handler already ran: the request took effect server-side,
		// only the acknowledgement is lost.
		c.part.dropped()
		return nil, &transport.FaultError{Kind: transport.FaultPartition, Op: "response"}
	}
	return resp, nil
}

// Stats passes through to the wrapped link.
func (c *PartitionedClient) Stats() transport.StatsSnapshot { return c.inner.Stats() }

// Close passes through to the wrapped link.
func (c *PartitionedClient) Close() error { return c.inner.Close() }
