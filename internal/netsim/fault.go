// Network-failure adversary. CheatPolicy (internal/core) models Byzantine
// *computation* faults; FaultConfig is its transport-layer twin: a
// deterministic, seeded injector that drops, delays, duplicates, corrupts
// and disconnects individual messages. The two together let experiments
// separate "the server is cheating" from "the network is lossy" — the
// distinction the DA's evidence trail must preserve.
package netsim

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// FaultKind labels one injected fault.
type FaultKind int

// The injectable fault classes.
const (
	// FaultDrop loses the message entirely (the peer never sees it).
	FaultDrop FaultKind = iota + 1
	// FaultDelay adds extra latency to the message.
	FaultDelay
	// FaultDuplicate delivers the message twice (a retransmit the peer
	// cannot distinguish from a fresh request).
	FaultDuplicate
	// FaultCorrupt flips bytes in the encoded frame.
	FaultCorrupt
	// FaultDisconnect tears the connection down mid-exchange.
	FaultDisconnect
	// FaultPartition blocks the message at a network partition: the two
	// endpoints are in groups that currently cannot reach each other in
	// this direction (partitions are directional; see Partition).
	FaultPartition
)

// String renders the fault class.
func (k FaultKind) String() string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultDuplicate:
		return "duplicate"
	case FaultCorrupt:
		return "corrupt"
	case FaultDisconnect:
		return "disconnect"
	case FaultPartition:
		return "partition"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// FaultError reports a round trip lost to an injected (or real) network
// fault. It is retryable: the failure says nothing about the peer's
// honesty, only about the link.
type FaultError struct {
	// Kind is the fault class.
	Kind FaultKind
	// Op names the message leg ("request", "response", …).
	Op string
	// Err is the underlying error, if the fault surfaced through one.
	Err error
}

// Error implements error.
func (e *FaultError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("netsim: %s fault on %s: %v", e.Kind, e.Op, e.Err)
	}
	return fmt.Sprintf("netsim: %s fault on %s", e.Kind, e.Op)
}

// Unwrap exposes the underlying error.
func (e *FaultError) Unwrap() error { return e.Err }

// FaultConfig parameterizes the injector. All rates are probabilities in
// [0, 1] evaluated independently per message leg; the zero value injects
// nothing. Seed makes every decision deterministic, so a failing run
// replays exactly.
type FaultConfig struct {
	// Seed drives the injector's PRNG; 0 means seed 1 (still deterministic).
	Seed int64
	// DropRate loses a message leg entirely.
	DropRate float64
	// DelayRate adds Delay to a message leg's latency.
	DelayRate float64
	// Delay is the extra latency charged per delayed leg.
	Delay time.Duration
	// DuplicateRate delivers a request leg twice.
	DuplicateRate float64
	// CorruptRate flips a byte in the encoded frame.
	CorruptRate float64
	// DisconnectRate tears down the connection on a leg.
	DisconnectRate float64
}

// enabled reports whether any fault can fire.
func (fc FaultConfig) enabled() bool {
	return fc.DropRate > 0 || fc.DelayRate > 0 || fc.DuplicateRate > 0 ||
		fc.CorruptRate > 0 || fc.DisconnectRate > 0
}

// FaultCounts tallies injected faults by class.
type FaultCounts struct {
	Drops       int64
	Delays      int64
	Duplicates  int64
	Corruptions int64
	Disconnects int64
}

// Total sums all injected faults.
func (c FaultCounts) Total() int64 {
	return c.Drops + c.Delays + c.Duplicates + c.Corruptions + c.Disconnects
}

// LegPlan is one leg's drawn fault decision, in injector order: a
// disconnect or drop preempts everything else; corrupt, duplicate and
// delay can stack.
type LegPlan struct {
	Drop       bool
	Delay      time.Duration
	Duplicate  bool
	Corrupt    bool
	Disconnect bool
}

// Injector applies a FaultConfig with a private, mutex-guarded PRNG so
// concurrent round trips stay deterministic in aggregate. Every transport
// draws from it — the in-process Loopback and the daemon's pooled socket
// client alike — so one seed means one fault schedule on either. A nil
// *Injector is valid and injects nothing.
type Injector struct {
	cfg FaultConfig

	mu     sync.Mutex
	rng    *rand.Rand
	counts FaultCounts
}

// NewInjector builds a seeded injector from cfg; nil when the config is
// inert, so the fault-free fast path stays allocation- and lock-free.
func NewInjector(cfg FaultConfig) *Injector {
	if !cfg.enabled() {
		return nil
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Plan draws the fault decisions for one message leg. allowDuplicate
// limits duplication to request legs (a duplicated response has no
// observer).
func (f *Injector) Plan(allowDuplicate bool) LegPlan {
	if f == nil {
		return LegPlan{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var p LegPlan
	if f.cfg.DisconnectRate > 0 && f.rng.Float64() < f.cfg.DisconnectRate {
		p.Disconnect = true
		f.counts.Disconnects++
		return p
	}
	if f.cfg.DropRate > 0 && f.rng.Float64() < f.cfg.DropRate {
		p.Drop = true
		f.counts.Drops++
		return p
	}
	if f.cfg.CorruptRate > 0 && f.rng.Float64() < f.cfg.CorruptRate {
		p.Corrupt = true
		f.counts.Corruptions++
	}
	if allowDuplicate && f.cfg.DuplicateRate > 0 && f.rng.Float64() < f.cfg.DuplicateRate {
		p.Duplicate = true
		f.counts.Duplicates++
	}
	if f.cfg.DelayRate > 0 && f.rng.Float64() < f.cfg.DelayRate {
		p.Delay = f.cfg.Delay
		f.counts.Delays++
	}
	return p
}

// Corrupt flips one byte of data in place at a PRNG-chosen offset.
func (f *Injector) Corrupt(data []byte) {
	if f == nil || len(data) == 0 {
		return
	}
	f.mu.Lock()
	off := f.rng.Intn(len(data))
	f.mu.Unlock()
	data[off] ^= 0xff
}

// Snapshot copies the fault counters.
func (f *Injector) Snapshot() FaultCounts {
	if f == nil {
		return FaultCounts{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts
}
