// Network-failure adversary. CheatPolicy (internal/core) models Byzantine
// *computation* faults; FaultConfig is its transport-layer twin: a
// deterministic, seeded injector that drops, delays, duplicates, corrupts
// and disconnects individual messages. The two together let experiments
// separate "the server is cheating" from "the network is lossy" — the
// distinction the DA's evidence trail must preserve.
package netsim

import (
	"math/rand"
	"sync"
	"time"
)

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

// legPlan is one leg's drawn fault decision, in injector order: a
// disconnect or drop preempts everything else; corrupt, duplicate and
// delay can stack.
type legPlan struct {
	Drop       bool
	Delay      time.Duration
	Duplicate  bool
	Corrupt    bool
	Disconnect bool
}

// injector applies a FaultConfig with a private, mutex-guarded PRNG so
// concurrent round trips on one Loopback stay deterministic in aggregate.
// A nil *injector is valid and injects nothing.
type injector struct {
	cfg FaultConfig

	mu     sync.Mutex
	rng    *rand.Rand
	counts FaultCounts
}

// newInjector builds a seeded injector from cfg; nil when the config is
// inert, so the fault-free fast path stays allocation- and lock-free.
func newInjector(cfg FaultConfig) *injector {
	if !cfg.enabled() {
		return nil
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &injector{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// plan draws the fault decisions for one message leg. allowDuplicate
// limits duplication to request legs (a duplicated response has no
// observer).
func (f *injector) plan(allowDuplicate bool) legPlan {
	if f == nil {
		return legPlan{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var p legPlan
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

// corrupt flips one byte of data in place at a PRNG-chosen offset.
func (f *injector) corrupt(data []byte) {
	if f == nil || len(data) == 0 {
		return
	}
	f.mu.Lock()
	off := f.rng.Intn(len(data))
	f.mu.Unlock()
	data[off] ^= 0xff
}

// snapshot copies the fault counters.
func (f *injector) snapshot() FaultCounts {
	if f == nil {
		return FaultCounts{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts
}
