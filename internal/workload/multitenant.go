package workload

import (
	"fmt"
	"math/rand"
)

// MultiTenantConfig shapes an open-loop multi-tenant audit workload: a
// large registered population (10⁵–10⁶ identities) of which a
// Zipf-skewed subset actually receives audit traffic — the realistic
// cloud shape where most registered users are cold and a heavy-tailed
// head generates nearly all sessions.
type MultiTenantConfig struct {
	// Tenants is the registered identity count; must be ≥ 2.
	Tenants int
	// Sessions is the number of audit sessions to draw per trace.
	Sessions int
	// ZipfS is the Zipf exponent over tenant ranks; must exceed 1
	// (math/rand's generator constraint). Values closer to 1 spread
	// traffic wider; larger values concentrate it on fewer tenants.
	ZipfS float64
	// BlocksPerTenant sizes each materialized tenant's dataset; ≤ 0
	// means 8.
	BlocksPerTenant int
	// ValuesPerBlock sizes each block; ≤ 0 means 4.
	ValuesPerBlock int
}

func (c *MultiTenantConfig) blocksPerTenant() int {
	if c.BlocksPerTenant <= 0 {
		return 8
	}
	return c.BlocksPerTenant
}

func (c *MultiTenantConfig) valuesPerBlock() int {
	if c.ValuesPerBlock <= 0 {
		return 4
	}
	return c.ValuesPerBlock
}

func (c *MultiTenantConfig) validate() error {
	if c.Tenants < 2 {
		return fmt.Errorf("workload: multi-tenant population must be ≥ 2, got %d", c.Tenants)
	}
	if c.Sessions < 0 {
		return fmt.Errorf("workload: negative session count %d", c.Sessions)
	}
	if c.ZipfS <= 1 {
		return fmt.Errorf("workload: zipf exponent must exceed 1, got %v", c.ZipfS)
	}
	return nil
}

// MultiTenant is a deterministic multi-tenant workload source. Identities
// are addressed by index and synthesized on demand — a million-tenant
// registry costs a million map entries, never a million datasets: only the
// tenants the Zipf trace actually hits are materialized (TenantDataset),
// which by construction is bounded by the session count, not by the
// population.
type MultiTenant struct {
	cfg  MultiTenantConfig
	seed int64
	rng  *rand.Rand
	zipf *rand.Zipf
}

// NewMultiTenant validates the config and builds the workload source.
func NewMultiTenant(seed int64, cfg MultiTenantConfig) (*MultiTenant, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Tenants-1))
	if z == nil {
		return nil, fmt.Errorf("workload: invalid zipf parameters (tenants=%d s=%v)", cfg.Tenants, cfg.ZipfS)
	}
	return &MultiTenant{cfg: cfg, seed: seed, rng: rng, zipf: z}, nil
}

// TenantID names tenant i; stable across runs and processes.
func (w *MultiTenant) TenantID(i int) string {
	return fmt.Sprintf("user:tenant-%08d", i)
}

// SessionTrace draws cfg.Sessions tenant indices from the Zipf
// distribution — the open-loop audit arrival order. Each call advances the
// workload's RNG, so consecutive traces differ (deterministically for a
// fixed seed).
func (w *MultiTenant) SessionTrace() []int {
	out := make([]int, w.cfg.Sessions)
	for i := range out {
		out[i] = int(w.zipf.Uint64())
	}
	return out
}

// TenantDataset materializes tenant i's dataset. Derivation is positional
// — seed ⊕ f(i) — so a tenant's data is identical no matter how many other
// tenants were materialized first or in what order.
func (w *MultiTenant) TenantDataset(i int) *Dataset {
	sub := NewGenerator(w.seed ^ int64(uint64(i+1)*0x9E3779B97F4A7C15))
	return sub.GenDataset(w.TenantID(i), w.cfg.blocksPerTenant(), w.cfg.valuesPerBlock())
}
