package core

import (
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"seccloud/internal/obs"
	"seccloud/internal/transport"
)

// Tenant is one registered identity in a multi-tenant agency: the user ID
// (whose Q_ID = H1(ID) is the verification key side of every eq. 5/7
// check), the declared dataset size, and the per-tenant sampling budget
// (0 leaves it to the scheduler's SampleSize). Registration is
// cheap — no pairing work, no key extraction — so a registry can hold
// 10⁵–10⁶ identities; the expensive parts (delegation validation, Q_ID
// hash-to-point, stored data) attach lazily when the tenant is first
// onboarded for auditing.
//
// The handle fields (client, delegation) are owned by the registry: they
// are written only under the owning shard's lock and are immutable once
// attached, so audit sessions read them lock-free after Session returns.
type Tenant struct {
	UserID string
	// DatasetSize is the number of committed blocks/sub-tasks declared at
	// registration (used for budget derivation before a job is attached).
	DatasetSize int
	// SampleBudget is the tenant's per-audit challenge budget (0: the
	// scheduler's SampleSize); audits clamp it to the attached job's size.
	SampleBudget int

	client     transport.Client
	delegation *JobDelegation
}

// Materialized reports whether the tenant has an attached delegation and
// client, i.e. it can be audited.
func (t *Tenant) Materialized() bool { return t != nil && t.delegation != nil }

// coldTenant is a registration-only record. The struct is pointer-free on
// purpose: at 10⁶ registered identities the registry dominates the live
// heap, and every pointer field would be traced by each GC cycle while
// audit crypto churns allocations. IDs live concatenated in the shard's
// byte arena instead of as one heap string per tenant.
type coldTenant struct {
	off, idLen   uint32
	size, budget int32
}

// tenantShard is one lock domain of the registry. Registered-but-cold
// tenants sit in three GC-transparent structures (an integer-keyed index
// map, a metadata slice and an ID arena — none of which contain pointers
// for the collector to follow); only the materialized working set, which
// is bounded by live audit traffic rather than by the registered
// population, uses an ordinary pointer map.
type tenantShard struct {
	mu    sync.RWMutex
	index map[uint64]int32 // maphash(ID) → slot in meta
	meta  []coldTenant
	arena []byte // concatenated tenant IDs

	// overflow backstops 64-bit hash collisions between distinct IDs
	// (probability ~n²/2⁶⁴; essentially always empty).
	overflow map[string]coldTenant

	hot map[string]*Tenant // materialized tenants
}

func (s *tenantShard) coldID(c coldTenant) string {
	return string(s.arena[c.off : c.off+c.idLen])
}

// coldLookup finds a registration record under the shard lock (any mode).
func (s *tenantShard) coldLookup(h uint64, userID string) (coldTenant, bool) {
	if slot, ok := s.index[h]; ok {
		c := s.meta[slot]
		if s.coldID(c) == userID {
			return c, true
		}
	}
	c, ok := s.overflow[userID]
	return c, ok
}

// TenantRegistry maps user IDs to tenants across power-of-two lock shards,
// so a million registered identities don't serialize on one mutex while
// concurrent audit sessions resolve their tenants. It replaces the
// per-call key/delegation plumbing of the single-tenant entry points: a
// delegation is validated once at onboarding and every subsequent session
// reads the cached handle.
type TenantRegistry struct {
	shards []tenantShard
	seed   maphash.Seed
	count  atomic.Int64

	obsRegistered *obs.Gauge
}

// NewTenantRegistry builds a registry with the given shard count, rounded
// up to a power of two; values < 1 mean 64.
func NewTenantRegistry(shards int) *TenantRegistry {
	if shards < 1 {
		shards = 64
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	r := &TenantRegistry{shards: make([]tenantShard, n), seed: maphash.MakeSeed()}
	for i := range r.shards {
		r.shards[i].index = make(map[uint64]int32)
		r.shards[i].hot = make(map[string]*Tenant)
	}
	return r
}

// WithObs publishes tenants_registered as a pull-based gauge refreshed on
// each scrape. Nil hub no-ops.
func (r *TenantRegistry) WithObs(h *obs.Hub) *TenantRegistry {
	if h == nil {
		return r
	}
	reg := h.Registry()
	r.obsRegistered = reg.Gauge("tenants_registered").With()
	reg.OnScrape(func() { r.obsRegistered.Set(float64(r.Len())) })
	return r
}

func (r *TenantRegistry) shard(userID string) (*tenantShard, uint64) {
	h := maphash.String(r.seed, userID)
	return &r.shards[h&uint64(len(r.shards)-1)], h
}

// tenantFromCold synthesizes the caller-facing view of a cold record.
func tenantFromCold(userID string, c coldTenant) *Tenant {
	return &Tenant{UserID: userID, DatasetSize: int(c.size), SampleBudget: int(c.budget)}
}

// Register adds an identity (idempotently) and returns its tenant view.
// The second return is false when the ID was already registered; the
// existing tenant's budget and size are left untouched in that case. The
// returned Tenant is a snapshot — audit handles attach through the
// scheduler, not through this pointer.
func (r *TenantRegistry) Register(userID string, datasetSize, sampleBudget int) (*Tenant, bool) {
	s, h := r.shard(userID)
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.hot[userID]; ok {
		return t, false
	}
	if c, ok := s.coldLookup(h, userID); ok {
		return tenantFromCold(userID, c), false
	}
	c := coldTenant{
		off:    uint32(len(s.arena)),
		idLen:  uint32(len(userID)),
		size:   int32(datasetSize),
		budget: int32(sampleBudget),
	}
	s.arena = append(s.arena, userID...)
	if _, taken := s.index[h]; taken {
		// A different ID owns this 64-bit hash: keep the newcomer in the
		// (string-keyed, practically empty) overflow map.
		if s.overflow == nil {
			s.overflow = make(map[string]coldTenant)
		}
		s.overflow[userID] = c
	} else {
		s.meta = append(s.meta, c)
		s.index[h] = int32(len(s.meta) - 1)
	}
	r.count.Add(1)
	return tenantFromCold(userID, c), true
}

// attach materializes a registered tenant with its audit handles. Called
// by the scheduler after delegation validation. The tenant moves into the
// shard's hot map; its cold record stays behind, unused.
func (r *TenantRegistry) attach(userID string, client transport.Client, d *JobDelegation, budget int) error {
	s, h := r.shard(userID)
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.hot[userID]
	if !ok {
		c, registered := s.coldLookup(h, userID)
		if !registered {
			return fmt.Errorf("core: tenant %q not registered", userID)
		}
		t = tenantFromCold(userID, c)
		s.hot[userID] = t
	}
	t.client = client
	t.delegation = d
	t.DatasetSize = len(d.Tasks)
	if budget > 0 {
		t.SampleBudget = budget
	}
	return nil
}

// Lookup returns the tenant for an ID: the live handle for materialized
// tenants, a registration snapshot for cold ones.
func (r *TenantRegistry) Lookup(userID string) (*Tenant, bool) {
	s, h := r.shard(userID)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t, ok := s.hot[userID]; ok {
		return t, true
	}
	if c, ok := s.coldLookup(h, userID); ok {
		return tenantFromCold(userID, c), true
	}
	return nil, false
}

// Session resolves one audit session's handles: the client link, the
// validated delegation, and the effective sample budget. It fails for
// unregistered or never-onboarded tenants — the scheduler treats that as a
// caller error, not as audit evidence.
func (r *TenantRegistry) Session(userID string) (transport.Client, *JobDelegation, int, error) {
	s, h := r.shard(userID)
	s.mu.RLock()
	t, hot := s.hot[userID]
	var (
		client transport.Client
		d      *JobDelegation
		budget int
	)
	if hot {
		client, d, budget = t.client, t.delegation, t.SampleBudget
	}
	var registered bool
	if !hot {
		_, registered = s.coldLookup(h, userID)
	}
	s.mu.RUnlock()
	if hot {
		return client, d, budget, nil
	}
	if !registered {
		return nil, nil, 0, fmt.Errorf("core: tenant %q not registered", userID)
	}
	return nil, nil, 0, fmt.Errorf("core: tenant %q not materialized (no delegation attached)", userID)
}

// Len counts registered tenants.
func (r *TenantRegistry) Len() int { return int(r.count.Load()) }

// Shards reports the shard count (tests, capacity planning).
func (r *TenantRegistry) Shards() int { return len(r.shards) }
