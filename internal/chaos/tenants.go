package chaos

import (
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"slices"
	"time"

	"seccloud/internal/core"
	"seccloud/internal/funcs"
	"seccloud/internal/workload"
)

const (
	// tenantZipf is the skew of the tenants' session traffic.
	tenantZipf = 1.3
	// tenantFlushLimit caps the signature checks one cross-tenant
	// aggregate folds.
	tenantFlushLimit = 16
)

// tenantFleet is the tenants(k,s) shape: k registered tenants, of whom the
// traffic materializes only those its Zipf draws touch. Tenant rank r
// lives on server r % Servers; every epoch the agency's scheduler drains s
// of their sessions through the fleet, under whatever weather the epoch
// carries.
type tenantFleet struct {
	reg *core.TenantRegistry
	src *workload.MultiTenant
	// sched is this epoch's scheduler: its challenges come from a stream
	// keyed by (seed, epoch), so an epoch that drained other sessions than
	// the reference cannot shift a later epoch's draws.
	sched *core.AuditScheduler
	warm  map[int]bool // materialized ranks

	outcomes                                 map[int][]tenantOutcome // epoch → sessions, in drain order
	sessions, detections, flushes, fallbacks int
}

// tenantOutcome is one drained session as the agreement invariant
// compares it with the reference replay's session of the same epoch.
type tenantOutcome struct {
	Rank            int
	Valid           bool
	Sampled, Failed []uint64
	// Clean: the fleet was clean when the drain started and the session
	// lost no round, so the reference saw the same thing.
	Clean bool
}

// newTenantFleet registers the step's whole population: a registry entry
// each, no keys, no data.
func newTenantFleet(c *cluster, s *Step) (*tenantFleet, error) {
	src, err := workload.NewMultiTenant(subSeed(c.cfg.Seed, "tenants", 0, 0), workload.MultiTenantConfig{
		Tenants:         s.Tenants,
		Sessions:        s.Sessions,
		ZipfS:           tenantZipf,
		BlocksPerTenant: c.cfg.Blocks,
	})
	if err != nil {
		return nil, err
	}
	t := &tenantFleet{reg: core.NewTenantRegistry(0).WithObs(c.hub), src: src,
		warm: map[int]bool{}, outcomes: map[int][]tenantOutcome{}}
	for r := 0; r < s.Tenants; r++ {
		t.reg.Register(src.TenantID(r), c.cfg.Blocks, 0)
	}
	return t, nil
}

// beginTenantEpoch builds the epoch's scheduler on the cluster's agency:
// with a quorum step, its combiner.
func (c *cluster) beginTenantEpoch(ep int) {
	c.tenants.sched = core.NewAuditScheduler(c.agency, c.tenants.reg, core.SchedulerConfig{
		Workers:    c.cfg.Workers,
		FlushLimit: tenantFlushLimit,
		SampleSize: c.cfg.SampleSize,
		Rng:        mrand.New(mrand.NewSource(subSeed(c.cfg.Seed, "tenant-drain", ep, 0))),
	}).WithObs(c.hub)
}

// onboardTenant materializes tenant rank r: it stores its dataset and
// runs one sum job through the CSP's path to server r % Servers,
// delegates the job's audit to the DA, and onboards the delegation with
// the scheduler. It is one client op, so under weather a failure leaves
// the tenant cold; a tenant whose rot is ledgered rots as it lands.
func (c *cluster) onboardTenant(ep, r int) error {
	err := c.materializeTenant(r)
	if serr := c.settleOp(ep, err, fmt.Sprintf("onboarding of tenant %d", r)); serr != nil || err != nil {
		return serr
	}
	c.tenants.warm[r] = true
	if c.led.tenantRot[r] {
		return c.rotTenant(c.server(r%c.cfg.Servers), r)
	}
	return nil
}

func (c *cluster) materializeTenant(r int) error {
	t, i := c.tenants, r%c.cfg.Servers
	id := t.src.TenantID(r)
	key, err := c.sio.Extract(id)
	if err != nil {
		return err
	}
	usr := core.NewUser(c.sio.Params(), key, rand.Reader)
	req, err := usr.PrepareStore(t.src.TenantDataset(r), fmt.Sprintf(serverIDFmt, i), daID)
	if err != nil {
		return err
	}
	if err := usr.Store(c.cspClients[i], req); err != nil {
		return err
	}
	// A cheat step forges the chaos user's job; tenant jobs are computed
	// honestly, so the tenant invariants police storage rot alone.
	pol := c.policies[i]
	on := pol.on
	pol.on = false
	jobID := fmt.Sprintf("tenant-%d", r)
	job := workload.UniformJob(id, funcs.Spec{Name: "sum"}, c.cfg.Blocks)
	resp, err := usr.SubmitJob(c.cspClients[i], jobID, job)
	pol.on = on
	if err != nil {
		return err
	}
	warrant, err := usr.Delegate(daID, jobID, time.Now().Add(24*time.Hour))
	if err != nil {
		return err
	}
	return t.sched.Onboard(c.fleet.Client(i), &core.JobDelegation{
		UserID:   id,
		ServerID: resp.ServerID,
		JobID:    jobID,
		Tasks:    core.TasksToWire(job),
		Results:  resp.Results,
		Root:     resp.Root,
		RootSig:  resp.RootSig,
		Warrant:  warrant,
	}, 0)
}

// rotTenant rots every block tenant rank r stores on srv: its server's
// live incarnation, or one being recovered.
func (c *cluster) rotTenant(srv *core.Server, r int) error {
	ds := c.tenants.src.TenantDataset(r)
	for pos, b := range ds.Blocks {
		if _, ok := srv.TamperBlock(ds.Owner, uint64(pos), xorA5(b)); !ok {
			return fmt.Errorf("chaos: tenant %d rot at pos %d on server %d found no block", r, pos, r%c.cfg.Servers)
		}
	}
	return nil
}

// rottenTenants lists, by rank, the materialized tenants on server i
// whose rot is ledgered.
func (c *cluster) rottenTenants(i int) []int {
	var out []int
	for r := range c.led.tenantRot {
		if c.tenants.warm[r] && r%c.cfg.Servers == i {
			out = append(out, r)
		}
	}
	slices.Sort(out)
	return out
}

// drainTenants is the tenants' half of an epoch: draw the session trace,
// onboard each tenant it touches for the first time, and drain the
// sessions of every warm one. A session that accuses a tenant with no
// ledgered rot is a false flag; a rotted tenant's blocks are all rotten,
// so a session of one that completed its round and accused nobody missed
// it.
func (c *cluster) drainTenants(ep int) error {
	t := c.tenants
	var ranks []int
	for _, r := range t.src.SessionTrace() {
		if !t.warm[r] {
			if err := c.onboardTenant(ep, r); err != nil {
				return err
			}
			if !t.warm[r] {
				continue // cold under weather: no session this epoch
			}
		}
		t.sched.Enqueue(t.src.TenantID(r))
		ranks = append(ranks, r)
	}
	clean := c.fleetClean()
	rep, err := t.sched.Drain()
	if errors.Is(err, core.ErrQuorumUnavailable) {
		c.violations.addf("quorum", "epoch %d tenant drain: %v", ep, err)
		return nil
	}
	if err != nil {
		return fmt.Errorf("chaos: epoch %d: tenant drain: %w", ep, err)
	}
	t.flushes += rep.Flushes
	t.fallbacks += rep.BlameFallbacks
	for k, v := range rep.Verdicts {
		r, ar := ranks[k], v.Report
		o := tenantOutcome{Rank: r, Valid: ar.Valid(), Sampled: ar.Sampled,
			Failed: failedPositions(ar.Failures), Clean: clean && !ar.Degraded()}
		t.outcomes[ep] = append(t.outcomes[ep], o)
		t.sessions++
		rotted := c.led.tenantRot[r]
		switch {
		case !o.Valid && rotted:
			t.detections++
		case !o.Valid:
			c.falseFlags++
			c.violations.addf("false-flag", "epoch %d: session of tenant %d accused it with no rot ledgered (server %d)",
				ep, r, r%c.cfg.Servers)
		case rotted && ar.EffectiveSampleSize > 0:
			c.violations.addf("tenant-missed", "epoch %d: session of rotted tenant %d completed its round and accused nobody",
				ep, r)
		}
	}
	return nil
}
