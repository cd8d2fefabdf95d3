package experiments

import (
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"time"

	"seccloud/internal/core"
	"seccloud/internal/ibc"
	"seccloud/internal/netsim"
	"seccloud/internal/obs"
	"seccloud/internal/pairing"
	"seccloud/internal/workload"
)

// FleetFailoverConfig shapes the fleet-robustness experiment: audit
// availability as servers are taken down, and the latency of audit-driven
// repair as the amount of localized corruption grows.
type FleetFailoverConfig struct {
	// Servers is the replica count n.
	Servers int
	// Blocks is the replicated dataset size.
	Blocks int
	// SampleSize is the per-audit sampling budget t.
	SampleSize int
	// KilledCounts are the outage sizes swept in the availability half.
	KilledCounts []int
	// CorruptCounts are the rotten-block counts swept in the repair half.
	CorruptCounts []int
	// Seed drives workloads and challenge sampling.
	Seed int64
	// Hub, when non-nil, receives audit, failover, quorum, repair, and
	// transport instrumentation plus per-replica breaker gauges.
	Hub *obs.Hub
}

// FleetAvailabilityRow is one outage size: every server takes a turn as
// audit primary while `Killed` replicas are unreachable.
type FleetAvailabilityRow struct {
	// Killed is how many replicas were down.
	Killed int
	// Audits is the number of fleet audits run (one per primary).
	Audits int
	// FullSample counts audits that completed their whole planned sample.
	FullSample int
	// Availability is FullSample/Audits with failover enabled.
	Availability float64
	// NoFailoverBaseline is the analytic availability without failover:
	// only audits whose primary was alive would have completed, (n-k)/n.
	NoFailoverBaseline float64
	// Failovers counts re-issued challenge rounds across the sweep.
	Failovers int
	// Accusations counts BadProof verdicts — outages must never produce
	// one, so this must stay 0.
	Accusations int
}

// FleetRepairRow is one corruption size: rot injected on a single
// replica, detected by a fleet audit, cross-examined, and repaired.
type FleetRepairRow struct {
	// CorruptBlocks is how many blocks rotted on the bad replica.
	CorruptBlocks int
	// Localized reports the quorum classified the rot as single-replica.
	Localized bool
	// Confirmed reports the repair's targeted re-audit passed.
	Confirmed bool
	// Repair is the plan-to-confirmation latency of the repair itself.
	Repair time.Duration
	// Pipeline is the whole audit→quorum→repair pipeline latency.
	Pipeline time.Duration
	// ReauditValid reports a follow-up full storage audit of the repaired
	// replica found nothing wrong.
	ReauditValid bool
}

// fleetFailoverSystem is one n-replica deployment with per-server kill
// switches.
type fleetFailoverSystem struct {
	user    *core.User
	agency  *core.Agency
	servers []*core.Server
	downs   []*netsim.DownableHandler
	fleet   *core.Fleet
}

func newFleetFailoverSystem(pp *pairing.Params, cfg FleetFailoverConfig) (*fleetFailoverSystem, *core.Fleet, error) {
	sio, err := ibc.Setup(pp, rand.Reader)
	if err != nil {
		return nil, nil, err
	}
	sp := sio.Params()
	userKey, err := sio.Extract("user:ff")
	if err != nil {
		return nil, nil, err
	}
	daKey, err := sio.Extract("da:ff")
	if err != nil {
		return nil, nil, err
	}
	sys := &fleetFailoverSystem{
		user:   core.NewUser(sp, userKey, rand.Reader),
		agency: core.NewAgency(sp, daKey, rand.Reader).WithObs(cfg.Hub),
	}
	clients := make([]netsim.Client, cfg.Servers)
	ids := make([]string, cfg.Servers)
	for i := 0; i < cfg.Servers; i++ {
		key, err := sio.Extract(fmt.Sprintf("cs:ff-%d", i))
		if err != nil {
			return nil, nil, err
		}
		srv, err := core.NewServer(sp, key, core.ServerConfig{Random: rand.Reader})
		if err != nil {
			return nil, nil, err
		}
		sys.servers = append(sys.servers, srv)
		dh := netsim.NewDownableHandler(srv)
		sys.downs = append(sys.downs, dh)
		clients[i] = netsim.NewLoopback(dh, netsim.LinkConfig{}).WithObs(cfg.Hub)
		ids[i] = srv.ID()
	}
	fleet, err := core.NewFleet(clients, ids, core.BreakerConfig{})
	if err != nil {
		return nil, nil, err
	}
	// Each sweep row builds a fresh fleet; the hub's breaker gauges track
	// the most recently observed one, i.e. the row currently running.
	core.ObserveFleet(cfg.Hub, fleet)
	sys.fleet = fleet
	return sys, fleet, nil
}

// outsource stores one replicated dataset on every server and returns the
// audit warrant.
func (s *fleetFailoverSystem) outsource(cfg FleetFailoverConfig) error {
	ds := workload.NewGenerator(cfg.Seed).GenDataset(s.user.ID(), cfg.Blocks, 8)
	verifiers := make([]string, 0, len(s.servers)+1)
	for _, srv := range s.servers {
		verifiers = append(verifiers, srv.ID())
	}
	verifiers = append(verifiers, s.agency.ID())
	req, err := s.user.PrepareStore(ds, verifiers...)
	if err != nil {
		return err
	}
	for i := range s.servers {
		if err := s.user.Store(s.fleet.Client(i), req); err != nil {
			return fmt.Errorf("storing to replica %d: %w", i, err)
		}
	}
	return nil
}

// FleetFailover runs both halves of the fleet-robustness experiment.
func FleetFailover(pp *pairing.Params, cfg FleetFailoverConfig) ([]FleetAvailabilityRow, []FleetRepairRow, error) {
	if cfg.Servers <= 1 || cfg.Blocks <= 0 || cfg.SampleSize <= 0 {
		return nil, nil, fmt.Errorf("experiments: bad fleet-failover config %+v", cfg)
	}
	for _, k := range cfg.KilledCounts {
		if k < 0 || k >= cfg.Servers {
			return nil, nil, fmt.Errorf("experiments: killed count %d outside 0..%d", k, cfg.Servers-1)
		}
	}
	rng := mrand.New(mrand.NewSource(cfg.Seed))

	avail := make([]FleetAvailabilityRow, 0, len(cfg.KilledCounts))
	for _, killed := range cfg.KilledCounts {
		row, err := availabilityRow(pp, cfg, killed, rng.Int63())
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: availability killed=%d: %w", killed, err)
		}
		avail = append(avail, row)
	}

	repairs := make([]FleetRepairRow, 0, len(cfg.CorruptCounts))
	for _, c := range cfg.CorruptCounts {
		if c <= 0 || c > cfg.Blocks {
			return nil, nil, fmt.Errorf("experiments: corrupt count %d outside 1..%d", c, cfg.Blocks)
		}
		row, err := repairRow(pp, cfg, c, rng.Int63())
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: repair corrupt=%d: %w", c, err)
		}
		repairs = append(repairs, row)
	}
	return avail, repairs, nil
}

// availabilityRow kills `killed` replicas, then audits with every server
// as primary: failover must keep every audit at its full planned sample.
func availabilityRow(pp *pairing.Params, cfg FleetFailoverConfig, killed int, seed int64) (FleetAvailabilityRow, error) {
	sys, fleet, err := newFleetFailoverSystem(pp, cfg)
	if err != nil {
		return FleetAvailabilityRow{}, err
	}
	if err := sys.outsource(cfg); err != nil {
		return FleetAvailabilityRow{}, err
	}
	warrant, err := core.WildcardWarrant(sys.user, sys.agency.ID(), time.Now().Add(time.Hour))
	if err != nil {
		return FleetAvailabilityRow{}, err
	}
	for i := 0; i < killed; i++ {
		sys.downs[i].SetDown(true)
	}

	row := FleetAvailabilityRow{
		Killed:             killed,
		NoFailoverBaseline: float64(cfg.Servers-killed) / float64(cfg.Servers),
	}
	rng := mrand.New(mrand.NewSource(seed))
	for pi := 0; pi < cfg.Servers; pi++ {
		fr, err := sys.agency.AuditStorageFleet(fleet, sys.user.ID(), warrant, core.FleetAuditConfig{
			Storage: core.AuditConfig{
				DatasetSize:     cfg.Blocks,
				SampleSize:      cfg.SampleSize,
				Rounds:          2,
				BatchSignatures: true,
				Rng:             mrand.New(mrand.NewSource(rng.Int63())),
			},
			Primary: pi,
		})
		if err != nil {
			return FleetAvailabilityRow{}, err
		}
		row.Audits++
		if !fr.Report.Degraded() {
			row.FullSample++
		}
		row.Failovers += len(fr.Failovers)
		row.Accusations += len(fr.Quorums)
		if !fr.Report.Valid() {
			return FleetAvailabilityRow{}, fmt.Errorf("outage produced a failed audit (primary %d)", pi)
		}
	}
	row.Availability = float64(row.FullSample) / float64(row.Audits)
	return row, nil
}

// repairRow rots `corrupt` blocks on replica 1, audits it as primary with
// repair enabled, and times the heal.
func repairRow(pp *pairing.Params, cfg FleetFailoverConfig, corrupt int, seed int64) (FleetRepairRow, error) {
	sys, fleet, err := newFleetFailoverSystem(pp, cfg)
	if err != nil {
		return FleetRepairRow{}, err
	}
	if err := sys.outsource(cfg); err != nil {
		return FleetRepairRow{}, err
	}
	warrant, err := core.WildcardWarrant(sys.user, sys.agency.ID(), time.Now().Add(time.Hour))
	if err != nil {
		return FleetRepairRow{}, err
	}
	const bad = 1
	for b := 0; b < corrupt; b++ {
		if _, ok := sys.servers[bad].TamperBlock(sys.user.ID(), uint64(b), []byte{0xde, 0xad}); !ok {
			return FleetRepairRow{}, fmt.Errorf("tampering block %d found nothing", b)
		}
	}

	start := time.Now()
	fr, err := sys.agency.AuditStorageFleet(fleet, sys.user.ID(), warrant, core.FleetAuditConfig{
		Storage: core.AuditConfig{
			DatasetSize:     cfg.Blocks,
			SampleSize:      cfg.Blocks, // full sample: every rotten block is found
			Rounds:          2,
			BatchSignatures: true,
			Rng:             mrand.New(mrand.NewSource(seed)),
		},
		Primary: bad,
		Repair:  true,
	})
	if err != nil {
		return FleetRepairRow{}, err
	}
	row := FleetRepairRow{CorruptBlocks: corrupt, Pipeline: time.Since(start)}
	for _, q := range fr.Quorums {
		if q.Accused == bad && q.Class == core.QuorumLocalized {
			row.Localized = true
		}
	}
	for _, rp := range fr.Repairs {
		if rp.Plan.Target != bad {
			continue
		}
		row.Repair += rp.Elapsed
		row.Confirmed = rp.Confirmed
	}

	// The proof of the heal: a fresh full audit of the repaired replica.
	report, err := sys.agency.AuditStorage(fleet.Client(bad), sys.user.ID(), warrant, core.AuditConfig{
		DatasetSize:     cfg.Blocks,
		SampleSize:      cfg.Blocks,
		BatchSignatures: true,
		Rng:             mrand.New(mrand.NewSource(seed + 1)),
	})
	if err != nil {
		return FleetRepairRow{}, err
	}
	row.ReauditValid = report.Valid()
	return row, nil
}
