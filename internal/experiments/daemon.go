package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"seccloud/internal/core"
	"seccloud/internal/daemon"
	"seccloud/internal/netsim"
	"seccloud/internal/obs"
	"seccloud/internal/pairing"
)

// DaemonExpConfig shapes the daemon-mode experiment: real localhost
// TCP/TLS sockets, simulated WAN latency, streamed vs sequential
// challenge rounds, graceful drain, and cross-transport determinism.
type DaemonExpConfig struct {
	// Params is the pairing parameter set.
	Params *pairing.Params
	// Seed derives the shared identity universe and every audit's
	// challenge RNG.
	Seed int64
	// Blocks / BlockSize shape the audited dataset; Sample / Rounds shape
	// each audit.
	Blocks    int
	BlockSize int
	Sample    int
	Rounds    int
	// RTT is the simulated symmetric latency added on top of the real
	// localhost socket — the WAN the streaming win is measured against.
	RTT time.Duration
	// Stream is the streamed mode's round concurrency (sequential mode is
	// always 1).
	Stream int
	// Audits is how many audits each mode runs (throughput averaging).
	Audits int
	// Hub collects metrics across the experiment.
	Hub *obs.Hub
}

func (c DaemonExpConfig) withDefaults() DaemonExpConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Blocks <= 0 {
		c.Blocks = 64
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 256
	}
	if c.Sample <= 0 {
		c.Sample = 16
	}
	if c.Rounds <= 0 {
		c.Rounds = 8
	}
	if c.RTT <= 0 {
		c.RTT = 50 * time.Millisecond
	}
	if c.Stream <= 1 {
		c.Stream = 4
	}
	if c.Audits <= 0 {
		c.Audits = 3
	}
	return c
}

// DaemonRow is one transport mode's measured audit throughput.
type DaemonRow struct {
	// Mode is "sequential" or "streamed".
	Mode string
	// Stream is the round concurrency used.
	Stream int
	// Audits ran; Rounds is challenge rounds per audit.
	Audits int
	Rounds int
	// Elapsed is total wall-clock for all audits; AuditsPerSec the
	// resulting throughput.
	Elapsed      time.Duration
	AuditsPerSec float64
	// FalseFlags and LostRounds across all audits (both must be 0 on a
	// clean localhost link).
	FalseFlags int
	LostRounds int
}

// DaemonSummary carries the acceptance figures for daemon mode.
type DaemonSummary struct {
	// RTT is the simulated link latency the speedup was measured at.
	RTT time.Duration
	// SpeedupX is streamed throughput over sequential throughput.
	SpeedupX float64
	// FalseFlags across every audit in the experiment (throughput, drain,
	// determinism, mTLS).
	FalseFlags int
	// DrainOK: Shutdown overlapping a streamed audit returned clean.
	DrainOK bool
	// DrainedAuditValid / DrainLostRounds: the in-flight audit finished
	// valid with zero lost rounds.
	DrainedAuditValid bool
	DrainLostRounds   int
	// FingerprintSim / FingerprintTCP are the canonical verdict hashes of
	// the same seeded epoch scenario on each transport; Deterministic is
	// their equality.
	FingerprintSim string
	FingerprintTCP string
	Deterministic  bool
	// MTLSValid: a full audit succeeded over mutual TLS. MTLSUnknownRefused:
	// a CA-valid peer with an unregistered SAN learned nothing.
	MTLSValid          bool
	MTLSUnknownRefused bool
	// Gate lists every failed acceptance check (empty = all green).
	Gate []string
}

// DaemonExp measures production daemon mode end to end on real localhost
// sockets: streamed challenge pipelining vs sequential rounds under
// simulated WAN latency, graceful drain under fire, cross-transport
// verdict determinism, and mutual-TLS identity.
func DaemonExp(cfg DaemonExpConfig) ([]DaemonRow, *DaemonSummary, error) {
	cfg = cfg.withDefaults()
	sum := &DaemonSummary{RTT: cfg.RTT}

	u, err := daemon.NewUniverse(cfg.Params, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	auditCfg := func(stream int) core.AuditConfig {
		return core.AuditConfig{
			DatasetSize:     cfg.Blocks,
			SampleSize:      cfg.Sample,
			Rounds:          cfg.Rounds,
			BatchSignatures: true,
			Workers:         stream,
		}
	}
	newServer := func() (*core.Server, error) {
		srv, err := u.NewServer("0", core.ServerConfig{})
		if err != nil {
			return nil, err
		}
		if err := u.SeedDataset(srv, "0", cfg.Blocks, cfg.BlockSize); err != nil {
			return nil, err
		}
		return srv, nil
	}
	warrant, err := u.Warrant(time.Now().Add(24 * time.Hour))
	if err != nil {
		return nil, nil, err
	}
	countReport := func(row *DaemonRow, r *core.AuditReport) {
		for _, rr := range r.Rounds {
			if rr.Outcome.Accusatory() {
				row.FalseFlags++
			}
		}
		row.LostRounds += r.NetworkFaultRounds() + r.ShedRounds()
	}

	// --- Cell 1: streamed vs sequential throughput at RTT ---------------
	srv, err := newServer()
	if err != nil {
		return nil, nil, err
	}
	s, err := daemon.Listen("127.0.0.1:0", daemon.ServerConfig{Handler: srv, Obs: cfg.Hub})
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()

	var rows []DaemonRow
	for _, mode := range []struct {
		name   string
		stream int
	}{{"sequential", 1}, {"streamed", cfg.Stream}} {
		tr := daemon.NewTCPTransport(daemon.TCPTransportConfig{
			Timeout: 30 * time.Second,
			RTT:     cfg.RTT,
			Obs:     cfg.Hub,
		})
		client, err := tr.Dial(s.Addr())
		if err != nil {
			_ = tr.Close()
			return nil, nil, err
		}
		row := DaemonRow{Mode: mode.name, Stream: mode.stream, Audits: cfg.Audits, Rounds: cfg.Rounds}
		start := time.Now()
		for i := 0; i < cfg.Audits; i++ {
			report, err := u.StorageAudit(client, warrant, cfg.Seed+int64(i), auditCfg(mode.stream))
			if err != nil {
				_ = tr.Close()
				return nil, nil, fmt.Errorf("%s audit %d: %w", mode.name, i, err)
			}
			countReport(&row, report)
		}
		row.Elapsed = time.Since(start)
		row.AuditsPerSec = float64(cfg.Audits) / row.Elapsed.Seconds()
		sum.FalseFlags += row.FalseFlags
		rows = append(rows, row)
		_ = tr.Close()
	}
	if rows[0].AuditsPerSec > 0 {
		sum.SpeedupX = rows[1].AuditsPerSec / rows[0].AuditsPerSec
	}

	// --- Cell 2: graceful drain under a streamed in-flight audit --------
	drainSrv, err := newServer()
	if err != nil {
		return nil, nil, err
	}
	ds, err := daemon.Listen("127.0.0.1:0", daemon.ServerConfig{
		Handler:   drainSrv,
		DrainIdle: 2 * time.Second,
		Obs:       cfg.Hub,
	})
	if err != nil {
		return nil, nil, err
	}
	pool := daemon.NewPool(daemon.PoolConfig{Addr: ds.Addr(), MaxIdle: cfg.Stream})
	drainClient := daemon.NewClient(pool, daemon.ClientConfig{Timeout: 30 * time.Second, Obs: cfg.Hub})
	// Grandfather every streaming conn before the drain begins.
	if err := pool.Warm(context.Background(), cfg.Stream); err != nil {
		_ = drainClient.Close()
		_ = ds.Close()
		return nil, nil, err
	}
	latent := netsim.NewLatentClient(drainClient, cfg.RTT/2)
	type auditResult struct {
		report *core.AuditReport
		err    error
	}
	resCh := make(chan auditResult, 1)
	go func() {
		report, err := u.StorageAudit(latent, warrant, cfg.Seed+100, auditCfg(cfg.Stream))
		resCh <- auditResult{report, err}
	}()
	time.Sleep(cfg.RTT / 2) // the audit is mid-flight
	drainCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	drainErr := ds.Shutdown(drainCtx)
	cancel()
	res := <-resCh
	_ = drainClient.Close()
	sum.DrainOK = drainErr == nil
	if res.err == nil && res.report != nil {
		sum.DrainedAuditValid = res.report.Valid()
		sum.DrainLostRounds = res.report.NetworkFaultRounds() + res.report.ShedRounds()
		for _, rr := range res.report.Rounds {
			if rr.Outcome.Accusatory() {
				sum.FalseFlags++
			}
		}
	}

	// --- Cell 3: cross-transport verdict determinism --------------------
	simSrv, err := newServer()
	if err != nil {
		return nil, nil, err
	}
	sim := daemon.NewSimTransport()
	sim.Register("cs:0", simSrv)
	simClient, err := sim.Dial("cs:0")
	if err != nil {
		return nil, nil, err
	}
	simReport, err := u.StorageAudit(simClient, warrant, cfg.Seed+200, auditCfg(cfg.Stream))
	_ = sim.Close()
	if err != nil {
		return nil, nil, err
	}
	tcpTr := daemon.NewTCPTransport(daemon.TCPTransportConfig{Timeout: 30 * time.Second, Obs: cfg.Hub})
	tcpClient, err := tcpTr.Dial(s.Addr())
	if err != nil {
		return nil, nil, err
	}
	tcpReport, err := u.StorageAudit(tcpClient, warrant, cfg.Seed+200, auditCfg(cfg.Stream))
	_ = tcpTr.Close()
	if err != nil {
		return nil, nil, err
	}
	sum.FingerprintSim = daemon.FingerprintReports(simReport)
	sum.FingerprintTCP = daemon.FingerprintReports(tcpReport)
	sum.Deterministic = sum.FingerprintSim == sum.FingerprintTCP

	// --- Cell 4: mutual TLS with SAN-pinned identity ---------------------
	pkiDir, err := os.MkdirTemp("", "seccloud-pki-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(pkiDir)
	if err := daemon.GeneratePKI(pkiDir, nil, ""); err != nil {
		return nil, nil, err
	}
	srvTLS, err := daemon.LoadServerTLS(
		filepath.Join(pkiDir, daemon.PKIFiles.ServerCert),
		filepath.Join(pkiDir, daemon.PKIFiles.ServerKey),
		filepath.Join(pkiDir, daemon.PKIFiles.CA), true)
	if err != nil {
		return nil, nil, err
	}
	cliTLS, err := daemon.LoadClientTLS(
		filepath.Join(pkiDir, daemon.PKIFiles.ClientCert),
		filepath.Join(pkiDir, daemon.PKIFiles.ClientKey),
		filepath.Join(pkiDir, daemon.PKIFiles.CA), "localhost")
	if err != nil {
		return nil, nil, err
	}
	tlsSrv, err := newServer()
	if err != nil {
		return nil, nil, err
	}
	runTLSAudit := func(identities *daemon.IdentityMap) (*core.AuditReport, error) {
		ts, err := daemon.Listen("127.0.0.1:0", daemon.ServerConfig{
			Handler:    tlsSrv,
			TLS:        srvTLS,
			Identities: identities,
			Obs:        cfg.Hub,
		})
		if err != nil {
			return nil, err
		}
		defer ts.Close()
		tr := daemon.NewTCPTransport(daemon.TCPTransportConfig{
			TLS: cliTLS, Timeout: 30 * time.Second, DialTimeout: 10 * time.Second, Obs: cfg.Hub,
		})
		defer tr.Close()
		client, err := tr.Dial(ts.Addr())
		if err != nil {
			return nil, err
		}
		return u.StorageAudit(client, warrant, cfg.Seed+300, auditCfg(cfg.Stream))
	}
	known := daemon.NewIdentityMap(map[string]string{daemon.DefaultAgencySAN: "da:demo"})
	mtlsReport, err := runTLSAudit(known)
	if err != nil {
		return nil, nil, err
	}
	sum.MTLSValid = mtlsReport.Valid() && mtlsReport.EffectiveSampleSize == cfg.Sample
	for _, rr := range mtlsReport.Rounds {
		if rr.Outcome.Accusatory() {
			sum.FalseFlags++
		}
	}
	unknown := daemon.NewIdentityMap(map[string]string{"nobody.seccloud.local": "da:nobody"})
	refusedReport, err := runTLSAudit(unknown)
	if err != nil {
		return nil, nil, err
	}
	refusedFlags := 0
	for _, rr := range refusedReport.Rounds {
		if rr.Outcome.Accusatory() {
			refusedFlags++
		}
	}
	sum.FalseFlags += refusedFlags
	sum.MTLSUnknownRefused = refusedReport.EffectiveSampleSize == 0 && refusedFlags == 0

	// --- Acceptance gate -------------------------------------------------
	if sum.SpeedupX < 1.5 {
		sum.Gate = append(sum.Gate, fmt.Sprintf("streamed throughput %.2fx sequential at %v RTT, want >= 1.5x", sum.SpeedupX, cfg.RTT))
	}
	if sum.FalseFlags != 0 {
		sum.Gate = append(sum.Gate, fmt.Sprintf("%d false flags across the experiment, want 0", sum.FalseFlags))
	}
	for _, row := range rows {
		if row.LostRounds != 0 {
			sum.Gate = append(sum.Gate, fmt.Sprintf("%s mode lost %d rounds on a clean link", row.Mode, row.LostRounds))
		}
	}
	if !sum.DrainOK {
		sum.Gate = append(sum.Gate, "graceful drain did not complete cleanly")
	}
	if res.err != nil {
		sum.Gate = append(sum.Gate, fmt.Sprintf("in-flight audit failed during drain: %v", res.err))
	} else if !sum.DrainedAuditValid || sum.DrainLostRounds != 0 {
		sum.Gate = append(sum.Gate, fmt.Sprintf("drained audit valid=%t lost=%d, want valid with 0 lost rounds", sum.DrainedAuditValid, sum.DrainLostRounds))
	}
	if !sum.Deterministic {
		sum.Gate = append(sum.Gate, "verdict fingerprints diverge between netsim and daemon transports")
	}
	if !sum.MTLSValid {
		sum.Gate = append(sum.Gate, "mTLS audit did not complete fully valid")
	}
	if !sum.MTLSUnknownRefused {
		sum.Gate = append(sum.Gate, "unregistered principal was not cleanly refused")
	}
	return rows, sum, nil
}
