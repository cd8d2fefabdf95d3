package daemon

import (
	"context"
	"fmt"
	"sync"
	"time"

	"seccloud/internal/core"
	"seccloud/internal/obs"
	"seccloud/internal/transport"
)

// AuditorConfig shapes the agency daemon's scheduled audit loop.
type AuditorConfig struct {
	// Universe supplies the agency identity, warrant, and dataset shape.
	Universe *Universe
	// Transport dials audit targets (TCPTransport in production,
	// SimTransport under test).
	Transport Transport
	// Servers are the audit targets' addresses.
	Servers []string
	// DatasetSize / SampleSize / Rounds shape each storage audit.
	DatasetSize int
	SampleSize  int
	Rounds      int
	// Stream is the audit's round concurrency (AuditConfig.Workers):
	// with a pooled transport, Stream > 1 pipelines round N+1's fetch
	// while round N verifies. 1 is the sequential baseline.
	Stream int
	// RoundTimeout / Deadline bound each round trip / each whole audit.
	RoundTimeout time.Duration
	Deadline     time.Duration
	// Retry retries transport-failed rounds.
	Retry *transport.Retrier
	// Interval is the pause between scheduled sweeps.
	Interval time.Duration
	// Seed derives each audit's challenge RNG (seed+sweep index).
	Seed int64
	// WarrantTTL bounds the wildcard warrant (default 24h).
	WarrantTTL time.Duration
	// Obs instruments the auditor.
	Obs *obs.Hub
}

// AuditOutcome is one server's audit verdict in one sweep.
type AuditOutcome struct {
	// Sweep and Server identify the audit.
	Sweep  int
	Server string
	// Valid is the verdict; FalseFlags counts accusatory rounds — for an
	// honest server both must stay (true, 0) no matter what the
	// transport does.
	Valid      bool
	FalseFlags int
	// Shed / NetworkFaults count non-accusatory lost rounds.
	Shed          int
	NetworkFaults int
	// Elapsed is the audit's wall-clock time.
	Elapsed time.Duration
	// Err is a pre-verdict failure (dial refused, warrant rejected…).
	Err error
}

// Auditor drives scheduled storage audits over a Transport. It drains
// gracefully: Drain stops new sweeps and waits for the in-flight one.
type Auditor struct {
	cfg AuditorConfig

	mu       sync.Mutex
	draining bool
	sweeps   int
	inflight sync.WaitGroup
}

// NewAuditor validates cfg and builds the audit loop.
func NewAuditor(cfg AuditorConfig) (*Auditor, error) {
	if cfg.Universe == nil || cfg.Transport == nil || len(cfg.Servers) == 0 {
		return nil, fmt.Errorf("daemon: auditor needs a universe, a transport, and servers")
	}
	if cfg.DatasetSize <= 0 || cfg.SampleSize <= 0 {
		return nil, fmt.Errorf("daemon: auditor needs dataset and sample sizes")
	}
	if cfg.Stream <= 0 {
		cfg.Stream = 1
	}
	if cfg.WarrantTTL <= 0 {
		cfg.WarrantTTL = 24 * time.Hour
	}
	return &Auditor{cfg: cfg}, nil
}

// RunOnce performs one sweep: a storage audit of every configured server.
// Transport faults and sheds degrade the sample; they never flip Valid.
func (a *Auditor) RunOnce(ctx context.Context) ([]AuditOutcome, error) {
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		return nil, context.Canceled
	}
	sweep := a.sweeps
	a.sweeps++
	a.inflight.Add(1)
	a.mu.Unlock()
	defer a.inflight.Done()

	warrant, err := a.cfg.Universe.Warrant(time.Now().Add(a.cfg.WarrantTTL))
	if err != nil {
		return nil, err
	}
	outcomes := make([]AuditOutcome, 0, len(a.cfg.Servers))
	for _, addr := range a.cfg.Servers {
		if err := ctx.Err(); err != nil {
			return outcomes, err
		}
		out := AuditOutcome{Sweep: sweep, Server: addr}
		start := time.Now()
		client, err := a.cfg.Transport.Dial(addr)
		if err != nil {
			out.Err = err
			out.Elapsed = time.Since(start)
			outcomes = append(outcomes, out)
			continue
		}
		report, err := a.cfg.Universe.StorageAudit(client, warrant, a.cfg.Seed+int64(sweep), core.AuditConfig{
			DatasetSize:     a.cfg.DatasetSize,
			SampleSize:      a.cfg.SampleSize,
			Rounds:          a.cfg.Rounds,
			BatchSignatures: true,
			Workers:         a.cfg.Stream,
			Retry:           a.cfg.Retry,
			RoundTimeout:    a.cfg.RoundTimeout,
			Deadline:        a.cfg.Deadline,
		})
		out.Elapsed = time.Since(start)
		if err != nil {
			out.Err = err
		} else {
			out.Valid = report.Valid()
			out.NetworkFaults = report.NetworkFaultRounds()
			out.Shed = report.ShedRounds()
			for _, rr := range report.Rounds {
				if rr.Outcome.Accusatory() {
					out.FalseFlags++
				}
			}
		}
		outcomes = append(outcomes, out)
	}
	return outcomes, nil
}

// Run sweeps until audits sweeps complete (0 = until ctx or Drain),
// pausing Interval between sweeps and reporting each outcome to emit.
func (a *Auditor) Run(ctx context.Context, audits int, emit func(AuditOutcome)) error {
	for i := 0; audits <= 0 || i < audits; i++ {
		if i > 0 && a.cfg.Interval > 0 {
			t := time.NewTimer(a.cfg.Interval)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		}
		outcomes, err := a.RunOnce(ctx)
		for _, out := range outcomes {
			if emit != nil {
				emit(out)
			}
		}
		if err != nil {
			if err == context.Canceled && a.isDraining() {
				return nil // clean drain
			}
			return err
		}
	}
	return nil
}

func (a *Auditor) isDraining() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.draining
}

// Drain stops scheduling new sweeps and blocks until the in-flight sweep
// finishes — the agency side of graceful shutdown: in-flight audits
// complete, nothing new starts.
func (a *Auditor) Drain() {
	a.mu.Lock()
	a.draining = true
	a.mu.Unlock()
	a.inflight.Wait()
}
