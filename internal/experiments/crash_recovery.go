package experiments

import (
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"os"
	"path/filepath"
	"time"

	"seccloud/internal/core"
	"seccloud/internal/funcs"
	"seccloud/internal/ibc"
	"seccloud/internal/netsim"
	"seccloud/internal/obs"
	"seccloud/internal/pairing"
	"seccloud/internal/store"
	"seccloud/internal/workload"
)

// CrashRecoveryConfig shapes the durability experiment: how long a server
// takes to rebuild itself from WAL+snapshot as the dataset grows, and
// whether a restarted server survives DA audits after every crash point.
type CrashRecoveryConfig struct {
	// BlockCounts are the dataset sizes measured in the recovery-time sweep.
	BlockCounts []int
	// SampleSize is the post-restart audit budget t (clamped to the job).
	SampleSize int
	// SnapshotEvery is the log-compaction cadence during the sweep.
	SnapshotEvery int
	// Seed drives workloads and challenge sampling.
	Seed int64
	// Dir is the scratch root for WAL directories; empty uses a temp dir.
	Dir string
	// Hub, when non-nil, receives audit, WAL, and transport
	// instrumentation for every server spun up by the experiment.
	Hub *obs.Hub
}

// RecoveryRow is one dataset size in the recovery-time sweep.
type RecoveryRow struct {
	// Blocks is the stored dataset size.
	Blocks int
	// WALRecords is how many log records replay fed into recovery.
	WALRecords int
	// Recovery is the wall-clock NewServer time on the existing directory:
	// snapshot load, WAL replay, Merkle tree rebuilds, root cross-checks.
	Recovery time.Duration
	// AuditValid reports the post-restart job audit verdict.
	AuditValid bool
}

// CrashMatrixRow is one injected crash point, restarted and audited.
type CrashMatrixRow struct {
	// Point is the crash point name.
	Point string
	// TornTail reports whether recovery detected (and truncated) a torn
	// final record — expected exactly for the "torn-tail" point.
	TornTail bool
	// MutationDurable reports whether the mutation in flight at crash time
	// survived into the recovered state.
	MutationDurable bool
	// JobAuditValid / StorageAuditValid are the post-restart DA verdicts;
	// both must be true for every point (a crash is never evidence).
	JobAuditValid     bool
	StorageAuditValid bool
}

// crashRecoverySystem is the per-run party setup.
type crashRecoverySystem struct {
	sio    *ibc.SIO
	user   *core.User
	agency *core.Agency
	hub    *obs.Hub
}

func newCrashRecoverySystem(pp *pairing.Params, hub *obs.Hub) (*crashRecoverySystem, error) {
	sio, err := ibc.Setup(pp, rand.Reader)
	if err != nil {
		return nil, err
	}
	sp := sio.Params()
	userKey, err := sio.Extract("user:cr")
	if err != nil {
		return nil, err
	}
	daKey, err := sio.Extract("da:cr")
	if err != nil {
		return nil, err
	}
	return &crashRecoverySystem{
		sio:    sio,
		user:   core.NewUser(sp, userKey, rand.Reader),
		agency: core.NewAgency(sp, daKey, rand.Reader).WithObs(hub),
		hub:    hub,
	}, nil
}

func (s *crashRecoverySystem) newServer(dir string, snapshotEvery int, crash *store.Crasher) (*core.Server, netsim.Client, error) {
	key, err := s.sio.Extract("cs:cr")
	if err != nil {
		return nil, nil, err
	}
	srv, err := core.NewServer(s.sio.Params(), key, core.ServerConfig{
		Random: rand.Reader,
		Durability: &core.DurabilityConfig{
			Dir: dir, SnapshotEvery: snapshotEvery, NoSync: true, Crash: crash,
			Obs: s.hub,
		},
	})
	if err != nil {
		return nil, nil, err
	}
	return srv, netsim.NewLoopback(srv, netsim.LinkConfig{}).WithObs(s.hub), nil
}

// CrashRecovery runs both halves of the durability experiment and returns
// the recovery-time sweep plus the crash-matrix verdicts.
func CrashRecovery(pp *pairing.Params, cfg CrashRecoveryConfig) ([]RecoveryRow, []CrashMatrixRow, error) {
	if len(cfg.BlockCounts) == 0 || cfg.SampleSize <= 0 {
		return nil, nil, fmt.Errorf("experiments: bad crash-recovery config %+v", cfg)
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 64
	}
	root := cfg.Dir
	if root == "" {
		tmp, err := os.MkdirTemp("", "seccloud-crash-recovery-")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(tmp)
		root = tmp
	}

	sweep := make([]RecoveryRow, 0, len(cfg.BlockCounts))
	for _, n := range cfg.BlockCounts {
		row, err := recoverySweepRow(pp, cfg, filepath.Join(root, fmt.Sprintf("sweep-%d", n)), n)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: recovery sweep n=%d: %w", n, err)
		}
		sweep = append(sweep, row)
	}

	matrix := make([]CrashMatrixRow, 0, 4)
	for _, p := range store.CrashPoints() {
		row, err := crashMatrixRow(pp, cfg, filepath.Join(root, "matrix-"+p.String()), p)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: crash matrix %v: %w", p, err)
		}
		matrix = append(matrix, row)
	}
	return sweep, matrix, nil
}

// recoverySweepRow stores n blocks, runs a job, then times a cold restart
// and audits the recovered server.
func recoverySweepRow(pp *pairing.Params, cfg CrashRecoveryConfig, dir string, n int) (RecoveryRow, error) {
	sys, err := newCrashRecoverySystem(pp, cfg.Hub)
	if err != nil {
		return RecoveryRow{}, err
	}
	srv, client, err := sys.newServer(dir, cfg.SnapshotEvery, nil)
	if err != nil {
		return RecoveryRow{}, err
	}
	ds := workload.NewGenerator(cfg.Seed).GenDataset(sys.user.ID(), n, 8)
	req, err := sys.user.PrepareStore(ds, srv.ID(), sys.agency.ID())
	if err != nil {
		return RecoveryRow{}, err
	}
	if err := sys.user.Store(client, req); err != nil {
		return RecoveryRow{}, err
	}
	job := workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "sum"}, n)
	resp, err := sys.user.SubmitJob(client, "cr-job", job)
	if err != nil {
		return RecoveryRow{}, err
	}
	if err := srv.Close(); err != nil {
		return RecoveryRow{}, err
	}

	start := time.Now()
	srv2, client2, err := sys.newServer(dir, cfg.SnapshotEvery, nil)
	if err != nil {
		return RecoveryRow{}, err
	}
	elapsed := time.Since(start)
	info := srv2.Recovery()
	if !info.Recovered {
		return RecoveryRow{}, fmt.Errorf("restart recovered nothing")
	}

	warrant, err := sys.user.Delegate(sys.agency.ID(), "cr-job", time.Now().Add(time.Hour))
	if err != nil {
		return RecoveryRow{}, err
	}
	report, err := sys.agency.AuditJob(client2, &core.JobDelegation{
		UserID:   sys.user.ID(),
		ServerID: srv2.ID(),
		JobID:    "cr-job",
		Tasks:    core.TasksToWire(job),
		Results:  resp.Results,
		Root:     resp.Root,
		RootSig:  resp.RootSig,
		Warrant:  warrant,
	}, core.AuditConfig{
		SampleSize:      cfg.SampleSize,
		BatchSignatures: true,
		Rng:             mrand.New(mrand.NewSource(cfg.Seed + 1)),
	})
	if err != nil {
		return RecoveryRow{}, err
	}
	return RecoveryRow{
		Blocks:     n,
		WALRecords: info.WALRecords,
		Recovery:   elapsed,
		AuditValid: report.Valid(),
	}, nil
}

// crashMatrixRow arms one crash point, kills the server inside a mutation,
// restarts it from disk, redelivers the mutation, and audits the result.
func crashMatrixRow(pp *pairing.Params, cfg CrashRecoveryConfig, dir string, p store.CrashPoint) (CrashMatrixRow, error) {
	sys, err := newCrashRecoverySystem(pp, cfg.Hub)
	if err != nil {
		return CrashMatrixRow{}, err
	}
	crash := &store.Crasher{}
	// SnapshotEvery = 3 makes the crashing mutation (append #3) the one
	// that triggers compaction, so the mid-snapshot point has a snapshot
	// to die in.
	srv, client, err := sys.newServer(dir, 3, crash)
	if err != nil {
		return CrashMatrixRow{}, err
	}
	const blocks = 10
	ds := workload.NewGenerator(cfg.Seed).GenDataset(sys.user.ID(), blocks, 8)
	req, err := sys.user.PrepareStore(ds, srv.ID(), sys.agency.ID())
	if err != nil {
		return CrashMatrixRow{}, err
	}
	if err := sys.user.Store(client, req); err != nil { // append 1
		return CrashMatrixRow{}, err
	}
	job := workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "sum"}, 8)
	resp, err := sys.user.SubmitJob(client, "cm-job", job) // append 2
	if err != nil {
		return CrashMatrixRow{}, err
	}

	// The dying mutation: rewrite block 9 — outside the job's read set —
	// with fresh content. The crash point fires inside its handling.
	crash.Arm(p)
	newBlock := funcs.EncodeBlock([]int64{5, 5, 5, 5})
	if err := sys.user.UpdateBlock(client, 9, newBlock, srv.ID(), sys.agency.ID()); err == nil {
		return CrashMatrixRow{}, fmt.Errorf("armed crash did not fire")
	}
	if !crash.Fired() || !srv.Crashed() {
		return CrashMatrixRow{}, fmt.Errorf("crash did not fire (fired=%v crashed=%v)", crash.Fired(), srv.Crashed())
	}

	srv2, client2, err := sys.newServer(dir, 3, nil)
	if err != nil {
		return CrashMatrixRow{}, err
	}
	info := srv2.Recovery()
	row := CrashMatrixRow{
		Point:           p.String(),
		TornTail:        info.TornTail,
		MutationDurable: info.WALRecords >= 3,
	}
	// The client redelivers the unacked mutation; durable or lost, the
	// state converges.
	if err := sys.user.UpdateBlock(client2, 9, newBlock, srv2.ID(), sys.agency.ID()); err != nil {
		return CrashMatrixRow{}, fmt.Errorf("redelivery after restart: %w", err)
	}

	warrant, err := sys.user.Delegate(sys.agency.ID(), "cm-job", time.Now().Add(time.Hour))
	if err != nil {
		return CrashMatrixRow{}, err
	}
	report, err := sys.agency.AuditJob(client2, &core.JobDelegation{
		UserID:   sys.user.ID(),
		ServerID: srv2.ID(),
		JobID:    "cm-job",
		Tasks:    core.TasksToWire(job),
		Results:  resp.Results,
		Root:     resp.Root,
		RootSig:  resp.RootSig,
		Warrant:  warrant,
	}, core.AuditConfig{
		SampleSize: 8,
		Rng:        mrand.New(mrand.NewSource(cfg.Seed + 2)),
	})
	if err != nil {
		return CrashMatrixRow{}, err
	}
	row.JobAuditValid = report.Valid()

	wildcard, err := core.WildcardWarrant(sys.user, sys.agency.ID(), time.Now().Add(time.Hour))
	if err != nil {
		return CrashMatrixRow{}, err
	}
	sreport, err := sys.agency.AuditStorage(client2, sys.user.ID(), wildcard, core.AuditConfig{
		DatasetSize: blocks,
		SampleSize:  blocks,
		Rng:         mrand.New(mrand.NewSource(cfg.Seed + 3)),
	})
	if err != nil {
		return CrashMatrixRow{}, err
	}
	row.StorageAuditValid = sreport.Valid()
	return row, nil
}
