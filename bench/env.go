package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seccloud/internal/core"
	"seccloud/internal/daemon"
	"seccloud/internal/ibc"
	"seccloud/internal/netsim"
	"seccloud/internal/pairing"
	"seccloud/internal/store"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

// clock is the one time source of the harness: every timestamp, span
// boundary and deadline reads it, so the span arithmetic can be tested
// with a fake.
type clock func() time.Time

// lockedRand is a seeded byte source safe for the two client goroutines
// that may share a party (the agency verifies for both auditors).
type lockedRand struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newLockedRand(seed int64) *lockedRand {
	return &lockedRand{rng: rand.New(rand.NewSource(seed))}
}

func (r *lockedRand) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Read(p)
}

// countingFS is the store.FS the durable server writes through. It counts
// what reaches the disk: bytes and fsyncs in total, and snapshot files
// apart from WAL segments (a snapshot is a "snap-*.tmp" file renamed into
// place). Counters are atomics because WAL appends of the two clients
// interleave.
type countingFS struct {
	store.FS
	bytes, syncs, snaps atomic.Int64
	// lastSnapBytes and lastAppendBytes are the sizes of the latest
	// snapshot and WAL write, which the traced run prices the log with.
	lastSnapBytes, lastAppendBytes atomic.Int64
}

type fsCounts struct {
	bytes, syncs, snaps int64
}

func (c *countingFS) counts() fsCounts {
	return fsCounts{c.bytes.Load(), c.syncs.Load(), c.snaps.Load()}
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{a.bytes - b.bytes, a.syncs - b.syncs, a.snaps - b.snaps}
}

func (c *countingFS) OpenFile(path string, flag int, perm os.FileMode) (store.File, error) {
	f, err := c.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	snap := strings.Contains(path, "snap-")
	if snap {
		c.snaps.Add(1)
	}
	return &countingFile{File: f, fs: c, snap: snap}, nil
}

func (c *countingFS) SyncDir(path string) error {
	c.syncs.Add(1)
	return c.FS.SyncDir(path)
}

type countingFile struct {
	store.File
	fs   *countingFS
	snap bool
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	if f.snap {
		f.fs.lastSnapBytes.Store(int64(n))
	} else {
		f.fs.lastAppendBytes.Store(int64(n))
	}
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// party is one cloud user with everything the harness must remember to
// drive and check its operations.
type party struct {
	user *core.User
	gen  *workload.Generator
	// blocks mirrors what the server must hold at each position (initial
	// upload, later uploads, acked updates), for re-evaluating job results.
	blocks [][]byte
	// uploads are the acked store requests in order; a fresh server is
	// seeded by replaying them.
	uploads []*wire.StoreRequest
	job     *workload.Job
	deleg   *core.JobDelegation
	warrant wire.Warrant
	// updates counts the user's block replacements so far.
	updates int
}

// env is one set-up system: three processes' worth of state (two users
// and the DA on the client side, the cloud server behind the daemon
// listener) hosted in this process. Each role holds its own copy of the
// pairing parameters, as separate processes would, which also keeps the
// crypto op counters of user, agency and server apart.
type env struct {
	sp   *spec
	seed int64
	now  clock
	spd  *speedometer
	tr   *tracer // nil unless this is the traced run

	userPP, agencyPP, serverPP *pairing.Params
	serverSP                   *ibc.SystemParams
	serverKey                  *ibc.PrivateKey
	agency                     *core.Agency
	users                      [2]*party

	// dir is this system's scratch root and the first server's WAL
	// directory; srvDir is the directory of the server now behind the
	// socket (rotated servers live in sub-directories).
	dir, srvDir string
	fs          *countingFS
	srv         *core.Server
	retired     []*core.Server
	ln          *daemon.Server
	trans       [2]*daemon.TCPTransport
	clients     [2]netsim.Client

	// noCompaction opens further servers with SnapshotEvery 0.
	noCompaction bool

	// jobsOnServer counts jobs submitted to the current server.
	jobsOnServer atomic.Int64
	swapMu       sync.Mutex
	jobSeq       atomic.Int64

	// uploads are the set-up upload requests, timed sign → ack, and
	// uploadFS what they wrote to disk.
	uploads          []sample
	uploadFS         fsCounts
	userBytes, acked [2]int64
}

const (
	serverID = "cs:bench"
	agencyID = "da:bench"
)

func userID(i int) string { return fmt.Sprintf("user:bench-%d", i) }

// newEnv builds a complete system and uploads the initial datasets; the
// caller times it as one set-up. outDir is where the WAL directory goes.
func newEnv(sp *spec, seed int64, h *harness, tr *tracer) (_ *env, err error) {
	e := &env{sp: sp, seed: seed, now: h.now, spd: h.spd, tr: tr}
	now, outDir := h.now, h.outDir
	defer func() {
		if err != nil {
			e.close() // a failed set-up leaves no listener, server or WAL behind
		}
	}()

	// One master secret, three parameter objects: Setup draws s from the
	// seeded source, so the three SIOs agree on every key.
	var sios [3]*ibc.SIO
	for i := range sios {
		pp, err := pairing.ByName(sp.params)
		if err != nil {
			return nil, err
		}
		if sios[i], err = ibc.Setup(pp, rand.New(rand.NewSource(seed))); err != nil {
			return nil, err
		}
	}
	userSIO, agencySIO, serverSIO := sios[0], sios[1], sios[2]
	e.userPP, e.agencyPP, e.serverPP = userSIO.Params().Pairing(), agencySIO.Params().Pairing(), serverSIO.Params().Pairing()
	e.serverSP = serverSIO.Params()

	daKey, err := agencySIO.Extract(agencyID)
	if err != nil {
		return nil, err
	}
	e.agency = core.NewAgency(agencySIO.Params(), daKey, newLockedRand(seed+100)).WithClock(now)
	if e.serverKey, err = serverSIO.Extract(serverID); err != nil {
		return nil, err
	}
	for i := range e.users {
		key, err := userSIO.Extract(userID(i))
		if err != nil {
			return nil, err
		}
		e.users[i] = &party{
			user: core.NewUser(userSIO.Params(), key, newLockedRand(seed+200+int64(i))).WithClock(now),
			gen:  workload.NewGenerator(seed + 300 + int64(i)),
		}
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if e.dir, err = os.MkdirTemp(outDir, "wal-"); err != nil {
		return nil, err
	}
	e.fs = &countingFS{FS: store.OSFS()}
	e.srvDir = e.dir
	if e.srv, err = e.openServer(e.dir, nil); err != nil {
		return nil, err
	}
	if e.ln, err = daemon.Listen("127.0.0.1:0", daemon.ServerConfig{Handler: e.handlerFor(e.srv)}); err != nil {
		return nil, err
	}
	for i := range e.trans {
		e.trans[i] = daemon.NewTCPTransport(daemon.TCPTransportConfig{Timeout: 60 * time.Second})
		c, err := e.trans[i].Dial(e.ln.Addr())
		if err != nil {
			return nil, err
		}
		if tr != nil {
			c = tr.client(c)
		}
		e.clients[i] = c
	}

	if err := e.uploadInitial(); err != nil {
		return nil, err
	}
	for i, p := range e.users {
		if err := e.delegateJob(i, p); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// serverConfig is the durable server every workload runs.
func (e *env) serverConfig(dir string, policy core.CheatPolicy) core.ServerConfig {
	snapshotEvery := e.sp.snapshotEvery
	if e.noCompaction {
		snapshotEvery = 0
	}
	return core.ServerConfig{
		VerifyOnStore: e.sp.verifyOnStore,
		Policy:        policy,
		Clock:         e.now,
		Random:        newLockedRand(e.seed + 400),
		Durability: &core.DurabilityConfig{
			Dir:           dir,
			FS:            e.fs,
			SnapshotEvery: snapshotEvery,
		},
	}
}

func (e *env) openServer(dir string, policy core.CheatPolicy) (*core.Server, error) {
	return core.NewServer(e.serverSP, e.serverKey, e.serverConfig(dir, policy))
}

func (e *env) handlerFor(srv *core.Server) netsim.Handler {
	if e.tr != nil {
		return e.tr.handler(srv, e.serverPP)
	}
	return srv
}

// install puts srv, whose WAL lives in dir, behind the listening socket.
func (e *env) install(srv *core.Server, dir string) {
	e.srv, e.srvDir = srv, dir
	e.ln.Slot().Swap(e.handlerFor(srv))
}

// reopen crashes the server behind the socket and recovers a new
// incarnation from its directory, returning how long core.NewServer took.
func (e *env) reopen() (time.Duration, error) {
	e.srv.Crash()
	_ = e.srv.Close() // release the dead incarnation's segment handle
	t0 := e.now()
	srv, err := e.openServer(e.srvDir, nil)
	took := e.now().Sub(t0)
	if err != nil {
		return 0, fmt.Errorf("recovery: %w", err)
	}
	e.install(srv, e.srvDir)
	return took, nil
}

// uploadInitial has both users sign and upload their initial dataset
// concurrently, one closed-loop client each, timing every request.
func (e *env) uploadInitial() error {
	before := e.fs.counts()
	var wg sync.WaitGroup
	perUser := make([][]sample, len(e.users))
	for i := range e.users {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ref := e.spd.probe()
			for n := 0; n < e.sp.blocks/e.sp.reqBlocks; n++ {
				ref.tick()
				s := e.doStore(i)
				perUser[i] = append(perUser[i], s)
				if s.err != nil {
					return
				}
			}
		}(i)
	}
	wg.Wait()
	e.uploadFS = e.fs.counts().sub(before)
	for i, samples := range perUser {
		if last := samples[len(samples)-1]; last.err != nil {
			return fmt.Errorf("set-up upload of user %d: %w", i, last.err)
		}
		e.uploads = append(e.uploads, samples...)
	}
	e.stampSpeed(e.uploads)
	return nil
}

// delegateJob generates the user's job, submits it and hands the DA the
// delegation and a storage warrant — the state every audit starts from.
func (e *env) delegateJob(i int, p *party) error {
	job, err := p.gen.GenJob(p.user.ID(), workload.JobConfig{NumSubTasks: e.sp.jobTasks, DatasetSize: e.sp.blocks})
	if err != nil {
		return err
	}
	p.job = job
	jobID := fmt.Sprintf("setup-%d", i)
	resp, err := p.user.SubmitJob(e.clients[i], jobID, job)
	if err != nil {
		return fmt.Errorf("set-up job of user %d: %w", i, err)
	}
	notAfter := e.now().Add(24 * time.Hour)
	w, err := p.user.Delegate(agencyID, jobID, notAfter)
	if err != nil {
		return err
	}
	p.deleg = &core.JobDelegation{
		UserID: p.user.ID(), ServerID: resp.ServerID, JobID: jobID,
		Tasks: core.TasksToWire(job), Results: resp.Results,
		Root: resp.Root, RootSig: resp.RootSig, Warrant: w,
	}
	if p.warrant, err = core.WildcardWarrant(p.user, agencyID, notAfter); err != nil {
		return err
	}
	return nil
}

// freshServer opens an empty durable server in a new directory and seeds
// it with every user's initial dataset by calling the handler directly
// (the daemon seeding its own storage, not a network store). The compute
// workload swaps to one every jobsPerServer jobs; the planted computation
// cheater is one.
func (e *env) freshServer(policy core.CheatPolicy) (*core.Server, string, error) {
	dir, err := os.MkdirTemp(e.dir, "srv-")
	if err != nil {
		return nil, "", err
	}
	srv, err := e.openServer(dir, policy)
	if err != nil {
		return nil, "", err
	}
	for _, p := range e.users {
		for _, req := range p.uploads[:e.sp.blocks/e.sp.reqBlocks] {
			if r, ok := srv.Handle(req).(*wire.StoreResponse); !ok || !r.OK {
				return nil, "", fmt.Errorf("seeding fresh server: store refused")
			}
		}
	}
	return srv, dir, nil
}

// resubmitDelegated replays each user's delegated job into srv so job
// audits find it there. The results are deterministic, so the root the DA
// already holds still matches.
func (e *env) resubmitDelegated(srv *core.Server) error {
	for _, p := range e.users {
		req := &wire.ComputeRequest{UserID: p.user.ID(), JobID: p.deleg.JobID, Tasks: p.deleg.Tasks}
		r, ok := srv.Handle(req).(*wire.ComputeResponse)
		if !ok || r.Error != "" {
			return fmt.Errorf("seeding fresh server: job %s refused", p.deleg.JobID)
		}
	}
	return nil
}

// rotateServer swaps in a fresh server. The one retired a rotation ago is
// closed now: any request that was in flight on it during that swap has
// long since been answered.
func (e *env) rotateServer(withJobs bool) error {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	srv, dir, err := e.freshServer(nil)
	if err != nil {
		return err
	}
	if withJobs {
		if err := e.resubmitDelegated(srv); err != nil {
			return err
		}
	}
	for _, old := range e.retired {
		_ = old.Close() // fsynced on every append; nothing left to flush
	}
	e.retired = append(e.retired[:0], e.srv)
	e.jobsOnServer.Store(0)
	e.install(srv, dir)
	return nil
}

// close tears the system down and removes its WAL directory.
func (e *env) close() {
	for _, t := range e.trans {
		if t != nil {
			_ = t.Close()
		}
	}
	if e.ln != nil {
		_ = e.ln.Close()
	}
	for _, s := range append(e.retired, e.srv) {
		if s != nil {
			_ = s.Close()
		}
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
	}
}
