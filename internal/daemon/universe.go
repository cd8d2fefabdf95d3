package daemon

import (
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"time"

	"seccloud/internal/core"
	"seccloud/internal/ibc"
	"seccloud/internal/pairing"
	"seccloud/internal/transport"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

// Universe is the demo identity universe both daemons derive from a
// shared seed: the IBC master secret comes from a seeded PRNG, so
// seccloudd and seccloud-agencyd — separate processes with no key
// distribution channel — independently extract byte-identical user,
// agency, and server keys, the same way the paper assumes PKG-issued
// identities. Demo-grade by construction: a production deployment would
// run a real PKG; the seed stands in for it.
type Universe struct {
	// Seed reproduces the universe.
	Seed int64
	// Params is the pairing parameter set.
	Params *pairing.Params
	// User owns the demo dataset; Agency is the designated verifier.
	User   *core.User
	Agency *core.Agency

	sio *ibc.SIO
}

// Demo identity strings.
const (
	demoUserID   = "user:demo"
	demoAgencyID = "da:demo"
)

// NewUniverse derives the demo universe from (params, seed). The seeded
// PRNG feeds ONLY key material (identity determinism across processes);
// runtime signing randomness uses crypto/rand, since signatures verify
// rather than compare.
func NewUniverse(pp *pairing.Params, seed int64) (*Universe, error) {
	rng := mrand.New(mrand.NewSource(seed))
	sio, err := ibc.Setup(pp, rng)
	if err != nil {
		return nil, err
	}
	sp := sio.Params()
	userKey, err := sio.Extract(demoUserID)
	if err != nil {
		return nil, err
	}
	daKey, err := sio.Extract(demoAgencyID)
	if err != nil {
		return nil, err
	}
	return &Universe{
		Seed:   seed,
		Params: pp,
		User:   core.NewUser(sp, userKey, rand.Reader),
		Agency: core.NewAgency(sp, daKey, rand.Reader),
		sio:    sio,
	}, nil
}

// NewServer builds the cloud server for identity "cs:<name>" with the
// universe's parameters.
func (u *Universe) NewServer(name string, cfg core.ServerConfig) (*core.Server, error) {
	key, err := u.sio.Extract("cs:" + name)
	if err != nil {
		return nil, err
	}
	if cfg.Random == nil {
		cfg.Random = rand.Reader
	}
	return core.NewServer(u.sio.Params(), key, cfg)
}

// SeedDataset generates the deterministic demo dataset (workload
// generator seeded with the universe seed), signs it for the server and
// agency as designated verifiers, and stores it into srv directly
// (in-process — this is the daemon seeding its own storage at startup,
// not a network store).
func (u *Universe) SeedDataset(srv *core.Server, serverName string, blocks, blockSize int) error {
	ds := workload.NewGenerator(u.Seed).GenDataset(u.User.ID(), blocks, blockSize)
	req, err := u.User.PrepareStore(ds, "cs:"+serverName, u.Agency.ID())
	if err != nil {
		return err
	}
	resp := srv.Handle(req)
	stored, ok := resp.(*wire.StoreResponse)
	if !ok || !stored.OK {
		return fmt.Errorf("daemon: seeding dataset: unexpected store response %T", resp)
	}
	return nil
}

// Warrant issues the agency's wildcard audit warrant (jobID "", valid
// for storage audits of any of the user's data) expiring at notAfter.
func (u *Universe) Warrant(notAfter time.Time) (wire.Warrant, error) {
	return core.WildcardWarrant(u.User, u.Agency.ID(), notAfter)
}

// StorageAudit runs one storage audit of the demo dataset over client,
// with a seeded challenge RNG so the same (universe, auditSeed) pair
// samples identical indices on any transport.
func (u *Universe) StorageAudit(client transport.Client, warrant wire.Warrant, auditSeed int64, cfg core.AuditConfig) (*core.AuditReport, error) {
	cfg.Rng = mrand.New(mrand.NewSource(auditSeed))
	return u.Agency.AuditStorage(client, u.User.ID(), warrant, cfg)
}
