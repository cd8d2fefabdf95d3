package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"seccloud/internal/dvs"
	"seccloud/internal/ibc"
	"seccloud/internal/netsim"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

// User is a cloud user (CU): it signs and uploads data, submits computing
// jobs, verifies commitment-root signatures, and delegates auditing to the
// designated agency via warrants.
type User struct {
	key    *ibc.PrivateKey
	scheme *dvs.Scheme
	random io.Reader
	clock  func() time.Time
	seq    mutationSeq // dynamic-storage mutation sequencing
}

// NewUser builds a user from its extracted identity key.
func NewUser(sp *ibc.SystemParams, key *ibc.PrivateKey, random io.Reader) *User {
	return &User{
		key:    key,
		scheme: dvs.NewScheme(sp),
		random: random,
		clock:  time.Now,
	}
}

// ID returns the user's identity string.
func (u *User) ID() string { return u.key.ID }

// WithClock overrides the time source (tests).
func (u *User) WithClock(clock func() time.Time) *User {
	u.clock = clock
	return u
}

// SignBlock produces the designated block signature σ_i = (U_i, {Σ_v}) over
// (position ‖ data) for the given verifier identities (typically the cloud
// server and the DA — the paper's Σ_i, Σ'_i pair).
func (u *User) SignBlock(pos uint64, data []byte, verifierIDs ...string) (wire.BlockSig, error) {
	msg := BlockMessage(pos, data)
	sigs, err := u.scheme.SignDesignated(u.key, msg, u.random, verifierIDs...)
	if err != nil {
		return wire.BlockSig{}, fmt.Errorf("core: signing block %d: %w", pos, err)
	}
	return EncodeBlockSig(u.key.ID, u.scheme.Params(), sigs)
}

// PrepareStore signs every block of a dataset for upload. Positions are
// the block indices within the dataset.
func (u *User) PrepareStore(ds *workload.Dataset, verifierIDs ...string) (*wire.StoreRequest, error) {
	req := &wire.StoreRequest{
		UserID:    u.key.ID,
		Positions: make([]uint64, len(ds.Blocks)),
		Blocks:    make([][]byte, len(ds.Blocks)),
		Sigs:      make([]wire.BlockSig, len(ds.Blocks)),
	}
	for i, b := range ds.Blocks {
		pos := uint64(i)
		sig, err := u.SignBlock(pos, b, verifierIDs...)
		if err != nil {
			return nil, err
		}
		req.Positions[i] = pos
		req.Blocks[i] = b
		req.Sigs[i] = sig
	}
	return req, nil
}

// Store uploads a prepared request through the client and interprets the
// response. After a successful store the paper's user "deletes them from
// local storage"; whether the caller drops its copy is up to it.
func (u *User) Store(client netsim.Client, req *wire.StoreRequest) error {
	resp, err := client.RoundTripContext(context.Background(), req)
	if err != nil {
		return fmt.Errorf("core: store round trip: %w", err)
	}
	switch r := resp.(type) {
	case *wire.StoreResponse:
		if !r.OK {
			return fmt.Errorf("core: server rejected store: %s", r.Error)
		}
		return nil
	case *wire.ErrorResponse:
		return fmt.Errorf("core: store failed: %s: %s", r.Code, r.Msg)
	default:
		return fmt.Errorf("core: unexpected store response %T", resp)
	}
}

// SubmitJob sends a computing request and returns the server's response
// (results, commitment root, root signature). It verifies the root
// signature and that the root matches a Merkle tree over the returned
// results before accepting.
func (u *User) SubmitJob(client netsim.Client, jobID string, job *workload.Job) (*wire.ComputeResponse, error) {
	req := &wire.ComputeRequest{
		UserID: u.key.ID,
		JobID:  jobID,
		Tasks:  TasksToWire(job),
	}
	resp, err := client.RoundTripContext(context.Background(), req)
	if err != nil {
		return nil, fmt.Errorf("core: compute round trip: %w", err)
	}
	switch r := resp.(type) {
	case *wire.ComputeResponse:
		if r.Error != "" {
			return nil, fmt.Errorf("core: compute failed: %s", r.Error)
		}
		if err := u.CheckComputeResponse(req, r); err != nil {
			return nil, err
		}
		return r, nil
	case *wire.ErrorResponse:
		return nil, fmt.Errorf("core: compute failed: %s: %s", r.Code, r.Msg)
	default:
		return nil, fmt.Errorf("core: unexpected compute response %T", resp)
	}
}

// CheckComputeResponse verifies the commitment envelope: the root
// signature Sig_CS(R) is valid for the responding server, the number of
// results matches the request, and R equals the Merkle root over the
// claimed results. It does NOT check result correctness — that is the
// auditor's sampling job.
func (u *User) CheckComputeResponse(req *wire.ComputeRequest, r *wire.ComputeResponse) error {
	if len(r.Results) != len(req.Tasks) {
		return fmt.Errorf("core: got %d results for %d tasks", len(r.Results), len(req.Tasks))
	}
	sig, err := DecodeIBSig(u.scheme.Params(), r.RootSig)
	if err != nil {
		return fmt.Errorf("core: root signature malformed: %w", err)
	}
	if err := u.scheme.PublicVerify(r.ServerID, rootSigMessage(r.JobID, r.Root), sig); err != nil {
		return fmt.Errorf("core: root signature invalid: %w", err)
	}
	root, err := CommitmentRoot(req.Tasks, r.Results)
	if err != nil {
		return fmt.Errorf("core: rebuilding commitment: %w", err)
	}
	if string(root[:]) != string(r.Root) {
		return fmt.Errorf("core: commitment root does not match returned results")
	}
	return nil
}

// Delegate issues the warrant handing audit rights for jobID to the
// delegate until notAfter (§V-D: "a warrant include the identity of the
// delegatee and the expired time").
func (u *User) Delegate(delegateID, jobID string, notAfter time.Time) (wire.Warrant, error) {
	w := wire.Warrant{
		UserID:       u.key.ID,
		DelegateID:   delegateID,
		JobID:        jobID,
		NotAfterUnix: notAfter.Unix(),
	}
	sig, err := u.scheme.Sign(u.key, w.Body(), u.random)
	if err != nil {
		return wire.Warrant{}, fmt.Errorf("core: signing warrant: %w", err)
	}
	w.Sig = EncodeIBSig(u.scheme.Params(), sig)
	return w, nil
}

// TasksToWire converts a workload job into wire task specs.
func TasksToWire(job *workload.Job) []wire.TaskSpec {
	tasks := make([]wire.TaskSpec, len(job.SubTasks))
	for i, st := range job.SubTasks {
		tasks[i] = wire.TaskSpec{
			FuncName:  st.Spec.Name,
			Arg:       st.Spec.Arg,
			Positions: append([]uint64(nil), st.Positions...),
		}
	}
	return tasks
}
