package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"time"

	"seccloud/internal/dvs"
	"seccloud/internal/funcs"
	"seccloud/internal/ibc"
	"seccloud/internal/merkle"
	"seccloud/internal/netsim"
	"seccloud/internal/obs"
	"seccloud/internal/sampling"
	"seccloud/internal/wire"
)

// CheckKind labels the individual checks of Algorithm 1.
type CheckKind int

// The checks, in protocol order.
const (
	// CheckWarrant covers warrant validation before any sampling.
	CheckWarrant CheckKind = iota + 1
	// CheckRootSig covers the server's signature on the commitment root.
	CheckRootSig
	// CheckResponse covers structural validity of the challenge response.
	CheckResponse
	// CheckSignature is Algorithm 1's IsSignatureWrong: the designated
	// block signature binding data to its claimed position (eq. 7).
	CheckSignature
	// CheckComputation is IsComputingWrong: recomputing y_i = f_i(x_{p_i}).
	CheckComputation
	// CheckRoot is IsRootWrong: Merkle root reconstruction (eq. 6).
	CheckRoot
)

// String renders the check name.
func (k CheckKind) String() string {
	switch k {
	case CheckWarrant:
		return "warrant"
	case CheckRootSig:
		return "root-signature"
	case CheckResponse:
		return "response"
	case CheckSignature:
		return "block-signature"
	case CheckComputation:
		return "computation"
	case CheckRoot:
		return "merkle-root"
	default:
		return fmt.Sprintf("check(%d)", int(k))
	}
}

// AuditFailure records one detected cheating instance.
type AuditFailure struct {
	Index  uint64
	Check  CheckKind
	Detail string
}

// RoundOutcome classifies one challenge round of an audit. The taxonomy
// is the heart of fault-aware auditing: only BadProof implicates the
// server; NetworkFault and Timeout implicate the link and must never be
// converted into cheating evidence.
type RoundOutcome int

// The round outcomes.
const (
	// RoundOK: the round completed and every check passed.
	RoundOK RoundOutcome = iota + 1
	// RoundNetworkFault: the round was lost to a transport failure even
	// after retries; its indices carry no information about the server.
	RoundNetworkFault
	// RoundTimeout: the round exceeded its deadline; like NetworkFault,
	// non-accusatory.
	RoundTimeout
	// RoundBadProof: the round completed and a cryptographic or protocol
	// check failed — this is the only accusatory outcome.
	RoundBadProof
	// RoundShed: the server's admission control refused the round with a
	// typed overload response. Like NetworkFault and Timeout it is
	// non-accusatory — a server honestly reporting "busy" has proven
	// nothing about its data — but it is kept distinct because the right
	// reaction differs: shed rounds should fail over or back off, never
	// retry into the saturated server.
	RoundShed
)

// String renders the outcome.
func (o RoundOutcome) String() string {
	switch o {
	case RoundOK:
		return "ok"
	case RoundNetworkFault:
		return "network-fault"
	case RoundTimeout:
		return "timeout"
	case RoundBadProof:
		return "bad-proof"
	case RoundShed:
		return "shed"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Accusatory reports whether the outcome implicates the server.
func (o RoundOutcome) Accusatory() bool { return o == RoundBadProof }

// Lost reports whether the round produced no verdict on the server
// (network fault, timeout, or overload shed): its indices leave the
// effective sample and a resumed audit re-challenges it.
func (o RoundOutcome) Lost() bool {
	return o == RoundNetworkFault || o == RoundTimeout || o == RoundShed
}

// RoundRecord is the evidence-trail entry for one challenge round.
type RoundRecord struct {
	// Indices are the sampled indices challenged in this round.
	Indices []uint64
	// Attempts is how many round trips were tried (≥ 1).
	Attempts int
	// Outcome classifies the round.
	Outcome RoundOutcome
	// Detail carries the transport error for lost rounds.
	Detail string
	// Completed records that the server's answer was received well-formed
	// and its items checked; false for rounds lost to the network and for
	// structurally refused rounds. A resumed audit re-challenges only
	// rounds with Completed == false and a non-accusatory outcome.
	Completed bool
	// Replica is the fleet replica that served this round: fleet audits
	// record the answering server (failover can move a round off the
	// primary), -1 when no replica answered. Single-server audits leave
	// it 0; the field only carries meaning under AuditStorageFleet.
	Replica int
	// FailedOver records that at least one failover re-issued this round
	// to a different replica before it resolved.
	FailedOver bool
	// Hedged records that a duplicate of this round was launched at a
	// second replica after the hedge delay and that duplicate answered
	// first (fleet audits with hedging enabled).
	Hedged bool
}

// AuditCheckpoint is an interrupted audit's durable residue: the exact
// challenge set that was sampled, the per-round verdicts so far, and the
// failures already attributed. Resuming from a checkpoint re-challenges
// ONLY the rounds that were lost to the network — with byte-identical
// indices — and carries every completed round's verdict forward, so a
// server crash mid-audit cannot buy the server a fresh (and possibly
// luckier) challenge set.
type AuditCheckpoint struct {
	// JobID is the audited job ("" for storage audits).
	JobID string
	// UserID is the audited user (storage audits; "" for job audits).
	UserID string
	// Sampled is the full challenge set of the interrupted run.
	Sampled []uint64
	// Rounds are the per-round verdicts at interruption time.
	Rounds []RoundRecord
	// Failures are the verdicts already attributed in completed rounds.
	Failures []AuditFailure
	// Threshold carries the interrupted run's partial-collection state
	// (checkpoint format ≥ 3): the share-holders it saw crash or lie are
	// deprioritized when the resumed audit re-forms its quorum.
	Threshold *ThresholdTrail
}

// Checkpoint extracts the resumable state of a (possibly degraded) audit.
func (r *AuditReport) Checkpoint() *AuditCheckpoint {
	return &AuditCheckpoint{
		JobID:     r.JobID,
		UserID:    r.UserID,
		Sampled:   append([]uint64(nil), r.Sampled...),
		Rounds:    append([]RoundRecord(nil), r.Rounds...),
		Failures:  append([]AuditFailure(nil), r.Failures...),
		Threshold: r.Threshold,
	}
}

// AuditReport is the outcome of one audit run — a computation audit
// (the paper's Algorithm 1 return value) or a stored-data audit (Protocol
// II verification, eq. 5/7, over sampled positions) — enriched with
// per-check attribution, per-round fault accounting, and traffic stats.
type AuditReport struct {
	// JobID is the audited job ("" for storage audits).
	JobID string
	// UserID is the audited user (storage audits; "" for job audits, whose
	// delegation names the user).
	UserID string
	// SampleSize is len(Sampled): the challenge set after any overload
	// degradation.
	SampleSize int
	Sampled    []uint64
	Failures   []AuditFailure
	// Rounds is the per-round evidence trail (one entry per challenge
	// round trip group; a single round covers the whole sample unless
	// AuditConfig.Rounds splits it).
	Rounds []RoundRecord
	// EffectiveSampleSize is the number of sampled indices whose
	// challenge round actually completed (k ≤ t). Rounds lost to the
	// network shrink the effective sample instead of framing the server.
	EffectiveSampleSize int
	// AchievedConfidence is 1 − Pr[cheat success] (eq. 14) recomputed for
	// the effective sample when AuditConfig.Analysis is set; 0 otherwise.
	AchievedConfidence float64
	// PlannedSampleSize is the sample size the audit intended before any
	// deliberate overload degradation (= SampleSize unless the overload
	// controller shrank the challenge set).
	PlannedSampleSize int
	// DegradedByOverload records that the overload controller shrank the
	// challenge set on purpose. The reduced confidence is explicit —
	// stamped into signed evidence — never a silent loss of detection
	// power.
	DegradedByOverload bool
	// BudgetDenied counts retries this audit wanted but the shared retry
	// budget refused.
	BudgetDenied int
	// SigChecksBatched reports whether block signatures were verified with
	// the §VI batch equation (2 pairings) instead of per-item.
	SigChecksBatched bool
	// Threshold is the quorum trail when the agency verifies through a
	// t-of-n share quorum; nil for single-key agencies.
	Threshold *ThresholdTrail
	// Failovers is a fleet audit's round re-issue trail, Quorums its
	// cross-examinations (one per accused replica) and Repairs its
	// executed repair plans; all three are empty for single-server audits.
	Failovers []FailoverEvent
	Quorums   []*QuorumResult
	Repairs   []*RepairResult
	// Elapsed is the wall-clock audit duration on the DA side.
	Elapsed time.Duration
}

// Valid reports the Algorithm 1 retValue: true iff no check failed.
// Rounds lost to the network do NOT count as failures: an honest server
// behind a lossy link stays valid.
func (r *AuditReport) Valid() bool { return len(r.Failures) == 0 }

// Degraded reports whether network faults shrank the effective sample.
func (r *AuditReport) Degraded() bool { return r.EffectiveSampleSize < r.SampleSize }

// NetworkFaultRounds counts rounds lost to transport faults or timeouts.
func (r *AuditReport) NetworkFaultRounds() int {
	return r.countRounds(func(rr *RoundRecord) bool {
		return rr.Outcome == RoundNetworkFault || rr.Outcome == RoundTimeout
	})
}

// ShedRounds counts rounds refused by server admission control.
func (r *AuditReport) ShedRounds() int {
	return r.countRounds(func(rr *RoundRecord) bool { return rr.Outcome == RoundShed })
}

// HedgedRounds counts rounds won by a hedged duplicate.
func (r *AuditReport) HedgedRounds() int {
	return r.countRounds(func(rr *RoundRecord) bool { return rr.Hedged })
}

func (r *AuditReport) countRounds(match func(*RoundRecord) bool) int {
	n := 0
	for i := range r.Rounds {
		if match(&r.Rounds[i]) {
			n++
		}
	}
	return n
}

// JobDelegation is what the cloud user hands the DA for auditing (§V-D):
// the job {F, P}, the claimed results Y, the commitment root and its
// signature, and the delegation warrant.
type JobDelegation struct {
	UserID   string
	ServerID string
	JobID    string
	Tasks    []wire.TaskSpec
	Results  [][]byte
	Root     []byte
	RootSig  wire.IBSig
	Warrant  wire.Warrant
}

// AuditConfig shapes one audit run, of a job or of stored data.
type AuditConfig struct {
	// DatasetSize is the number of addressable positions |X| a storage
	// audit samples from. Job audits ignore it: their population is the
	// delegation's task list.
	DatasetSize int
	// SampleSize is the number of sampled indices t; it is clamped to the
	// population (sampling is without replacement, t ≤ |X|, eq. 2).
	SampleSize int
	// Rng drives the sample choice (deterministic tests, seeded
	// simulations); nil seeds a fresh PRNG from the agency's randomness
	// source — crypto/rand in production.
	Rng *rand.Rand
	// BatchSignatures enables the §VI aggregate verification for the
	// block-signature checks, with individual fallback to attribute
	// failures.
	BatchSignatures bool
	// Rounds splits the sample across this many challenge round trips so
	// a transport fault costs one round, not the whole audit; ≤ 1 sends a
	// single challenge (the paper's shape).
	Rounds int
	// Retry retries rounds that fail with transport-class errors; nil
	// means a single attempt per round.
	Retry *netsim.Retrier
	// RoundTimeout bounds each round-trip attempt; 0 means no deadline.
	RoundTimeout time.Duration
	// Deadline bounds the whole audit end to end. When it expires,
	// in-flight rounds are cancelled and never-dispatched rounds are
	// recorded as deadline-lost timeouts; rounds the server already
	// answered are still verified in full. 0 means no audit deadline.
	Deadline time.Duration
	// Budget, when set, is this audit's shared retry token bucket: every
	// retry across all rounds draws a token, successes refund a fraction,
	// and a drained bucket stops retrying instead of amplifying an
	// overload. Denials are recorded in the report. Requires Retry.
	Budget *netsim.RetryBudget
	// Overload, when set, enables graceful degradation: when the
	// controller's observed shed/timeout rate crosses its threshold, the
	// audit shrinks its challenge set along the Theorem-3 curve and the
	// reduced detection confidence is stamped into the report (and any
	// evidence sealed from it) instead of being lost silently.
	Overload *OverloadController
	// Analysis, when set, recomputes the achieved detection confidence
	// (1 − eq. 14) for the effective sample after network-fault
	// degradation.
	Analysis *sampling.Params
	// Workers bounds the audit's verification concurrency: challenge
	// rounds fly in parallel and the per-index checks of each completed
	// round fan out across the same pool, so round trips overlap with
	// CPU-side verification. ≤ 1 (or 0) runs sequentially; 0 falls back to
	// the Agency-level default set by WithWorkers. The worker count never
	// changes report contents — only how fast they are produced.
	Workers int
	// Resume continues an interrupted audit from its checkpoint: the
	// sampled challenge set is reused byte-for-byte, completed rounds'
	// verdicts are carried over, and only network-lost rounds are
	// re-challenged. DatasetSize, SampleSize, Rng, and Rounds are ignored
	// when set.
	Resume *AuditCheckpoint
}

// StorageAuditConfig is AuditConfig under the name storage audits used
// before the two configs merged.
type StorageAuditConfig = AuditConfig

// Agency is the Designated Agency (DA): the third-party auditor holding
// its own identity key, to which users delegate storage and computation
// auditing.
type Agency struct {
	key     *ibc.PrivateKey
	scheme  *dvs.Scheme
	reg     *funcs.Registry
	random  io.Reader
	clock   func() time.Time
	workers int
	obs     *auditObs
	// thr, when set, routes every designated verification through a
	// t-of-n quorum of share-holders instead of the agency's own key
	// (see threshold.go). The agency key then only signs evidence.
	thr *thresholdState
	// sigs remembers the warrant and root signatures of delegations
	// already accepted: a sweep re-audits one delegation many times.
	sigs sigMemo
}

// NewAgency builds the DA from its extracted identity key. The pairing
// cache for the agency's own verification key is warmed immediately: every
// designated verification this agency ever runs pairs against sk_DA
// (eq. 5/7), so the one-time Miller-loop setup happens here instead of on
// the first audit's hot path.
func NewAgency(sp *ibc.SystemParams, key *ibc.PrivateKey, random io.Reader) *Agency {
	scheme := dvs.NewScheme(sp)
	scheme.PrecomputeVerifier(key)
	return &Agency{
		key:    key,
		scheme: scheme,
		reg:    funcs.NewRegistry(),
		random: random,
		clock:  time.Now,
	}
}

// ID returns the agency's identity.
func (a *Agency) ID() string { return a.key.ID }

// WithClock overrides the time source (tests).
func (a *Agency) WithClock(clock func() time.Time) *Agency {
	a.clock = clock
	return a
}

// WithWorkers sets the default verification concurrency used when an audit
// config leaves Workers at 0. ≤ 1 keeps audits sequential.
func (a *Agency) WithWorkers(workers int) *Agency {
	a.workers = workers
	return a
}

// WithObs wires the agency's audits into an observability hub: round and
// check-failure counters, audit durations, worker-pool depth, and the
// span tracer recording each audit's causal tree. A nil hub disables
// instrumentation (the default); the audit path then pays only nil
// checks. Instruments never change report contents.
func (a *Agency) WithObs(h *obs.Hub) *Agency {
	a.obs = newAuditObs(h)
	return a
}

// auditPool resolves the effective worker pool for one audit run.
func (a *Agency) auditPool(cfgWorkers int) *pool {
	if cfgWorkers == 0 {
		cfgWorkers = a.workers
	}
	p := newPool(cfgWorkers)
	if a.obs != nil {
		p.inflight = a.obs.inflight
	}
	return p
}

// challengeRNG returns the RNG that draws the challenge set S, preferring
// an explicit override (deterministic tests, seeded simulations).
//
// The default seed comes from the agency's randomness source — crypto/rand
// in production — NOT from the clock. The eq. 10/12 sampling game assumes
// the server cannot predict S: a server that knows the challenge set ahead
// of time cheats only outside it and is never caught. A clock-seeded
// math/rand breaks that twice over: timestamps are guessable to within a
// few plausible nanoseconds, and under an injected fake clock two audits
// seeded in the same instant draw *identical* challenge sets.
func (a *Agency) challengeRNG(override *rand.Rand) (*rand.Rand, error) {
	if override != nil {
		return override, nil
	}
	var seed [8]byte
	if _, err := io.ReadFull(a.random, seed[:]); err != nil {
		return nil, fmt.Errorf("core: seeding challenge rng: %w", err)
	}
	return rand.New(rand.NewSource(int64(binary.BigEndian.Uint64(seed[:])))), nil
}

// AcceptDelegation validates a delegation before any network audit: the
// warrant must name this DA, be unexpired, correctly signed and signed by
// the delegation's user; the commitment root must match the claimed
// results; and the root signature must verify against the claimed server.
// Both signatures go through the agency's sigMemo, so re-accepting a
// delegation pays for neither again; every other check runs each time.
func (a *Agency) AcceptDelegation(d *JobDelegation) error {
	if err := a.sigs.verifyWarrant(a.scheme, &d.Warrant, d.JobID, a.verifierID(), a.clock()); err != nil {
		return err
	}
	if err := checkWarrantOwner(&d.Warrant, d.UserID); err != nil {
		return err
	}
	if err := a.sigs.verify(a.scheme, "root", d.ServerID, rootSigMessage(d.JobID, d.Root), d.RootSig); err != nil {
		return err
	}
	root, err := CommitmentRootParallel(d.Tasks, d.Results, a.workers)
	if err != nil {
		return fmt.Errorf("core: rebuilding commitment root: %w", err)
	}
	if !bytes.Equal(root[:], d.Root) {
		return fmt.Errorf("core: claimed results do not match the committed root")
	}
	return nil
}

// SampleIndices draws t distinct indices uniformly from [0, n) by a
// partial Fisher–Yates shuffle — the Audit Challenge Step's random subset
// S = {c_1, …, c_t}.
//
// The shuffle runs over a sparse map holding only the positions a swap has
// actually touched (an untouched position i implicitly holds i), so a
// t-of-n challenge costs O(t) memory instead of materializing an O(n)
// scratch slice — for a million-block job the dense version burned 8 MB of
// garbage per challenge round. The draw sequence is identical to the dense
// shuffle for the same rng.
func SampleIndices(rng *rand.Rand, n, t int) []uint64 {
	if t > n {
		t = n
	}
	if t <= 0 {
		return nil
	}
	swapped := make(map[int]int, 2*t)
	at := func(i int) int {
		if v, ok := swapped[i]; ok {
			return v
		}
		return i
	}
	out := make([]uint64, t)
	for i := 0; i < t; i++ {
		j := i + rng.Intn(n-i)
		vi, vj := at(i), at(j)
		swapped[i], swapped[j] = vj, vi
		out[i] = uint64(vj)
	}
	return out
}

// AuditJob runs the full Probabilistic Sampling Cloud Computation Auditing
// Protocol (Algorithm 1) against the server behind client. It returns a
// report listing every detected failure; a report with no failures means
// the server passed all sampled checks. An audit where every round is lost
// to the network returns a valid-but-empty report with EffectiveSampleSize
// 0 (see auditRun.rounds for the fault and pipelining contracts).
func (a *Agency) AuditJob(client netsim.Client, d *JobDelegation, cfg AuditConfig) (*AuditReport, error) {
	run := a.startRun(auditRun{
		typ: "job", jobID: d.JobID, cfg: &cfg, disp: direct{client},
		kind: &jobKind{a: a, d: d, deferSigs: cfg.BatchSignatures || a.thr != nil},
		// Whatever checkItem deferred is meant for the aggregate equation.
		batched: true,
	}, "job", d.JobID, "user", d.UserID)
	defer run.close()
	if err := a.AcceptDelegation(d); err != nil {
		return nil, fmt.Errorf("core: delegation rejected: %w", err)
	}
	if err := run.draw(len(d.Tasks)); err != nil {
		return nil, err
	}
	return run.audit()
}

// jobKind challenges sub-task results: Algorithm 1's three checks per
// sampled index.
type jobKind struct {
	a *Agency
	d *JobDelegation
	// deferSigs defers block-signature pairings to the settle stage.
	// Threshold mode always defers: the quorum round that replaces the
	// ê(·, sk_DA) pairing is batched audit-wide, never per item.
	deferSigs bool
}

func (k *jobKind) request(chunk []uint64) wire.Message {
	return &wire.ChallengeRequest{JobID: k.d.JobID, Indices: chunk, Warrant: k.d.Warrant}
}

func (k *jobKind) check(ctx context.Context, p *pool, rs *obs.Span, chunk []uint64, resp wire.Message) (string, []AuditFailure, []sigCheck) {
	ch, ok := resp.(*wire.ChallengeResponse)
	switch {
	case !ok:
		return fmt.Sprintf("unexpected challenge response %T", resp), nil, nil
	case ch.Error != "":
		return "server refused challenge: " + ch.Error, nil, nil
	case len(ch.Items) != len(chunk):
		return fmt.Sprintf("server answered %d of %d challenges", len(ch.Items), len(chunk)), nil, nil
	}
	itemFails := make([][]AuditFailure, len(ch.Items))
	itemSigs := make([][]sigCheck, len(ch.Items))
	p.forEach(ctx, len(ch.Items), func(i int) {
		is := rs.Child("check.item", "index", strconv.FormatUint(chunk[i], 10))
		itemFails[i], itemSigs[i] = k.a.checkItem(k.d, chunk[i], ch.Items[i], k.deferSigs)
		if len(itemFails[i]) > 0 {
			is.Annotate("failed", "true")
		}
		is.End()
	})
	var fails []AuditFailure
	var sigs []sigCheck
	for i := range ch.Items {
		fails = append(fails, itemFails[i]...)
		sigs = append(sigs, itemSigs[i]...)
	}
	return "", fails, sigs
}

// checkItem runs the three per-sample checks of Algorithm 1 plus
// structural validation for one challenged index, returning its failures
// in check order. With deferSigs set, block-signature verifications that
// pass the structural stage are deferred as sigChecks for an aggregate
// §VI verification instead of being paired individually. checkItem shares
// no state with other items, so calls may run concurrently.
func (a *Agency) checkItem(
	d *JobDelegation, idx uint64, item wire.ChallengeItem, deferSigs bool,
) (fails []AuditFailure, sigChecks []sigCheck) {
	if item.Index != idx {
		return []AuditFailure{{
			Index: idx, Check: CheckResponse,
			Detail: fmt.Sprintf("answer for index %d where %d was challenged", item.Index, idx),
		}}, nil
	}
	if idx >= uint64(len(d.Tasks)) {
		return []AuditFailure{{
			Index: idx, Check: CheckResponse, Detail: "index out of range",
		}}, nil
	}
	task := d.Tasks[idx]
	if !taskSpecEqual(task, item.Task) {
		return []AuditFailure{{
			Index: idx, Check: CheckResponse,
			Detail: "server answered with a different task spec than requested",
		}}, nil
	}
	if len(item.Blocks) != len(task.Positions) || len(item.Sigs) != len(task.Positions) {
		return []AuditFailure{{
			Index: idx, Check: CheckResponse,
			Detail: "wrong number of input blocks in answer",
		}}, nil
	}

	// Check 1 (IsSignatureWrong, eq. 7): each input block's designated
	// signature must verify for its requested position. This is what
	// catches both deleted/fabricated data and position diversion.
	for k, pos := range task.Positions {
		des, err := DecodeBlockSig(a.scheme.Params(), &item.Sigs[k], a.verifierID())
		if err != nil {
			fails = append(fails, AuditFailure{
				Index: idx, Check: CheckSignature,
				Detail: fmt.Sprintf("block %d: %v", pos, err),
			})
			continue
		}
		if des.SignerID != d.UserID {
			fails = append(fails, AuditFailure{
				Index: idx, Check: CheckSignature,
				Detail: fmt.Sprintf("block %d signed by %q, want %q", pos, des.SignerID, d.UserID),
			})
			continue
		}
		msg := BlockMessage(pos, item.Blocks[k])
		if deferSigs {
			sigChecks = append(sigChecks, sigCheck{index: idx, msg: msg, des: des})
		} else if err := a.scheme.Verify(des, msg, a.key); err != nil {
			fails = append(fails, AuditFailure{
				Index: idx, Check: CheckSignature,
				Detail: fmt.Sprintf("block %d: %v", pos, err),
			})
		}
	}

	// Check 2 (IsComputingWrong): recompute y over the returned blocks.
	want, err := a.reg.Eval(funcs.Spec{Name: task.FuncName, Arg: task.Arg}, item.Blocks)
	switch {
	case err != nil:
		fails = append(fails, AuditFailure{
			Index: idx, Check: CheckComputation,
			Detail: fmt.Sprintf("recomputation failed: %v", err),
		})
	case !bytes.Equal(want, item.Result):
		fails = append(fails, AuditFailure{
			Index: idx, Check: CheckComputation,
			Detail: "claimed result differs from recomputation",
		})
	case !bytes.Equal(item.Result, d.Results[idx]):
		fails = append(fails, AuditFailure{
			Index: idx, Check: CheckComputation,
			Detail: "challenge answer differs from result returned at compute time",
		})
	}

	// Check 3 (IsRootWrong, eq. 6): reconstruct R* from the leaf and
	// the sibling path; it must equal the committed root.
	proof := &merkle.Proof{Index: int(idx), Steps: make([]merkle.ProofStep, len(item.ProofPath))}
	for k, st := range item.ProofPath {
		if len(st.Hash) != merkle.HashLen {
			fails = append(fails, AuditFailure{
				Index: idx, Check: CheckRoot,
				Detail: fmt.Sprintf("proof step %d has %d-byte hash", k, len(st.Hash)),
			})
			return fails, sigChecks
		}
		copy(proof.Steps[k].Hash[:], st.Hash)
		proof.Steps[k].Right = st.Right
	}
	var pos uint64
	if len(task.Positions) > 0 {
		pos = task.Positions[0]
	}
	leaf := merkle.LeafData{Result: item.Result, Position: pos}
	var committed [merkle.HashLen]byte
	copy(committed[:], d.Root)
	if err := merkle.VerifyProof(committed, leaf, proof); err != nil {
		fails = append(fails, AuditFailure{
			Index: idx, Check: CheckRoot, Detail: err.Error(),
		})
	}
	return fails, sigChecks
}

// taskSpecEqual compares task specs field by field.
func taskSpecEqual(a, b wire.TaskSpec) bool {
	if a.FuncName != b.FuncName || a.Arg != b.Arg || len(a.Positions) != len(b.Positions) {
		return false
	}
	for i := range a.Positions {
		if a.Positions[i] != b.Positions[i] {
			return false
		}
	}
	return true
}

// AuditStorage samples t positions out of the dataset and verifies the
// designated signatures over the returned (position ‖ data) strings
// (Protocol II verification, eq. 5/7). It runs on the same round engine as
// AuditJob: transport failures shrink the effective sample, they never
// accuse the server.
func (a *Agency) AuditStorage(
	client netsim.Client, userID string, warrant wire.Warrant, cfg AuditConfig,
) (*AuditReport, error) {
	run := a.startRun(auditRun{
		typ: "storage", userID: userID, cfg: &cfg, disp: direct{client},
		kind:    &storageKind{a: a, userID: userID, warrant: warrant},
		batched: cfg.BatchSignatures,
	}, "user", userID)
	defer run.close()
	if err := run.draw(cfg.DatasetSize); err != nil {
		return nil, err
	}
	return run.audit()
}

// storageKind challenges stored blocks: each returned block's designated
// signature must verify for its position and owner.
type storageKind struct {
	a       *Agency
	userID  string
	warrant wire.Warrant
}

func (k *storageKind) request(chunk []uint64) wire.Message {
	return &wire.StorageAuditRequest{UserID: k.userID, Positions: chunk, Warrant: k.warrant}
}

// accept checks that resp answers a challenge of n positions in shape; a
// non-empty refusal says why not.
func (k *storageKind) accept(resp wire.Message, n int) (*wire.StorageAuditResponse, string) {
	sa, ok := resp.(*wire.StorageAuditResponse)
	switch {
	case !ok:
		return nil, fmt.Sprintf("unexpected storage audit response %T", resp)
	case sa.Error != "":
		return nil, "server refused storage audit: " + sa.Error
	case len(sa.Blocks) != n || len(sa.Sigs) != n:
		return nil, "wrong number of blocks in storage audit answer"
	}
	return sa, ""
}

func (k *storageKind) check(_ context.Context, _ *pool, _ *obs.Span, chunk []uint64, resp wire.Message) (string, []AuditFailure, []sigCheck) {
	sa, refusal := k.accept(resp, len(chunk))
	if refusal != "" {
		return refusal, nil, nil
	}
	var fails []AuditFailure
	sigs := make([]sigCheck, 0, len(chunk))
	for i, pos := range chunk {
		if err := k.a.decodeStoredSig(k.userID, pos, sa.Blocks[i], sa.Sigs[i], &sigs); err != nil {
			fails = append(fails, AuditFailure{Index: pos, Check: CheckSignature, Detail: err.Error()})
		}
	}
	return "", fails, sigs
}
