package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"time"

	"seccloud/internal/curve"
	"seccloud/internal/dvs"
	"seccloud/internal/pairing"
	"seccloud/internal/threshold"
	"seccloud/internal/transport"
	"seccloud/internal/wire"
)

// Threshold agency: instead of the combiner holding sk_DA, the verifier
// key is Shamir-split across n AuditorShare nodes and every eq. 5/7
// pairing ê(base, sk_DA) is reconstructed from any quorum of t partial
// verifications ê(base, share_i), Lagrange-combined in the exponent. The
// combiner (this Agency) holds only its own identity key — used to sign
// evidence — never the designated-verifier secret.
//
// Blame discipline, the robustness core of the design: a share-holder
// that crashes or times out is a *liveness* fault (its breaker trips and
// another share's partial substitutes); a share-holder whose partial
// fails its commitment proof is *Byzantine* (recorded, skipped, replaced).
// Neither can ever become a storage accusation: the storage verdict is
// computed only from a fully verified quorum, and if no quorum of t
// honest, live shares exists the audit aborts with ErrQuorumUnavailable —
// an error, not evidence.

// ErrQuorumUnavailable reports that fewer than t share-holders delivered
// commitment-verified partials. It is terminal: the audit aborts without
// a verdict, because an unreconstructable pairing says nothing about the
// storage server.
var ErrQuorumUnavailable = errors.New("core: threshold quorum unavailable")

// ThresholdConfig wires a t-of-n share-holder fleet into an Agency.
type ThresholdConfig struct {
	// Public is the dealer's published commitment set (identifies the
	// logical verifier, t, n, and the per-share Feldman commitments).
	Public *threshold.PublicInfo
	// Clients transport PartialRequests to the share-holders; Clients[i]
	// reaches the holder of share index i+1. len(Clients) must equal n.
	Clients []transport.Client
	// Health tracks share-holder liveness with per-holder circuit
	// breakers; nil builds a fresh FleetHealth with default breakers.
	Health *FleetHealth
	// Retry retries transport-failed partial requests; nil = one attempt.
	// Audit-wide retry budgets compose exactly as they do for challenge
	// rounds: wrap the retrier with WithBudget before configuring it here.
	Retry *transport.Retrier
	// RoundTimeout bounds each partial-request attempt; 0 = no deadline.
	RoundTimeout time.Duration
}

// thresholdState is the validated runtime form of ThresholdConfig.
type thresholdState struct {
	pub     *threshold.PublicInfo
	clients []transport.Client
	health  *FleetHealth
	retry   *transport.Retrier
	timeout time.Duration
}

// WithThreshold switches the agency into threshold-combiner mode: every
// designated verification is reconstructed from a t-of-n quorum of
// partials instead of the agency's own key. The agency's key keeps
// signing evidence and checkpoints.
func (a *Agency) WithThreshold(cfg ThresholdConfig) (*Agency, error) {
	if cfg.Public == nil {
		return nil, fmt.Errorf("core: threshold config has no public info")
	}
	if len(cfg.Clients) != cfg.Public.N {
		return nil, fmt.Errorf("core: threshold config has %d clients for n=%d shares",
			len(cfg.Clients), cfg.Public.N)
	}
	health := cfg.Health
	if health == nil {
		health = NewFleetHealth(cfg.Public.N, BreakerConfig{})
	} else if health.NumServers() != cfg.Public.N {
		return nil, fmt.Errorf("core: threshold health tracks %d holders for n=%d shares",
			health.NumServers(), cfg.Public.N)
	}
	a.thr = &thresholdState{
		pub:     cfg.Public,
		clients: cfg.Clients,
		health:  health,
		retry:   cfg.Retry,
		timeout: cfg.RoundTimeout,
	}
	return a, nil
}

// Thresholded reports whether the agency verifies through a share quorum.
func (a *Agency) Thresholded() bool { return a.thr != nil }

// verifierID is the identity signatures must be designated to: the
// logical (split) verifier key in threshold mode, the agency's own key
// otherwise.
func (a *Agency) verifierID() string {
	if a.thr != nil {
		return a.thr.pub.VerifierID
	}
	return a.key.ID
}

// ThresholdTrail is the quorum story of one audit: who answered, who
// crashed, who lied, and what the combined check produced. It rides in
// reports, checkpoints (as the avoid-list for resumed partial
// collection), and version-4 evidence.
type ThresholdTrail struct {
	// Quorum lists the share indices whose verified partials entered the
	// Lagrange combination (sorted ascending).
	Quorum []int
	// Crashed lists share indices lost to transport faults, timeouts, or
	// open breakers during collection.
	Crashed []int
	// Byzantine lists share indices whose partials failed their
	// commitment (DLEQ) proof — attributed to the share-holder, replaced,
	// and NEVER surfaced as a storage accusation.
	Byzantine []int
	// Recoveries counts share-holders that failed mid-collection but were
	// replaced by a later share while still reaching quorum.
	Recoveries int
	// CombinedDigest is hex(SHA-256) of the combined GT element of the
	// batched aggregate check ("" when the audit had no signature work).
	// Any quorum of honest shares produces the same bytes, so the digest
	// is the publicly comparable form of the quorum's joint verdict.
	CombinedDigest string
}

// newTrail allocates a trail in threshold mode, nil otherwise — reports
// carry a non-nil Threshold exactly when a quorum produced their verdict.
func (a *Agency) newTrail() *ThresholdTrail {
	if a.thr == nil {
		return nil
	}
	return &ThresholdTrail{}
}

// thresholdAvoid extracts a resumed audit's known-bad share-holders: the
// checkpoint's partial-collection state deprioritizes holders the
// interrupted run saw crash or lie, so the resumed quorum forms from
// still-healthy shares first.
func thresholdAvoid(resume *AuditCheckpoint) []int {
	if resume == nil || resume.Threshold == nil {
		return nil
	}
	return mergeIndices(resume.Threshold.Crashed, resume.Threshold.Byzantine)
}

func mergeIndices(a, b []int) []int {
	seen := make(map[int]bool, len(a)+len(b))
	out := make([]int, 0, len(a)+len(b))
	for _, s := range [][]int{a, b} {
		for _, i := range s {
			if !seen[i] {
				seen[i] = true
				out = append(out, i)
			}
		}
	}
	sort.Ints(out)
	if len(out) == 0 {
		return nil
	}
	return out
}

// shareOrder returns the 1-based share indices in collection order:
// ascending, with indices on the avoid-list (crashed/Byzantine in the
// interrupted run this audit resumes) moved to the back. Deterministic,
// so the quorum an audit selects depends only on who answers — not on
// goroutine scheduling.
func shareOrder(n int, avoid []int) []int {
	bad := make(map[int]bool, len(avoid))
	for _, i := range avoid {
		bad[i] = true
	}
	order := make([]int, 0, n)
	for i := 1; i <= n; i++ {
		if !bad[i] {
			order = append(order, i)
		}
	}
	for i := 1; i <= n; i++ {
		if bad[i] {
			order = append(order, i)
		}
	}
	return order
}

// collectPartials gathers commitment-verified partials for every base
// from a quorum of t share-holders. Share-holders are tried in
// deterministic order; a transport loss or open breaker records a crash,
// a failed proof records Byzantine blame, and either way the next share
// substitutes (a "quorum recovery"). Returns the combined GT per base.
func (a *Agency) collectPartials(
	ctx context.Context, bases []*curve.Point, avoid []int, trail *ThresholdTrail,
) ([]*pairing.GT, error) {
	thr := a.thr
	pub := thr.pub
	g := pub.Params().G1()
	rawBases := make([][]byte, len(bases))
	for i, b := range bases {
		rawBases[i] = g.MarshalPoint(b)
	}
	req := &wire.PartialRequest{VerifierID: pub.VerifierID, Bases: rawBases}

	type answer struct {
		index    int
		partials []*threshold.Partial // aligned with bases
	}
	var quorum []answer
	failed := 0
	markCrashed := func(idx int) {
		trail.Crashed = mergeIndices(trail.Crashed, []int{idx})
		failed++
	}
	unmarkCrashed := func(idx int) {
		kept := trail.Crashed[:0]
		for _, c := range trail.Crashed {
			if c != idx {
				kept = append(kept, c)
			}
		}
		trail.Crashed = kept
		if len(trail.Crashed) == 0 {
			trail.Crashed = nil
		}
		failed--
	}
	markByzantine := func(idx int) {
		trail.Byzantine = mergeIndices(trail.Byzantine, []int{idx})
		failed++
		a.obs.byzantinePartial()
	}
	// attempt asks one share-holder for partials and verifies them;
	// true means its answer joined the quorum. A non-transport round-trip
	// failure is terminal.
	attempt := func(idx int) (bool, error) {
		br := thr.health.Breaker(idx - 1)
		resp, _, err := roundTrip(ctx, thr.clients[idx-1], thr.retry, thr.timeout, req)
		if err != nil {
			if _, transport := classifyTransport(err); !transport {
				return false, fmt.Errorf("core: partial round trip to share %d: %w", idx, err)
			}
			br.Report(false)
			markCrashed(idx)
			return false, nil
		}
		br.Report(true)
		pr, ok := resp.(*wire.PartialResponse)
		if !ok || pr.Error != "" || pr.Index != idx || len(pr.Partials) != len(bases) {
			// Alive but wrong: a refusal, misattributed index, or short
			// answer is the share-holder's fault — auditor blame, never
			// storage blame.
			markByzantine(idx)
			return false, nil
		}
		ans := answer{index: idx, partials: make([]*threshold.Partial, len(bases))}
		for k := range bases {
			p, err := threshold.DecodePartialProof(pub.Params(), idx, &pr.Partials[k])
			if err == nil {
				err = pub.VerifyPartial(bases[k], p)
			}
			if err != nil {
				markByzantine(idx)
				return false, nil
			}
			ans.partials[k] = p
		}
		quorum = append(quorum, ans)
		return true, nil
	}
	var denied []int
	for _, idx := range shareOrder(pub.N, avoid) {
		if len(quorum) >= pub.T {
			break
		}
		if !thr.health.Breaker(idx - 1).Allow() {
			markCrashed(idx)
			denied = append(denied, idx)
			continue
		}
		if _, err := attempt(idx); err != nil {
			return nil, err
		}
	}
	// Rescue pass: an open breaker protects latency while alternatives
	// exist, but it is a prediction, not evidence — when the quorum would
	// otherwise be short, breaker-denied holders are probed anyway, and a
	// holder that answers correctly rejoins (its denial was a stale trip,
	// not a crash).
	for _, idx := range denied {
		if len(quorum) >= pub.T {
			break
		}
		unmarkCrashed(idx)
		// Drain the breaker's cooldown so the probe counts as its half-open
		// trial: answering correctly closes the breaker, failing re-trips it.
		br := thr.health.Breaker(idx - 1)
		for i := 0; i < 16 && !br.Allow(); i++ {
		}
		if _, err := attempt(idx); err != nil {
			return nil, err
		}
		// On failure, attempt re-recorded the real fault (crash or
		// Byzantine); on success the holder simply rejoins the quorum.
	}
	if len(quorum) < pub.T {
		return nil, fmt.Errorf("%w: %d verified partials of t=%d (crashed=%v byzantine=%v)",
			ErrQuorumUnavailable, len(quorum), pub.T, trail.Crashed, trail.Byzantine)
	}
	members := make([]int, len(quorum))
	for i, ans := range quorum {
		members[i] = ans.index
	}
	trail.Quorum = mergeIndices(trail.Quorum, members)
	if failed > 0 {
		// Quorum reached despite failures: every failed holder was
		// replaced by a later share.
		trail.Recoveries += failed
		a.obs.quorumRecoveries(failed)
	}
	out := make([]*pairing.GT, len(bases))
	for k := range bases {
		ps := make([]*threshold.Partial, len(quorum))
		for i, ans := range quorum {
			ps[i] = ans.partials[k]
		}
		combined, err := pub.Combine(ps)
		if err != nil {
			return nil, fmt.Errorf("core: combining partials: %w", err)
		}
		out[k] = combined
	}
	return out, nil
}

// combinedDigest canonically fingerprints a combined GT element.
func combinedDigest(gt *pairing.GT) string {
	sum := sha256.Sum256(gt.Marshal())
	return hex.EncodeToString(sum[:])
}

// verifySigBatchThreshold is the threshold twin of verifySigBatch: the
// same decision procedure, with every ê(·, sk_DA) pairing reconstructed
// through a quorum. The batched path costs ONE quorum round on the
// aggregated base U_A; on aggregate failure the per-item fallback packs
// all per-item bases into a second single quorum round and attributes
// blame per signature. A terminal error (no quorum) aborts the audit.
func (a *Agency) verifySigBatchThreshold(
	ctx context.Context, checks []sigCheck, batched bool, avoid []int, trail *ThresholdTrail,
) ([]error, bool, error) {
	errs := make([]error, len(checks))
	if len(checks) == 0 {
		return errs, false, nil
	}
	vid := a.verifierID()
	if batched {
		batch := make([]dvs.BatchItem, len(checks))
		for i, sc := range checks {
			batch[i] = dvs.NewBatchItem(sc.msg, sc.des)
		}
		ua, sigmaA, err := a.scheme.AggregateRandomized(batch, vid, a.random)
		if err == nil {
			combined, cerr := a.collectPartials(ctx, []*curve.Point{ua}, avoid, trail)
			if cerr != nil {
				return nil, false, cerr
			}
			trail.CombinedDigest = combinedDigest(combined[0])
			if combined[0].Equal(sigmaA) {
				return errs, false, nil
			}
		}
		// Aggregate rejected (or structurally unusable): fall through to
		// per-item blame attribution.
	}
	bases := make([]*curve.Point, 0, len(checks))
	slots := make([]int, 0, len(checks))
	for i, sc := range checks {
		base, err := a.scheme.VerificationBase(sc.des, sc.msg, vid)
		if err != nil {
			errs[i] = err
			continue
		}
		bases = append(bases, base)
		slots = append(slots, i)
	}
	if len(bases) == 0 {
		return errs, batched, nil
	}
	combined, cerr := a.collectPartials(ctx, bases, avoid, trail)
	if cerr != nil {
		return nil, false, cerr
	}
	for k, slot := range slots {
		if !combined[k].Equal(checks[slot].des.Sigma) {
			errs[slot] = dvs.ErrVerifyFailed
		}
	}
	return errs, batched, nil
}
