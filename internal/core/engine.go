package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"seccloud/internal/netsim"
	"seccloud/internal/obs"
	"seccloud/internal/sampling"
	"seccloud/internal/wire"
)

// The audit round engine. Algorithm 1 (computation audit) and the
// Protocol II spot check (storage audit, eq. 5/7) are the same sampling
// game — draw t of n indices, challenge them in rounds, verify designated
// signatures — so every audit in this package is one auditRun:
//
//	draw     resume or sample, overload degradation, report skeleton
//	rounds   plan → dispatch → classify → shape check → per-round checks →
//	         in-order assembly, collecting the deferred signature checks
//	settle   one (single-key or threshold) signature verification, failure
//	         attribution, round downgrade, achieved confidence
//	finish   elapsed time and instruments
//
// Two seams parameterise it. A challengeKind says what is challenged (the
// request for a chunk of indices and how to judge the answer); a
// dispatcher says who is asked (one server, or a fleet with breakers,
// failover and hedging). The scheduler runs rounds for every tenant, does
// its own cross-tenant signature flush, and hands the per-check errors
// back through blame and conclude.

// challengeKind is what an audit challenges: sub-task results (jobKind)
// or stored blocks (storageKind).
type challengeKind interface {
	// request builds the challenge for one round's indices.
	request(chunk []uint64) wire.Message
	// check judges the answer to request(chunk). A non-empty refusal means
	// the answer did not even have the right shape: the round is accusatory
	// but not Completed. Otherwise fails lists the per-index failures in
	// index order and sigs the designated-signature verifications deferred
	// to the settle stage. Per-index work may fan out across p under ctx;
	// rs is the round's span.
	check(ctx context.Context, p *pool, rs *obs.Span, chunk []uint64, resp wire.Message) (refusal string, fails []AuditFailure, sigs []sigCheck)
}

// dispatcher carries one round's challenge to whoever answers it.
type dispatcher interface {
	// send returns the answer, or the non-accusatory loss that ended the
	// round, or a terminal error that aborts the audit. It fills in the
	// transport half of rec: Attempts, and for fleets Replica, FailedOver
	// and Hedged.
	send(ctx context.Context, ln *link, ri int, rs *obs.Span, req wire.Message, rec *RoundRecord) (wire.Message, *roundLoss, error)
	// sequential reports that rounds must run one after another because
	// each round's dispatch depends on state the previous one left behind.
	sequential() bool
}

// roundLoss is a round that produced no verdict on the server.
type roundLoss struct {
	outcome RoundOutcome
	detail  string
}

// link is one run's transport policy, handed to the dispatcher with every
// round: how a round trip is retried and bounded, and how its failure is
// read.
type link struct {
	retry   *netsim.Retrier
	timeout time.Duration
	// tolerant makes errors outside the transport taxonomy cost the round
	// instead of aborting the run (the scheduler: one tenant's broken link
	// must not fail everyone's drain).
	tolerant bool
}

func (ln *link) trip(ctx context.Context, client netsim.Client, req wire.Message) (wire.Message, int, error) {
	return roundTrip(ctx, client, ln.retry, ln.timeout, req)
}

// lost reads a failed round trip: the loss it costs, or the error itself
// when it is terminal. This is the one place an audit round's transport
// failure is classified.
func (ln *link) lost(err error) (*roundLoss, error) {
	outcome, transport := classifyTransport(err)
	if !transport {
		if !ln.tolerant {
			return nil, err
		}
		outcome = RoundNetworkFault
	}
	return &roundLoss{outcome: outcome, detail: err.Error()}, nil
}

// direct is the single-server dispatcher.
type direct struct{ client netsim.Client }

func (d direct) send(ctx context.Context, ln *link, _ int, _ *obs.Span, req wire.Message, rec *RoundRecord) (wire.Message, *roundLoss, error) {
	resp, attempts, err := ln.trip(ctx, d.client, req)
	rec.Attempts = attempts
	if err != nil {
		loss, err := ln.lost(err)
		return nil, loss, err
	}
	return resp, nil, nil
}

func (direct) sequential() bool { return false }

// roundTrip performs one (possibly retried, possibly deadlined) challenge
// round trip and reports how many attempts it took. ctx is the audit-level
// context: its deadline (cfg.Deadline) and cancellation propagate into
// every attempt, so an expired audit stops issuing network work instead of
// finishing rounds whose report is already forfeit.
func roundTrip(ctx context.Context, client netsim.Client, retry *netsim.Retrier, timeout time.Duration, req wire.Message) (wire.Message, int, error) {
	attempts := 0
	op := func(ctx context.Context) (wire.Message, error) {
		attempts++
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		return client.RoundTripContext(ctx, req)
	}
	if retry == nil {
		resp, err := op(ctx)
		return resp, attempts, err
	}
	var resp wire.Message
	err := retry.Do(ctx, func(ctx context.Context) error {
		var err error
		resp, err = op(ctx)
		return err
	})
	if err != nil {
		return nil, attempts, err
	}
	return resp, attempts, nil
}

// classifyTransport maps a failed round trip to its outcome. Terminal
// (non-transport) errors return ok=false: they abort the audit rather
// than degrade it. Overload sheds are checked first: a typed shed is
// deliberately neither retryable nor a timeout (so the Retrier stops
// immediately), which would otherwise drop it into the terminal default.
func classifyTransport(err error) (RoundOutcome, bool) {
	switch {
	case netsim.IsOverloaded(err):
		return RoundShed, true
	case netsim.IsTimeout(err), errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return RoundTimeout, true
	case netsim.IsRetryable(err):
		return RoundNetworkFault, true
	default:
		return 0, false
	}
}

// plannedRound is one round of an audit run: either a fresh challenge or
// a verdict carried over from an interrupted run's checkpoint.
type plannedRound struct {
	indices []uint64
	carry   *RoundRecord
}

// planRounds lays out the rounds for a run: from the checkpoint when
// resuming (lost rounds re-challenged with their original indices), from
// splitRounds otherwise.
func planRounds(sample []uint64, rounds int, resume *AuditCheckpoint) []plannedRound {
	if resume == nil {
		chunks := splitRounds(sample, rounds)
		plan := make([]plannedRound, len(chunks))
		for i, c := range chunks {
			plan[i] = plannedRound{indices: c}
		}
		return plan
	}
	plan := make([]plannedRound, len(resume.Rounds))
	for i := range resume.Rounds {
		rr := &resume.Rounds[i]
		plan[i] = plannedRound{indices: rr.Indices}
		if !rr.Outcome.Lost() {
			plan[i].carry = rr
		}
	}
	return plan
}

// splitRounds chunks the sample into ≈equal contiguous rounds.
func splitRounds(sample []uint64, rounds int) [][]uint64 {
	if rounds <= 1 || len(sample) <= 1 {
		return [][]uint64{sample}
	}
	if rounds > len(sample) {
		rounds = len(sample)
	}
	out := make([][]uint64, 0, rounds)
	per := (len(sample) + rounds - 1) / rounds
	for start := 0; start < len(sample); start += per {
		end := start + per
		if end > len(sample) {
			end = len(sample)
		}
		out = append(out, sample[start:end])
	}
	return out
}

// auditRun is one audit's pass through the engine. Callers fill the first
// block of fields, then drive the stages in order.
type auditRun struct {
	a *Agency
	// typ labels the run's instruments ("job", "storage", "fleet").
	typ string
	// jobID and userID name the report's subject (one of them is empty).
	jobID, userID string
	kind          challengeKind
	disp          dispatcher
	cfg           *AuditConfig
	// batched runs the settle stage's aggregate equation before any
	// per-item verification.
	batched bool
	// tolerant is link.tolerant.
	tolerant bool
	pool     *pool

	start  time.Time
	root   *obs.Span
	report *AuditReport
	// ctx carries the audit deadline from the first round on; fleet audits
	// keep using it for cross-examination and repair.
	ctx    context.Context
	cancel context.CancelFunc
	// preCheck is where the failures found by this run's own checks start
	// in report.Failures (after resumed and round-level failures).
	preCheck  int
	sigChecks []sigCheck
}

// startRun stamps the run's start time, opens its root span and resolves
// its worker pool.
func (a *Agency) startRun(r auditRun, spanKV ...string) *auditRun {
	r.a = a
	r.start = a.clock()
	r.root = a.obs.startAudit(r.typ, spanKV...)
	r.pool = a.auditPool(r.cfg.Workers)
	return &r
}

// close releases the run's span and deadline; safe after any stage.
func (r *auditRun) close() {
	if r.cancel != nil {
		r.cancel()
	}
	r.root.End()
}

// draw fixes the challenge set over a population of n indices: the
// checkpoint's sample when resuming, a fresh partial shuffle otherwise,
// shrunk along the Theorem-3 curve when the overload controller says the
// service is saturated.
func (r *auditRun) draw(n int) error {
	cfg := r.cfg
	if cp := cfg.Resume; cp != nil {
		if cp.JobID != r.jobID || cp.UserID != r.userID {
			return fmt.Errorf("core: resume checkpoint is for job %q user %q, not job %q user %q",
				cp.JobID, cp.UserID, r.jobID, r.userID)
		}
		sample := append([]uint64(nil), cp.Sampled...)
		r.begin(sample, len(sample), false)
		// Verdicts already reached before the interruption stand as-is.
		r.report.Failures = append(r.report.Failures, cp.Failures...)
		return nil
	}
	rng, err := r.a.challengeRNG(cfg.Rng)
	if err != nil {
		return err
	}
	sample := SampleIndices(rng, n, cfg.SampleSize)
	planned := len(sample)
	// Graceful degradation: under sustained shed/timeout pressure a smaller
	// challenge set keeps audits completing inside their deadlines; the
	// confidence loss is explicit, recomputed in conclude and stamped into
	// any evidence sealed from this report.
	reduced, degraded := cfg.Overload.PlanSample(planned)
	r.begin(sample[:reduced], planned, degraded)
	return nil
}

// begin opens the report for an already-drawn challenge set.
func (r *auditRun) begin(sample []uint64, planned int, degraded bool) {
	if degraded {
		r.a.obs.degradedAudit(r.typ)
	}
	r.report = &AuditReport{
		JobID:              r.jobID,
		UserID:             r.userID,
		SampleSize:         len(sample),
		Sampled:            sample,
		PlannedSampleSize:  planned,
		DegradedByOverload: degraded,
		SigChecksBatched:   r.cfg.BatchSignatures,
	}
}

// rounds runs every challenge round and assembles the round trail, the
// round-level and per-index failures and the effective sample, leaving the
// deferred signature checks in r.sigChecks.
//
// Fault awareness: each round is retried under cfg.Retry (drawing on
// cfg.Budget) and bounded by cfg.RoundTimeout. A round that still fails
// with a transport-class error is recorded as lost and its indices leave
// the effective sample — a lost message says nothing about the server.
// Only check failures on rounds that actually completed become Failures.
//
// Pipelining: with more than one worker the rounds fly concurrently and
// each completed round's per-index checks fan out across the same pool.
// Every task writes only its own slot and the report is assembled
// sequentially in round order, so its contents are identical for every
// worker count.
func (r *auditRun) rounds() error {
	report, cfg := r.report, r.cfg
	if len(report.Sampled) == 0 {
		return nil
	}
	type roundResult struct {
		rec      RoundRecord
		ok       bool          // contributes to the effective sample
		respFail *AuditFailure // round-level structural failure
		fails    []AuditFailure
		sigs     []sigCheck
		err      error // terminal (non-transport) error
	}
	plan := planRounds(report.Sampled, cfg.Rounds, cfg.Resume)
	results := make([]roundResult, len(plan))
	// actx governs dispatch and network rounds: it dies on the audit
	// deadline or the first terminal error, so an expired audit stops
	// issuing work. verifyCtx dies ONLY on terminal errors — rounds the
	// server already answered are always verified in full, so a deadline
	// can never silently convert unchecked items into effective sample.
	r.ctx = context.Background()
	if cfg.Deadline > 0 {
		r.ctx, r.cancel = context.WithTimeout(r.ctx, cfg.Deadline)
	}
	actx, abort := context.WithCancel(r.ctx)
	defer abort()
	verifyCtx, vabort := context.WithCancel(context.Background())
	defer vabort()
	ln := &link{retry: cfg.Retry, timeout: cfg.RoundTimeout, tolerant: r.tolerant}
	if ln.retry != nil && cfg.Budget != nil {
		ln.retry = ln.retry.WithBudget(cfg.Budget)
	}
	var deniedBefore uint64
	if cfg.Budget != nil {
		deniedBefore = cfg.Budget.Denied()
	}
	// carried restores a round whose verdict the checkpoint already holds:
	// no re-challenge, the server never gets a second draw.
	carried := func(ri int) bool {
		cr := plan[ri].carry
		if cr != nil {
			results[ri].rec = *cr
			results[ri].ok = cr.Completed
		}
		return cr != nil
	}
	roundPool := r.pool
	if r.disp.sequential() {
		roundPool = newPool(1)
	}
	roundPool.forEach(actx, len(plan), func(ri int) {
		if carried(ri) {
			return
		}
		chunk := plan[ri].indices
		rr := &results[ri]
		rs := roundSpan(r.root, ri)
		defer endRound(rs, &rr.rec)
		rr.rec = RoundRecord{Indices: append([]uint64(nil), chunk...)}
		resp, loss, err := r.disp.send(actx, ln, ri, rs, r.kind.request(chunk), &rr.rec)
		switch {
		case err != nil:
			rr.err = fmt.Errorf("core: audit round trip: %w", err)
			abort()
			vabort()
			return
		case loss != nil:
			rr.rec.Outcome, rr.rec.Detail = loss.outcome, loss.detail
			return
		}
		refusal, fails, sigs := r.kind.check(verifyCtx, r.pool, rs, chunk, resp)
		if refusal != "" {
			// A server that decodes our challenge but cannot answer it is
			// treated as detected cheating (e.g. it lost the data it claims
			// to store). This is a protocol-level refusal, not a transport
			// fault: the round trip itself completed — but no item was
			// checked, so the round is not Completed.
			rr.rec.Outcome, rr.rec.Detail = RoundBadProof, refusal
			rr.respFail = &AuditFailure{Check: CheckResponse, Detail: refusal}
			return
		}
		rr.rec.Outcome, rr.rec.Completed, rr.ok = RoundOK, true, true
		rr.fails, rr.sigs = fails, sigs
	})

	// Sequential assembly in round order: identical report for any pool.
	for ri := range results {
		if results[ri].err != nil {
			return results[ri].err
		}
	}
	for ri := range results {
		rr := &results[ri]
		if rr.rec.Outcome != 0 || carried(ri) {
			continue
		}
		// Never dispatched: the audit deadline fired before this round's
		// task ran. It is deadline-lost, never accusatory.
		rr.rec = RoundRecord{
			Indices: append([]uint64(nil), plan[ri].indices...),
			Outcome: RoundTimeout,
			Detail:  "audit deadline expired before dispatch",
		}
	}
	for ri := range results {
		rr := &results[ri]
		if rr.respFail != nil {
			report.Failures = append(report.Failures, *rr.respFail)
		}
		report.Rounds = append(report.Rounds, rr.rec)
		if rr.ok {
			report.EffectiveSampleSize += len(plan[ri].indices)
		}
		// Fresh rounds (not checkpoint carries — their pressure was observed
		// by the original run) feed the overload controller: sheds and
		// timeouts are overload losses, everything else — a plain network
		// fault included — is not.
		if plan[ri].carry == nil {
			cfg.Overload.Observe(rr.rec.Outcome == RoundShed || rr.rec.Outcome == RoundTimeout)
		}
	}
	if cfg.Budget != nil {
		report.BudgetDenied = int(cfg.Budget.Denied() - deniedBefore)
	}
	r.preCheck = len(report.Failures)
	for ri := range results {
		report.Failures = append(report.Failures, results[ri].fails...)
		r.sigChecks = append(r.sigChecks, results[ri].sigs...)
	}
	return nil
}

// settle verifies the deferred block signatures — one §VI aggregate
// check when batched, falling back to individual verification to
// attribute blame — and closes the verdict. In threshold mode the pairing
// is reconstructed from a share quorum and the trail lands in the report;
// a quorum that cannot be reached aborts the audit, it never accuses the
// server. Audit deadlines deliberately do not reach here: answered rounds
// always verify in full.
func (r *auditRun) settle() error {
	if len(r.report.Sampled) == 0 {
		return nil
	}
	trail := r.a.newTrail()
	sigErrs, _, err := r.a.verifySigBatch(context.Background(), r.sigChecks, r.batched, r.pool, thresholdAvoid(r.cfg.Resume), trail)
	if err != nil {
		return err
	}
	r.report.Threshold = trail
	for i, err := range sigErrs {
		if err != nil {
			r.blame(r.sigChecks[i], err)
		}
	}
	return r.conclude()
}

// blame attributes one failed signature check to its sampled index.
func (r *auditRun) blame(sc sigCheck, err error) {
	r.report.Failures = append(r.report.Failures, AuditFailure{
		Index: sc.index, Check: CheckSignature, Detail: err.Error(),
	})
}

// conclude makes the round trail consistent with the failure list — an OK
// round whose indices drew check failures becomes BadProof — and recomputes
// the detection confidence for the sample that actually completed.
func (r *auditRun) conclude() error {
	report := r.report
	if fails := report.Failures[r.preCheck:]; len(fails) > 0 {
		failed := make(map[uint64]bool, len(fails))
		for _, f := range fails {
			failed[f.Index] = true
		}
		for ri := range report.Rounds {
			rec := &report.Rounds[ri]
			for _, idx := range rec.Indices {
				if rec.Outcome == RoundOK && failed[idx] {
					rec.Outcome = RoundBadProof
				}
			}
		}
	}
	if r.cfg.Analysis != nil {
		conf, err := sampling.DetectionConfidence(*r.cfg.Analysis, report.EffectiveSampleSize)
		if err != nil {
			return fmt.Errorf("core: recomputing detection confidence: %w", err)
		}
		report.AchievedConfidence = conf
	}
	return nil
}

// finish stamps the DA-side duration and records the run's instruments.
func (r *auditRun) finish() {
	r.report.Elapsed = r.a.clock().Sub(r.start)
	r.a.obs.finishAudit(r.typ, r.report)
}

// audit is the whole single-audit path after draw.
func (r *auditRun) audit() (*AuditReport, error) {
	if err := r.rounds(); err != nil {
		return nil, err
	}
	if err := r.settle(); err != nil {
		return nil, err
	}
	r.finish()
	return r.report, nil
}
