package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"seccloud/internal/obs"
	"seccloud/internal/transport"
)

// SchedulerConfig shapes a long-lived multi-tenant audit scheduler.
type SchedulerConfig struct {
	// Workers bounds the drain's verification concurrency (challenge
	// rounds in flight plus per-index check fan-out); 0 falls back to the
	// agency default, ≤ 1 runs sequentially. The worker count never
	// changes report contents.
	Workers int
	// FlushLimit caps the signature checks folded into one cross-tenant
	// aggregate, bounding how many sessions one flush's verdict latency
	// rides on; ≤ 0 means one flush for the whole drain.
	FlushLimit int
	// SampleSize overrides tenants whose registered budget is 0; ≤ 0
	// means 4.
	SampleSize int
	// Rng drives every session's challenge draw (deterministic sims and
	// benches); nil derives a crypto-seeded PRNG per drain.
	Rng *rand.Rand
	// Overload, when set, degrades per-session samples along the
	// Theorem-3 curve while the observed shed/timeout rate is above the
	// controller's threshold, exactly as single-tenant audits do.
	Overload *OverloadController
}

func (c SchedulerConfig) sampleSize() int {
	if c.SampleSize <= 0 {
		return 4
	}
	return c.SampleSize
}

// TenantVerdict is one drained session's outcome.
type TenantVerdict struct {
	UserID string
	JobID  string
	Report *AuditReport
}

// MultiTenantReport is the outcome of one scheduler drain.
type MultiTenantReport struct {
	// Verdicts holds one entry per enqueued session, in enqueue order.
	Verdicts []TenantVerdict
	// BatchedSigItems counts block signatures folded into aggregate checks.
	BatchedSigItems int
	// Flushes counts aggregate verifications performed: ⌈items/FlushLimit⌉.
	Flushes int
	// BlameFallbacks counts flushes whose aggregate failed and fell back
	// to per-item verification to attribute blame.
	BlameFallbacks int
}

// Valid reports whether every session passed.
func (m *MultiTenantReport) Valid() bool {
	for i := range m.Verdicts {
		if !m.Verdicts[i].Report.Valid() {
			return false
		}
	}
	return true
}

// Fingerprint serializes everything deterministic about the drain —
// verdict order, per-session samples, round outcomes, and failures — so
// tests and benches can assert worker-count independence byte-for-byte.
func (m *MultiTenantReport) Fingerprint() string {
	var b strings.Builder
	for i := range m.Verdicts {
		v := &m.Verdicts[i]
		fmt.Fprintf(&b, "%s/%s sample=%v planned=%d effective=%d degraded=%v\n",
			v.UserID, v.JobID, v.Report.Sampled, v.Report.PlannedSampleSize,
			v.Report.EffectiveSampleSize, v.Report.DegradedByOverload)
		for _, rr := range v.Report.Rounds {
			fmt.Fprintf(&b, "  round %v %s\n", rr.Indices, rr.Outcome)
		}
		for _, f := range v.Report.Failures {
			fmt.Fprintf(&b, "  fail idx=%d check=%s detail=%s\n", f.Index, f.Check, f.Detail)
		}
	}
	fmt.Fprintf(&b, "items=%d flushes=%d fallbacks=%d\n",
		m.BatchedSigItems, m.Flushes, m.BlameFallbacks)
	return b.String()
}

// schedObs holds the scheduler's instrument cells (nil = no hub).
type schedObs struct {
	sessions  *obs.CounterVec // tenant_audit_sessions_total{result}
	flushes   *obs.Counter    // tenant_sig_flushes_total
	items     *obs.Counter    // tenant_sig_items_total
	fallbacks *obs.Counter    // tenant_blame_fallbacks_total
}

func newSchedObs(h *obs.Hub) *schedObs {
	if h == nil {
		return nil
	}
	return &schedObs{
		sessions:  h.Counter("tenant_audit_sessions_total", "result"),
		flushes:   h.Counter("tenant_sig_flushes_total").With(),
		items:     h.Counter("tenant_sig_items_total").With(),
		fallbacks: h.Counter("tenant_blame_fallbacks_total").With(),
	}
}

// AuditScheduler is the agency's long-lived multi-tenant front end: a work
// queue of per-tenant challenge sessions drained through the bounded pool,
// with every session's block-signature checks deferred into cross-tenant
// §VI aggregate verifications. It is the refactor away from per-audit
// entry points — the scheduler owns the tenant registry, validates each
// delegation once at onboarding, and amortizes the pairing cost of
// signature verification across however many tenants are in the queue.
//
// Determinism contract: every session's challenge set is drawn from the
// shared RNG sequentially in enqueue order BEFORE the fan-out, results
// land in per-session slots, verdicts are assembled in enqueue order, and
// flush boundaries depend only on enqueue order — so for a fixed seed the
// MultiTenantReport.Fingerprint is identical at every worker count.
type AuditScheduler struct {
	agency   *Agency
	registry *TenantRegistry
	cfg      SchedulerConfig
	obs      *schedObs

	mu    sync.Mutex
	queue []string // user IDs, enqueue order
}

// NewAuditScheduler builds a scheduler over an agency and its registry.
func NewAuditScheduler(a *Agency, reg *TenantRegistry, cfg SchedulerConfig) *AuditScheduler {
	return &AuditScheduler{agency: a, registry: reg, cfg: cfg}
}

// WithObs wires the scheduler's counters into a hub. Nil hub no-ops.
func (s *AuditScheduler) WithObs(h *obs.Hub) *AuditScheduler {
	s.obs = newSchedObs(h)
	return s
}

// Registry exposes the tenant registry (registration, lookups).
func (s *AuditScheduler) Registry() *TenantRegistry { return s.registry }

// Onboard materializes a tenant for auditing: the delegation is validated
// ONCE here (warrant, root signature, commitment rebuild — the per-call
// preamble the single-tenant entry points repeat on every audit, there
// with the signatures found in the agency's memo after the first) and
// cached in the registry, and the tenant's Q_ID hash-to-point is
// warmed so no audit session pays it. budget ≤ 0 keeps the registered
// budget. Unregistered IDs are registered implicitly.
func (s *AuditScheduler) Onboard(client transport.Client, d *JobDelegation, budget int) error {
	if err := s.agency.AcceptDelegation(d); err != nil {
		return fmt.Errorf("core: onboarding %s: %w", d.UserID, err)
	}
	s.registry.Register(d.UserID, len(d.Tasks), budget)
	if err := s.registry.attach(d.UserID, client, d, budget); err != nil {
		return err
	}
	s.agency.scheme.Params().QID(d.UserID)
	return nil
}

// Enqueue appends one audit session for a tenant. The tenant must be
// onboarded by the time Drain runs.
func (s *AuditScheduler) Enqueue(userID string) {
	s.mu.Lock()
	s.queue = append(s.queue, userID)
	s.mu.Unlock()
}

// Pending counts queued sessions.
func (s *AuditScheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// session is the per-slot state of one drained audit session.
type session struct {
	userID string
	d      *JobDelegation
	run    *auditRun
	err    error // terminal error from the session's rounds
}

// Drain audits every queued session and empties the queue. Each session is
// one pass through the audit round engine under the scheduler's two
// policies — one round with one attempt, and a round-trip error of any
// kind costs that tenant's round, never the drain — with the engine's
// signature settlement replaced by cross-tenant aggregate flushes after
// the fan-out. A tenant whose round is lost to the
// network/overload gets a non-accusatory lost round, exactly like
// single-tenant audits; a tenant that was never onboarded fails the whole
// drain (caller error).
func (s *AuditScheduler) Drain() (*MultiTenantReport, error) {
	s.mu.Lock()
	queue := s.queue
	s.queue = nil
	s.mu.Unlock()

	a := s.agency
	rng, err := a.challengeRNG(s.cfg.Rng)
	if err != nil {
		return nil, err
	}
	p := a.auditPool(s.cfg.Workers)
	// The round policy, spelled out: the whole sample in one round, sent once.
	cfg := &AuditConfig{Rounds: 1, Retry: nil, BatchSignatures: true, Overload: s.cfg.Overload}

	// Sequential pre-pass in enqueue order: resolve handles and draw every
	// challenge set before any fan-out, so samples are worker-independent.
	sessions := make([]*session, len(queue))
	for i, userID := range queue {
		client, d, budget, err := s.registry.Session(userID)
		if err != nil {
			return nil, err
		}
		if budget <= 0 {
			budget = s.cfg.sampleSize()
		}
		if budget > len(d.Tasks) {
			budget = len(d.Tasks)
		}
		t, degraded := s.cfg.Overload.PlanSample(budget)
		run := &auditRun{
			a: a, typ: "tenant", jobID: d.JobID, cfg: cfg, pool: p, disp: direct{client},
			kind:    &jobKind{a: a, d: d, deferSigs: true},
			batched: true, tolerant: true,
		}
		run.begin(SampleIndices(rng, len(d.Tasks), t), budget, degraded)
		sessions[i] = &session{userID: userID, d: d, run: run}
	}

	// Fan-out: each session's challenge round trip plus per-index checks.
	// Each slot writes only its own state.
	p.forEach(context.Background(), len(sessions), func(i int) {
		sessions[i].err = sessions[i].run.rounds()
	})

	// Sequential assembly in enqueue order, then the deferred flushes.
	out := &MultiTenantReport{Verdicts: make([]TenantVerdict, len(sessions))}
	var deferred []sigCheck
	var owners []int // deferred[k] belongs to sessions[owners[k]]
	for i, sess := range sessions {
		if sess.err != nil {
			return nil, sess.err
		}
		out.Verdicts[i] = TenantVerdict{UserID: sess.userID, JobID: sess.d.JobID, Report: sess.run.report}
		for _, sc := range sess.run.sigChecks {
			deferred = append(deferred, sc)
			owners = append(owners, i)
		}
	}
	out.BatchedSigItems = len(deferred)

	limit := s.cfg.FlushLimit
	if limit <= 0 {
		limit = len(deferred)
	}
	for lo := 0; lo < len(deferred); lo += limit {
		hi := min(lo+limit, len(deferred))
		if err := s.flush(out, sessions, deferred[lo:hi], owners[lo:hi], p); err != nil {
			return nil, err
		}
	}

	// Keep each session's evidence trail consistent with the failures the
	// flushes attributed after the fact.
	for _, sess := range sessions {
		if err := sess.run.conclude(); err != nil {
			return nil, err
		}
	}

	if s.obs != nil {
		for i := range out.Verdicts {
			result := "valid"
			switch {
			case !out.Verdicts[i].Report.Valid():
				result = "invalid"
			case out.Verdicts[i].Report.EffectiveSampleSize == 0:
				result = "lost"
			}
			s.obs.sessions.With(result).Inc()
		}
	}
	return out, nil
}

// flush runs one aggregate verification over a chunk of deferred checks
// and attributes any failures to the owning tenant, job, and index. An
// empty chunk is skipped outright — dvs.BatchVerifyRandomized now treats
// an empty batch as an error (ErrEmptyBatch), and an all-shed drain must
// not manufacture either a verdict or a failure out of nothing.
func (s *AuditScheduler) flush(
	out *MultiTenantReport, sessions []*session,
	chunk []sigCheck, owners []int, p *pool,
) error {
	if len(chunk) == 0 {
		return nil
	}
	out.Flushes++
	errs, fellBack, terr := s.agency.verifySigBatch(context.Background(), chunk, true, p, nil, nil)
	if terr != nil {
		// Terminal (threshold quorum unavailable): the drain aborts
		// without verdicts rather than attributing blame it cannot prove.
		return terr
	}
	if fellBack {
		out.BlameFallbacks++
	}
	for k, err := range errs {
		if err == nil {
			continue
		}
		sess := sessions[owners[k]]
		sess.run.blame(chunk[k], fmt.Errorf("tenant %s job %s index %d: %v",
			sess.userID, sess.d.JobID, chunk[k].index, err))
	}
	if s.obs != nil {
		s.obs.flushes.Inc()
		s.obs.items.Add(uint64(len(chunk)))
		if fellBack {
			s.obs.fallbacks.Inc()
		}
	}
	return nil
}
