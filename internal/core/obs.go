package core

import (
	"strconv"

	"seccloud/internal/obs"
)

// auditObs holds the DA-side instrument cells, pre-resolved once at
// WithObs time. A nil *auditObs (no hub configured) no-ops everywhere:
// the audit hot path pays one pointer comparison per record site.
//
// Instrument semantics: counters are recorded per *returned report* —
// a resumed audit recounts its carried rounds exactly as the caller
// re-accumulates them from the report, so registry-derived totals match
// report-derived totals by construction.
type auditObs struct {
	tr         *obs.Tracer
	rounds     *obs.CounterVec   // audit_rounds_total{type,verdict}
	audits     *obs.CounterVec   // audits_total{type,result}
	duration   *obs.HistogramVec // audit_seconds{type}
	checkFails *obs.CounterVec   // audit_check_failures_total{check}
	inflight   *obs.Gauge        // audit_pool_inflight
	failovers  *obs.CounterVec   // fleet_failovers_total{reason}
	quorums    *obs.CounterVec   // fleet_quorum_verdicts_total{class}
	repairs    *obs.CounterVec   // fleet_repairs_total{stage}
	degraded   *obs.CounterVec   // audits_degraded_total{type}
	hedges     *obs.CounterVec   // audit_hedged_rounds_total{type}
	recoveries *obs.Counter      // threshold_quorum_recoveries_total
	byzantine  *obs.Counter      // threshold_byzantine_partials_total
}

func newAuditObs(h *obs.Hub) *auditObs {
	if h == nil {
		return nil
	}
	return &auditObs{
		tr:         h.Tracer(),
		rounds:     h.Counter("audit_rounds_total", "type", "verdict"),
		audits:     h.Counter("audits_total", "type", "result"),
		duration:   h.Histogram("audit_seconds", nil, "type"),
		checkFails: h.Counter("audit_check_failures_total", "check"),
		inflight:   h.Gauge("audit_pool_inflight").With(),
		failovers:  h.Counter("fleet_failovers_total", "reason"),
		quorums:    h.Counter("fleet_quorum_verdicts_total", "class"),
		repairs:    h.Counter("fleet_repairs_total", "stage"),
		degraded:   h.Counter("audits_degraded_total", "type"),
		hedges:     h.Counter("audit_hedged_rounds_total", "type"),
		recoveries: h.Counter("threshold_quorum_recoveries_total").With(),
		byzantine:  h.Counter("threshold_byzantine_partials_total").With(),
	}
}

// quorumRecoveries counts share-holders that failed mid-collection but
// were replaced while still reaching quorum.
func (o *auditObs) quorumRecoveries(n int) {
	if o == nil || n <= 0 {
		return
	}
	o.recoveries.Add(uint64(n))
}

// byzantinePartial counts one commitment-failed (or refused/misshapen)
// partial attributed to its share-holder.
func (o *auditObs) byzantinePartial() {
	if o == nil {
		return
	}
	o.byzantine.Inc()
}

// degradedAudit counts one overload-degraded audit of the given type.
func (o *auditObs) degradedAudit(typ string) {
	if o == nil {
		return
	}
	o.degraded.With(typ).Inc()
}

// tracer returns the span tracer, nil when tracing is off.
func (o *auditObs) tracer() *obs.Tracer {
	if o == nil {
		return nil
	}
	return o.tr
}

// startAudit opens the root span of one audit's causal tree.
func (o *auditObs) startAudit(typ string, kv ...string) *obs.Span {
	return o.tracer().Start("audit."+typ, kv...)
}

// roundSpan opens one challenge round's child span.
func roundSpan(root *obs.Span, ri int) *obs.Span {
	return root.Child("round", "round", strconv.Itoa(ri))
}

// endRound annotates a round span with its verdict and closes it.
func endRound(rs *obs.Span, rec *RoundRecord) {
	if rs == nil {
		return
	}
	rs.Annotate("verdict", rec.Outcome.String())
	if rec.Attempts > 0 {
		rs.Annotate("attempts", strconv.Itoa(rec.Attempts))
	}
	if rec.FailedOver {
		rs.Annotate("failed_over", "true")
	}
	if rec.Hedged {
		rs.Annotate("hedged", "true")
	}
	rs.End()
}

// finishAudit records one returned report: per-round verdict counters,
// per-check failure attribution, the overall result, the DA-side duration
// and, for fleet audits, failover hops by reason, quorum verdicts by class
// and repair progression (every executed repair counts "attempted", then
// "applied" and "confirmed" as far as it got).
func (o *auditObs) finishAudit(typ string, r *AuditReport) {
	if o == nil {
		return
	}
	for i := range r.Rounds {
		o.rounds.With(typ, r.Rounds[i].Outcome.String()).Inc()
		if r.Rounds[i].Hedged {
			o.hedges.With(typ).Inc()
		}
	}
	for i := range r.Failures {
		o.checkFails.With(r.Failures[i].Check.String()).Inc()
	}
	result := "valid"
	if !r.Valid() {
		result = "invalid"
	}
	o.audits.With(typ, result).Inc()
	o.duration.With(typ).Observe(r.Elapsed.Seconds())
	for _, e := range r.Failovers {
		o.failovers.With(e.Reason).Inc()
	}
	for _, q := range r.Quorums {
		o.quorums.With(q.Class.String()).Inc()
	}
	for _, rr := range r.Repairs {
		o.repairs.With("attempted").Inc()
		if rr.Applied {
			o.repairs.With("applied").Inc()
		}
		if rr.Confirmed {
			o.repairs.With("confirmed").Inc()
		}
	}
}

// ObserveFleet registers pull-based breaker gauges for every replica:
// fleet_breaker_state{replica} (1 = closed, 2 = open, 3 = half-open) and
// fleet_breaker_trips{replica} are refreshed from the live breakers on
// each scrape, so the audit path pays nothing. No-op when either side is
// nil.
func ObserveFleet(h *obs.Hub, f *Fleet) {
	reg := h.Registry()
	if reg == nil || f == nil {
		return
	}
	states := make([]*obs.Gauge, f.NumServers())
	trips := make([]*obs.Gauge, f.NumServers())
	stateVec := reg.Gauge("fleet_breaker_state", "replica")
	tripVec := reg.Gauge("fleet_breaker_trips", "replica")
	for i := range states {
		states[i] = stateVec.With(strconv.Itoa(i))
		trips[i] = tripVec.With(strconv.Itoa(i))
	}
	reg.OnScrape(func() {
		for i, b := range f.health.breakers {
			states[i].Set(float64(b.State()))
			trips[i].Set(float64(b.Trips()))
		}
	})
}
