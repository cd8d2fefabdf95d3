package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"seccloud/internal/daemon"
)

// traceWarmOps single-client ops run before the measured passes.
const traceWarmOps = 5

// runTraced is the traced run: per-layer metrics only. It sets up once
// with the span decorators in place, runs a short two-client main phase
// with tracing off (tails and pool behaviour under the real concurrency),
// then drives ONE closed-loop client through 2 × traceOps ops in
// alternating blocks — a block with tracing off, a block with tracing on —
// so spans nest without overlap and the traced and untraced op times come
// from the same minute of the same machine. Unit times of every layer's
// primitives are measured last, through the layers' public functions.
func (h *harness) runTraced(sp *spec, seed int64, total time.Duration, envLine string) (*result, error) {
	res := &result{correct: true, metrics: make(map[string]metric)}
	tr := newTracer(h.now)
	e, err := newEnv(sp, seed, h, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()

	// Two clients, tracing off: the latency medians and tails, which the
	// end-to-end run is too short to gate on, reported as information.
	samples := e.runPhase(h.mainPhase(sp, total/2), seed+1000)
	tails := map[opKind][]float64{}
	for _, s := range samples {
		res.attempted++
		if s.err != nil {
			res.failed++
			res.notes = append(res.notes, fmt.Sprintf("failed %s op: %v", s.kind, s.err))
			continue
		}
		tails[s.kind] = append(tails[s.kind], ms(s.dur()))
	}
	tail := func(k opKind, p float64) float64 {
		if len(tails[k]) == 0 {
			return 0
		}
		return percentile(tails[k], p)
	}
	res.set("core.agency.audit_p50_ms", tail(opAudit, 0.50), "ms", len(tails[opAudit]))
	res.set("core.agency.audit_p95_ms", tail(opAudit, 0.95), "ms", len(tails[opAudit]))
	res.set("core.agency.audit_p99_ms", tail(opAudit, 0.99), "ms", len(tails[opAudit]))
	res.set("core.agency.audit_max_ms", tail(opAudit, 1), "ms", len(tails[opAudit]))
	res.set("core.user.update_p50_ms", tail(opUpdate, 0.50), "ms", len(tails[opUpdate]))
	res.set("core.user.update_p95_ms", tail(opUpdate, 0.95), "ms", len(tails[opUpdate]))
	res.set("core.user.update_p99_ms", tail(opUpdate, 0.99), "ms", len(tails[opUpdate]))
	res.set("core.user.job_p50_ms", tail(opJob, 0.50), "ms", len(tails[opJob]))
	res.set("core.user.job_p95_ms", tail(opJob, 0.95), "ms", len(tails[opJob]))
	res.set("core.user.job_p99_ms", tail(opJob, 0.99), "ms", len(tails[opJob]))
	res.set("core.user.store_p50_ms", tail(opStore, 0.50), "ms", len(tails[opStore]))

	// One client, alternating untraced and traced blocks. A block is one
	// op of each kind the main phase has (the mix: update, then audit).
	kinds := []opKind{sp.main[0]}
	if sp.main[1] != sp.main[0] {
		kinds = append(kinds, sp.main[1])
	}
	rng := rand.New(rand.NewSource(seed + 3000))
	for i := 0; i < traceWarmOps; i++ {
		if s := e.do(kinds[i%len(kinds)], 0, 0, rng); s.err != nil {
			return nil, fmt.Errorf("warm-up %s op: %w", s.kind, s.err)
		}
	}
	untraced := map[opKind][]float64{}
	traced := map[opKind][]float64{}
	ref := h.spd.probe()
	var mem struct {
		ops                     int
		mallocs, bytes, pauseNS uint64
		cycles                  uint32
	}
	blocks := 2 * sp.traceOps / len(kinds)
	for b := 0; b < blocks; b++ {
		on := b%2 == 1
		tr.enabled.Store(on)
		for _, k := range kinds {
			var before, after runtime.MemStats
			ref.tick()
			if !on {
				runtime.ReadMemStats(&before)
			}
			s := e.do(k, 0, 0, rng)
			res.attempted++
			if s.err != nil {
				res.failed++
				res.notes = append(res.notes, fmt.Sprintf("failed %s op: %v", s.kind, s.err))
				continue
			}
			if on {
				traced[k] = append(traced[k], ms(s.dur()))
				continue
			}
			runtime.ReadMemStats(&after)
			untraced[k] = append(untraced[k], ms(s.dur()))
			mem.ops++
			mem.mallocs += after.Mallocs - before.Mallocs
			mem.bytes += after.TotalAlloc - before.TotalAlloc
			mem.pauseNS += after.PauseTotalNs - before.PauseTotalNs
			mem.cycles += after.NumGC - before.NumGC
		}
	}
	tr.enabled.Store(false)
	if mem.ops == 0 {
		return nil, fmt.Errorf("no untraced op completed")
	}
	res.set("go.allocs_per_op", float64(mem.mallocs)/float64(mem.ops), "count", mem.ops)
	res.set("go.alloc_bytes_per_op", float64(mem.bytes)/float64(mem.ops), "B", mem.ops)
	res.set("go.gc_pause_ms_total", float64(mem.pauseNS)/1e6, "ms", mem.ops)
	res.set("go.gc_cycles", float64(mem.cycles), "count", mem.ops)
	var overhead float64
	for _, k := range kinds {
		if len(traced[k]) == 0 || len(untraced[k]) == 0 {
			return nil, fmt.Errorf("no %s op completed on one side of the overhead comparison", k)
		}
		overhead += median(traced[k]) / median(untraced[k]) / float64(len(kinds))
	}
	res.set("trace.overhead_ratio", overhead, "ratio", mem.ops)
	// Per-layer times are wall-clock, so that span self times sum to the
	// op; the speed the machine ran at is reported beside them.
	nTimings, speed, _, _ := h.spd.summary()
	res.set("bench.machine_speed", speed, "ratio", nTimings)

	// Join ops with their spans and hold the split to its promise.
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	opTraces := append([]*opTrace(nil), tr.ops...)
	tr.mu.Unlock()
	selfs, err := selfTimes(spans)
	if err != nil {
		return nil, fmt.Errorf("span tree: %w", err)
	}
	var rows []opRow
	for _, ot := range opTraces {
		st := selfs[ot.id]
		if st == nil {
			return nil, fmt.Errorf("op %d has no spans", ot.id)
		}
		sum := st.client + st.daemon + st.server
		if diff := (sum - ot.wall).Abs(); float64(diff) > 0.01*float64(ot.wall) {
			res.fail("op %d: self times sum to %v, wall time is %v", ot.id, sum, ot.wall)
		}
		rows = append(rows, opRow{opTrace: ot, self: st})
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("the traced pass recorded no op")
	}
	res.notes = append(res.notes, fmt.Sprintf("%d traced ops, %d spans; client + daemon + server self time = op wall time on every op", len(rows), len(spans)))

	var pool daemon.PoolStats
	for _, t := range e.trans {
		c, err := t.Dial(e.ln.Addr())
		if err != nil {
			return nil, err
		}
		if dc, ok := c.(*daemon.Client); ok {
			st := dc.Pool().Stats()
			pool.Dials += st.Dials
			pool.Reuses += st.Reuses
			pool.Waits += st.Waits
		}
	}
	res.set("daemon.dials_total", float64(pool.Dials), "count", 1)
	res.set("daemon.pool_reuse_ratio", float64(pool.Reuses)/float64(pool.Reuses+pool.Dials), "ratio", 1)
	res.set("daemon.pool_waits_total", float64(pool.Waits), "count", 1)

	var u unitTimes
	if err := h.measureCrypto(&u, sp.params, seed); err != nil {
		return nil, err
	}
	if err := h.measureTree(&u, e); err != nil {
		return nil, err
	}
	if err := h.measureHandshake(&u, e.ln.Addr()); err != nil {
		return nil, err
	}
	if err := h.measureRecovery(&u, e); err != nil {
		return nil, err
	}
	if err := h.measureStore(&u, e); err != nil { // crashes the server: last
		return nil, err
	}
	layerMetrics(res, sp, &u, rows, spans)

	path, err := tr.write(h.outDir, sp.name, seed, envLine)
	if err != nil {
		return nil, err
	}
	res.notes = append(res.notes, "spans written to "+path)
	if res.failed > 0 {
		res.fail("%d of %d operations failed", res.failed, res.attempted)
	}
	return res, nil
}
