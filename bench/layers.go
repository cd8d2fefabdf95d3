package main

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"time"

	"seccloud/internal/core"
	"seccloud/internal/curve"
	"seccloud/internal/daemon"
	"seccloud/internal/dvs"
	"seccloud/internal/funcs"
	"seccloud/internal/ibc"
	"seccloud/internal/merkle"
	"seccloud/internal/ops"
	"seccloud/internal/pairing"
	"seccloud/internal/store"
	"seccloud/internal/wire"
)

// unit times fn: one call sizes the batch, then the median of five
// batch means is the per-call time. Medians because a unit time that
// absorbed a GC cycle or a scheduler stall would be multiplied by
// thousands of ops in the busy-time products below.
func (h *harness) unit(fn func()) time.Duration {
	fn() // warm caches and lazy set-up
	t0 := h.now()
	fn()
	one := h.now().Sub(t0)
	const batches = 5
	n := 1
	if one > 0 {
		n = int(h.unitBudget / batches / one)
	}
	if n < 1 {
		n = 1
	}
	if n > 20000 {
		n = 20000
	}
	per := make([]float64, batches)
	for b := range per {
		t0 := h.now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = float64(h.now().Sub(t0)) / float64(n)
	}
	return time.Duration(median(per))
}

// allocs reports heap allocations and bytes per call of fn.
func allocs(fn func()) (count, bytes float64) {
	const n = 5
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / n, float64(b.TotalAlloc-a.TotalAlloc) / n
}

// unitTimes are the Table I of this system: primitive costs measured by
// calling each layer's public functions with the workload's parameters.
type unitTimes struct {
	fp2Mul, fp2Square, fp2Inv, fp2Exp             time.Duration
	scalarMult, hashToPoint, sumScalarMultPerTerm time.Duration
	scalarMultAllocs                              float64
	pair, precompPair, pairProdPerTerm, finalExp  time.Duration
	pairAllocs, pairAllocBytes                    float64
	signDesignated, verify, batchVerifyPerItem    time.Duration
	verifierCacheLen                              int
	merkleBuild, merkleProve, merkleVerify        time.Duration
	funcsEvalPerTask                              time.Duration
	append, appendNoSync, snapshot, openReplay    time.Duration
	recover                                       time.Duration
	replayedRecords, snapshotBytes                int
	handshake                                     time.Duration
}

const (
	sumScalarTerms = 33
	pairProdTerms  = 8
	batchItems     = 33
)

func (h *harness) measureCrypto(u *unitTimes, paramSet string, seed int64) error {
	pp, err := pairing.ByName(paramSet)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	g := pp.G1()
	fp := g.FieldCtx()
	randFp2 := func() (*big.Int, *big.Int) {
		a, _ := fp.RandFp(rng)
		b, _ := fp.RandFp(rng)
		return a, b
	}
	xa, xb := randFp2()
	ya, yb := randFp2()
	x, y := fp.NewFp2(xa, xb), fp.NewFp2(ya, yb)
	exp, _ := g.Scalars().Rand(rng) // group-order sized: 160 bits at SS512
	u.fp2Mul = h.unit(func() { fp.Fp2Mul(x, y) })
	u.fp2Square = h.unit(func() { fp.Fp2Square(x) })
	u.fp2Inv = h.unit(func() { _, _ = fp.Fp2Inv(x) })
	u.fp2Exp = h.unit(func() { fp.Fp2Exp(x, exp) })
	// The final exponentiation is private to pairing; its public pieces
	// are one inversion, one multiplication and an exponentiation by the
	// cofactor.
	cof := g.Cofactor()
	u.finalExp = h.unit(func() {
		inv, _ := fp.Fp2Inv(x)
		fp.Fp2Exp(fp.Fp2Mul(fp.Fp2Conj(x), inv), cof)
	})

	pts := make([]*curve.Point, sumScalarTerms)
	ks := make([]*big.Int, sumScalarTerms)
	for i := range pts {
		if pts[i], _, err = g.RandPoint(rng); err != nil {
			return err
		}
		if ks[i], err = g.Scalars().Rand(rng); err != nil {
			return err
		}
	}
	u.scalarMult = h.unit(func() { g.ScalarMult(pts[0], ks[0]) })
	u.scalarMultAllocs, _ = allocs(func() { g.ScalarMult(pts[0], ks[0]) })
	msg := []byte("bench/hash-to-point")
	u.hashToPoint = h.unit(func() { g.HashToPoint("bench", msg) })
	u.sumScalarMultPerTerm = h.unit(func() { _, _ = g.SumScalarMult(pts, ks) }) / sumScalarTerms

	u.pair = h.unit(func() { pp.Pair(pts[0], pts[1]) })
	u.pairAllocs, u.pairAllocBytes = allocs(func() { pp.Pair(pts[0], pts[1]) })
	pc := pp.Precompute(pts[0])
	u.precompPair = h.unit(func() { pc.Pair(pts[1]) })
	u.pairProdPerTerm = h.unit(func() { _, _ = pp.PairProd(pts[:pairProdTerms], pts[pairProdTerms:2*pairProdTerms]) }) / pairProdTerms

	// dvs on real block messages: sign for two verifiers (server and DA),
	// verify one, batch-verify 33.
	sio, err := ibc.Setup(pp, rng)
	if err != nil {
		return err
	}
	scheme := dvs.NewScheme(sio.Params())
	signer, err := sio.Extract("user:unit")
	if err != nil {
		return err
	}
	verifier, err := sio.Extract(agencyID)
	if err != nil {
		return err
	}
	block := make([]byte, 256)
	rng.Read(block)
	items := make([]dvs.BatchItem, batchItems)
	for i := range items {
		m := core.BlockMessage(uint64(i), block)
		sigs, err := scheme.SignDesignated(signer, m, rng, serverID, agencyID)
		if err != nil {
			return err
		}
		items[i] = dvs.NewBatchItem(m, sigs[1])
	}
	m0 := core.BlockMessage(0, block)
	u.signDesignated = h.unit(func() { _, _ = scheme.SignDesignated(signer, m0, rng, serverID, agencyID) })
	var verr error
	u.verify = h.unit(func() {
		if e := scheme.Verify(items[0].Sig, *items[0].Msg, verifier); e != nil {
			verr = e
		}
	})
	u.batchVerifyPerItem = h.unit(func() {
		if e := scheme.BatchVerifyRandomized(items, verifier, rng); e != nil {
			verr = e
		}
	}) / batchItems
	if verr != nil {
		return fmt.Errorf("dvs unit timing: %w", verr)
	}
	u.verifierCacheLen = scheme.VerifierCacheLen()
	return nil
}

// measureTree times merkle and funcs on the workload's own job: the tree
// has one leaf per sub-task and the evaluations are the job's specs.
func (h *harness) measureTree(u *unitTimes, e *env) error {
	p := e.users[0]
	leaves, err := core.CommitmentLeaves(p.deleg.Tasks, p.deleg.Results)
	if err != nil {
		return err
	}
	var tree *merkle.Tree
	u.merkleBuild = h.unit(func() { tree, _ = merkle.BuildParallel(leaves, 1) })
	root := tree.Root()
	idx := len(leaves) / 3
	var proof *merkle.Proof
	u.merkleProve = h.unit(func() { proof, _ = tree.Prove(idx) })
	var verr error
	u.merkleVerify = h.unit(func() {
		if e := merkle.VerifyProof(root, leaves[idx], proof); e != nil {
			verr = e
		}
	})
	if verr != nil {
		return verr
	}
	reg := funcs.NewRegistry()
	tasks := p.job.SubTasks
	if len(tasks) > 512 {
		tasks = tasks[:512]
	}
	inputs := make([][][]byte, len(tasks))
	for i, st := range tasks {
		for _, pos := range st.Positions {
			inputs[i] = append(inputs[i], p.blocks[pos])
		}
	}
	u.funcsEvalPerTask = h.unit(func() {
		for i, st := range tasks {
			_, _ = reg.Eval(st.Spec, inputs[i])
		}
	}) / time.Duration(len(tasks))
	return nil
}

// measureStore times the log directly with the payload sizes the counting
// FS saw the server write, then replays the crashed server's directory.
func (h *harness) measureStore(u *unitTimes, e *env) error {
	appendLen := int(e.fs.lastAppendBytes.Load())
	// snapLen stays 0 on a workload that never compacted: there is no
	// snapshot to price.
	snapLen := int(e.fs.lastSnapBytes.Load())
	u.snapshotBytes = snapLen
	for _, sync := range []bool{true, false} {
		dir, err := os.MkdirTemp(e.dir, "unit-")
		if err != nil {
			return err
		}
		l, _, err := store.Open(store.Config{Dir: dir, NoSync: !sync})
		if err != nil {
			return err
		}
		payload := make([]byte, appendLen)
		var aerr error
		d := h.unit(func() {
			if _, err := l.Append(1, payload); err != nil {
				aerr = err
			}
		})
		if sync {
			u.append = d
		} else {
			u.appendNoSync = d
		}
		if sync && snapLen > 0 {
			// A snapshot needs a new LSN to cover, so each one follows an
			// append, whose time is taken back out.
			snap := make([]byte, snapLen)
			u.snapshot = h.unit(func() {
				if _, err := l.Append(1, payload); err != nil {
					aerr = err
				}
				if err := l.Snapshot(snap); err != nil {
					aerr = err
				}
			}) - u.append
		}
		if err := l.Close(); err != nil {
			return err
		}
		if aerr != nil {
			return fmt.Errorf("store unit timing: %w", aerr)
		}
	}

	e.srv.Crash()
	_ = e.srv.Close()
	var rerr error
	u.openReplay = h.unit(func() {
		l, rec, err := store.Open(store.Config{Dir: e.srvDir})
		if err != nil {
			rerr = err
			return
		}
		u.replayedRecords = len(rec.Records)
		_ = l.Close()
	})
	return rerr
}

// measureRecovery times core.NewServer on the crashed server's directory
// — everything the run wrote — recoverReps times over and keeps the median,
// after one reopen that warms the page cache. (The fastest of nine was
// tried first: an extreme of few samples, it read 12–25 % apart from run to
// run where their median read 9–16 %.)
func (h *harness) measureRecovery(u *unitTimes, e *env) error {
	var times []float64
	for i := 0; i <= h.recoverReps; i++ {
		took, err := e.reopen()
		if err != nil {
			return err
		}
		if i > 0 {
			times = append(times, float64(took))
		}
	}
	u.recover = time.Duration(median(times))
	return nil
}

// measureHandshake times a fresh dial to the listener: TCP connect plus
// the SECW version handshake.
func (h *harness) measureHandshake(u *unitTimes, addr string) error {
	var herr error
	u.handshake = h.unit(func() {
		pool := daemon.NewPool(daemon.PoolConfig{Addr: addr})
		conn, err := pool.Get(context.Background())
		if err != nil {
			herr = err
		} else {
			pool.Put(conn)
		}
		_ = pool.Close()
	})
	return herr
}

// wireCost is the codec's price for the messages of one op.
type wireCost struct {
	encode, decode time.Duration
	decodeAllocs   float64
	frames         int
	bytes, payload int
}

// priceWire encodes and decodes every captured message three times and
// keeps each message's median.
func priceWire(now clock, exchanges []exchange) wireCost {
	var c wireCost
	for _, ex := range exchanges {
		for _, m := range []wire.Message{ex.req, ex.resp} {
			if m == nil {
				continue
			}
			var enc, dec []float64
			var data []byte
			for rep := 0; rep < 3; rep++ {
				t0 := now()
				data, _ = wire.Encode(m)
				t1 := now()
				_, _ = wire.Decode(data)
				t2 := now()
				enc = append(enc, float64(t1.Sub(t0)))
				dec = append(dec, float64(t2.Sub(t1)))
			}
			n, _ := allocs(func() { _, _ = wire.Decode(data) })
			c.encode += time.Duration(median(enc))
			c.decode += time.Duration(median(dec))
			c.decodeAllocs += n
			c.frames++
			c.bytes += 4 + len(data) // length prefix + frame
			c.payload += payloadBytes(reflect.ValueOf(m))
		}
	}
	return c
}

// payloadBytes is what a message would weigh with no framing at all: the
// bytes of its byte slices and strings, eight per integer, one per bool.
func payloadBytes(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return 0
		}
		return payloadBytes(v.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += payloadBytes(v.Field(i))
		}
		return n
	case reflect.Slice, reflect.Array:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return v.Len()
		}
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += payloadBytes(v.Index(i))
		}
		return n
	case reflect.Map:
		n := 0
		for it := v.MapRange(); it.Next(); {
			n += payloadBytes(it.Key()) + payloadBytes(it.Value())
		}
		return n
	case reflect.String:
		return v.Len()
	case reflect.Bool:
		return 1
	case reflect.Int, reflect.Int64, reflect.Uint64, reflect.Uint32, reflect.Int32:
		return 8
	default:
		return 0
	}
}

// role is one of the three parties whose crypto op counters are kept
// apart.
type role int

const (
	roleUser role = iota
	roleAgency
	roleServer
)

// cryptoBusy prices one party's op counts for an op of kind k with the
// unit times, the way the paper's eq. 17 prices a protocol with Table I.
// The counters say how many point multiplications and Miller loops ran,
// not which variant, so two facts are read off the protocol instead:
//
//   - the DA multiplies points only inside dvs's batch equations, as
//     terms of one interleaved multi-scalar multiplication, so its muls
//     cost the per-term price; users and servers multiply one at a time;
//   - only a user designating a fresh block signature (store, update)
//     pairs two arbitrary points; every other pairing in these four paths
//     has a fixed argument (the generator, the master key or the
//     verifier's key) whose Miller lines are precomputed, whether or not
//     the program counts it as a precomputation hit.
//
// What the model misses is the role's unattributed_ratio.
func (u *unitTimes) cryptoBusy(who role, k opKind, c ops.Snapshot) (curveBusy, pairingBusy time.Duration) {
	mul := u.scalarMult
	if who == roleAgency {
		mul = u.sumScalarMultPerTerm
	}
	curveBusy = time.Duration(c.PointMuls)*mul + time.Duration(c.HashToPoints)*u.hashToPoint
	miller := u.precompPair - u.finalExp
	if who == roleUser && (k == opStore || k == opUpdate) {
		miller = u.pair - u.finalExp
	}
	if miller < 0 {
		miller = 0
	}
	pairingBusy = time.Duration(c.MillerLoops)*miller + time.Duration(c.FinalExps)*u.finalExp
	return curveBusy, pairingBusy
}

// opCrypto prices all three parties of one op.
func (u *unitTimes) opCrypto(r opRow) (curveBusy, pairingBusy time.Duration) {
	for who, c := range []ops.Snapshot{r.user, r.agency, r.server} {
		cb, pb := u.cryptoBusy(role(who), r.kind, c)
		curveBusy += cb
		pairingBusy += pb
	}
	return curveBusy, pairingBusy
}

// treeWork is how often an op of kind k enters merkle and funcs on each
// side, read off the protocol: a job evaluates and commits every
// sub-task on the server and rebuilds the tree at the user; a job audit
// rebuilds the root once when accepting the delegation, then proves,
// verifies and recomputes each sampled sub-task.
type treeWork struct {
	builds, proves, verifies, evals int
}

func (sp *spec) treeWork(k opKind) (client, server treeWork) {
	switch {
	case k == opJob:
		return treeWork{builds: 1}, treeWork{builds: 1, evals: sp.jobTasks}
	case k == opAudit && sp.audit == auditJob:
		return treeWork{builds: 1, verifies: sp.sample, evals: sp.sample}, treeWork{proves: sp.sample}
	}
	return treeWork{}, treeWork{}
}

func (u *unitTimes) treeBusy(w treeWork) (merkleBusy, funcsBusy time.Duration) {
	merkleBusy = time.Duration(w.builds)*u.merkleBuild + time.Duration(w.proves)*u.merkleProve + time.Duration(w.verifies)*u.merkleVerify
	funcsBusy = time.Duration(w.evals) * u.funcsEvalPerTask
	return merkleBusy, funcsBusy
}

// opRow joins an op's trace with its span self times.
type opRow struct {
	*opTrace
	self *selfTime
}

// perOp is the per-op aggregate used for every "*_per_op" metric: the
// median of f within each op kind, weighted by that kind's share of the
// traced ops. Three workloads trace one kind, so this is a plain median;
// the mix alternates update and audit, and its average op is half of
// each.
func perOp(rows []opRow, f func(opRow) float64) float64 {
	byKind := map[opKind][]float64{}
	for _, r := range rows {
		byKind[r.kind] = append(byKind[r.kind], f(r))
	}
	var out float64
	for _, vals := range byKind {
		out += median(vals) * float64(len(vals)) / float64(len(rows))
	}
	return out
}

// layerMetrics turns the traced pass into the per-layer metrics.
func layerMetrics(res *result, sp *spec, u *unitTimes, rows []opRow, spans []span) {
	set := func(name string, v float64, unit string) { res.set(name, v, unit, len(rows)) }
	total := func(r opRow) ops.Snapshot { return addSnapshots(addSnapshots(r.user, r.agency), r.server) }
	isAudit := func(r opRow) bool { return r.kind == opAudit }

	set("ff.fp2_mul_ns", float64(u.fp2Mul), "ns")
	set("ff.fp2_square_ns", float64(u.fp2Square), "ns")
	set("ff.fp2_inv_ns", float64(u.fp2Inv), "ns")
	set("ff.fp2_exp_us", us(u.fp2Exp), "us")

	set("curve.scalar_mult_us", us(u.scalarMult), "us")
	set("curve.scalar_mult_allocs", u.scalarMultAllocs, "count")
	set("curve.hash_to_point_us", us(u.hashToPoint), "us")
	set("curve.sum_scalar_mult_us_per_term", us(u.sumScalarMultPerTerm), "us")
	set("curve.point_muls_per_op", perOp(rows, func(r opRow) float64 { return float64(total(r).PointMuls) }), "count")
	set("curve.hash_to_points_per_op", perOp(rows, func(r opRow) float64 { return float64(total(r).HashToPoints) }), "count")
	set("curve.busy_ms_per_op", perOp(rows, func(r opRow) float64 { c, _ := u.opCrypto(r); return ms(c) }), "ms")

	set("pairing.pair_us", us(u.pair), "us")
	set("pairing.pair_allocs", u.pairAllocs, "count")
	set("pairing.pair_alloc_bytes", u.pairAllocBytes, "B")
	set("pairing.precomp_pair_us", us(u.precompPair), "us")
	set("pairing.pair_prod_us_per_term", us(u.pairProdPerTerm), "us")
	set("pairing.miller_loops_per_op", perOp(rows, func(r opRow) float64 { return float64(total(r).MillerLoops) }), "count")
	set("pairing.final_exps_per_op", perOp(rows, func(r opRow) float64 { return float64(total(r).FinalExps) }), "count")
	var hits, attempts int64
	for _, r := range rows {
		t := total(r)
		hits += t.PrecompHits
		attempts += t.PrecompHits + t.PrecompMisses
	}
	hitRatio := 0.0
	if attempts > 0 {
		hitRatio = float64(hits) / float64(attempts)
	}
	set("pairing.precomp_hit_ratio", hitRatio, "ratio")
	set("pairing.busy_ms_per_op", perOp(rows, func(r opRow) float64 { _, p := u.opCrypto(r); return ms(p) }), "ms")

	set("dvs.sign_designated_us", us(u.signDesignated), "us")
	set("dvs.verify_us", us(u.verify), "us")
	set("dvs.batch_verify_us_per_item", us(u.batchVerifyPerItem), "us")
	// A batched round costs the DA one pairing against its own key; more
	// precomputation hits than round trips means the aggregate failed and
	// every item was re-verified.
	set("dvs.batch_fallbacks_per_op", perOp(rows, func(r opRow) float64 {
		if isAudit(r) && int(r.agency.PrecompHits) > len(r.self.roundTrips) {
			return 1
		}
		return 0
	}), "count")
	set("dvs.verifier_cache_len", float64(u.verifierCacheLen), "count")

	treeBusy := func(r opRow) (m, f time.Duration) {
		c, s := sp.treeWork(r.kind)
		cm, cf := u.treeBusy(c)
		sm, sf := u.treeBusy(s)
		return cm + sm, cf + sf
	}
	set("merkle.build_us", us(u.merkleBuild), "us")
	set("merkle.prove_us", us(u.merkleProve), "us")
	set("merkle.verify_proof_us", us(u.merkleVerify), "us")
	set("merkle.busy_ms_per_op", perOp(rows, func(r opRow) float64 { m, _ := treeBusy(r); return ms(m) }), "ms")
	set("funcs.eval_us_per_task", us(u.funcsEvalPerTask), "us")
	set("funcs.busy_ms_per_op", perOp(rows, func(r opRow) float64 { _, f := treeBusy(r); return ms(f) }), "ms")

	set("wire.encode_us_per_op", perOp(rows, func(r opRow) float64 { return us(r.wire.encode) }), "us")
	set("wire.decode_us_per_op", perOp(rows, func(r opRow) float64 { return us(r.wire.decode) }), "us")
	set("wire.decode_allocs_per_op", perOp(rows, func(r opRow) float64 { return r.wire.decodeAllocs }), "count")
	set("wire.bytes_per_op", perOp(rows, func(r opRow) float64 { return float64(r.wire.bytes) }), "B")
	set("wire.frames_per_op", perOp(rows, func(r opRow) float64 { return float64(r.wire.frames) }), "count")
	var frameBytes, payload int
	for _, r := range rows {
		frameBytes += r.wire.bytes
		payload += r.wire.payload
	}
	set("wire.bytes_per_payload_byte", float64(frameBytes)/float64(payload), "B/B")

	var snaps int64
	for _, r := range rows {
		snaps += r.fs.snaps
	}
	appends := func(r opRow) float64 {
		// Every fsync that is not part of a snapshot (file + directory)
		// is one WAL append.
		return float64(r.fs.syncs - 2*r.fs.snaps)
	}
	storeBusy := func(r opRow) time.Duration {
		return time.Duration(appends(r))*u.append + time.Duration(r.fs.snaps)*u.snapshot
	}
	set("store.append_us", us(u.append), "us")
	set("store.append_nosync_us", us(u.appendNoSync), "us")
	set("store.fsyncs_per_op", perOp(rows, func(r opRow) float64 { return float64(r.fs.syncs) }), "count")
	set("store.bytes_written_per_op", perOp(rows, func(r opRow) float64 { return float64(r.fs.bytes) }), "B")
	set("store.snapshots_total", float64(snaps), "count")
	set("store.snapshot_ms", ms(u.snapshot), "ms")
	set("store.snapshot_bytes", float64(u.snapshotBytes), "B")
	set("store.open_replay_ms", ms(u.openReplay), "ms")
	set("store.replayed_records", float64(u.replayedRecords), "count")
	// Means, not medians: a snapshot is rare and expensive, and a median
	// over ops would never see one.
	var storeTotal time.Duration
	for _, r := range rows {
		storeTotal += storeBusy(r)
	}
	set("store.busy_ms_per_op", ms(storeTotal)/float64(len(rows)), "ms")

	userSelf := func(r opRow) float64 {
		if isAudit(r) {
			return 0
		}
		return ms(r.self.client)
	}
	agencySelf := func(r opRow) float64 {
		if !isAudit(r) {
			return 0
		}
		return ms(r.self.client)
	}
	set("core.user.busy_ms_per_op", perOp(rows, userSelf), "ms")
	set("core.agency.busy_ms_per_op", perOp(rows, agencySelf), "ms")
	set("core.server.handle_ms_per_op", perOp(rows, func(r opRow) float64 { return ms(r.self.server) }), "ms")
	set("core.server.recover_ms", ms(u.recover), "ms")
	for _, hk := range []struct{ metric, kind string }{
		{"core.server.handle_store_ms", "store_req"},
		{"core.server.handle_compute_ms", "compute_req"},
		{"core.server.handle_challenge_ms", "challenge_req"},
		{"core.server.handle_staudit_ms", "staudit_req"},
		{"core.server.handle_update_ms", "update_req"},
	} {
		var d []float64
		for _, s := range spans {
			if s.Name == spanHandle && s.Kind == hk.kind {
				d = append(d, ms(s.dur()))
			}
		}
		v := 0.0
		if len(d) > 0 {
			v = median(d)
		}
		res.set(hk.metric, v, "ms", len(d))
	}
	var audits []opRow
	for _, r := range rows {
		if isAudit(r) {
			audits = append(audits, r)
		}
	}
	var sampled, verified int
	for _, r := range audits {
		sampled += r.sampled
		verified += r.verified
	}
	ratio, trips, lost := 0.0, 0.0, 0.0
	if len(audits) > 0 {
		ratio = float64(verified) / float64(sampled)
		trips = perOp(audits, func(r opRow) float64 { return float64(len(r.self.roundTrips)) })
		lost = perOp(audits, func(r opRow) float64 { return float64(r.lostRounds) })
	}
	res.set("core.agency.roundtrips_per_op", trips, "count", len(audits))
	res.set("core.agency.effective_sample_ratio", ratio, "ratio", len(audits))
	res.set("core.agency.lost_rounds_per_op", lost, "count", len(audits))

	// Unattributed time per role: span self time minus what the unit
	// prices explain, as a share of the self time. This is ROADMAP item
	// 1's "unattributed time is itself a finding"; reported, not gated.
	var self, explained [3]time.Duration // user, agency, server
	for _, r := range rows {
		cw, sw := sp.treeWork(r.kind)
		who, counts := roleUser, r.user
		if isAudit(r) {
			who, counts = roleAgency, r.agency
		}
		cc, cp := u.cryptoBusy(who, r.kind, counts)
		cm, cf := u.treeBusy(cw)
		self[who] += r.self.client
		explained[who] += cc + cp + cm + cf
		sc, spb := u.cryptoBusy(roleServer, r.kind, r.server)
		sm, sf := u.treeBusy(sw)
		self[roleServer] += r.self.server
		explained[roleServer] += sc + spb + sm + sf + storeBusy(r)
	}
	for i, name := range []string{"core.user.unattributed_ratio", "core.agency.unattributed_ratio", "core.server.unattributed_ratio"} {
		v := 0.0
		if self[i] > 0 {
			v = float64(self[i]-explained[i]) / float64(self[i])
		}
		set(name, v, "ratio")
	}

	codec := func(r opRow) float64 { return ms(r.wire.encode + r.wire.decode) }
	set("daemon.transport_ms_per_op", perOp(rows, func(r opRow) float64 { return ms(r.self.daemon) }), "ms")
	set("daemon.net_wait_ms_per_op", perOp(rows, func(r opRow) float64 { return ms(r.self.daemon) - codec(r) }), "ms")
	var trip []float64
	for _, s := range spans {
		if s.Name == spanRoundTrip {
			trip = append(trip, us(s.dur()))
		}
	}
	res.set("daemon.roundtrip_p50_us", percentile(trip, 0.50), "us", len(trip))
	res.set("daemon.roundtrip_p99_us", percentile(trip, 0.99), "us", len(trip))
	set("daemon.handshake_us", us(u.handshake), "us")
}
