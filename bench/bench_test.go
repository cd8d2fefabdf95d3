package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// tinyHarness runs the real code paths with one set-up, no warm-up and
// the smallest unit-timing batches.
func tinyHarness(t *testing.T) *harness {
	h := newHarness(t.TempDir())
	h.setupReps, h.recoverReps = 1, 1
	h.warmup = 0
	h.unitBudget = time.Microsecond
	return h
}

// tiny shrinks a workload to a handful of blocks, sub-tasks and traced
// ops; parameter set, server configuration and op mix stay what they are.
// Audits cover everything (the sample is clamped to the population), so
// every audit of a run moves the same bytes whichever indices it draws
// first.
func tiny(sp *spec) *spec {
	s := *sp
	s.blocks, s.reqBlocks = 8, 4
	s.jobTasks = 32
	s.sample = 32
	if s.rounds > 3 {
		s.rounds = 3
	}
	if s.snapshotEvery > 0 {
		s.snapshotEvery = 3
	}
	s.traceOps = 4
	return &s
}

const tinyWindow = 150 * time.Millisecond

// testedSpecs is every workload, or only the cheapest under -short and
// the race detector (math/big at SS512 is an order slower there).
func testedSpecs() []*spec {
	if testing.Short() || raceEnabled {
		sp, _ := specByName("mutate_audit_mix_test256")
		return []*spec{sp}
	}
	return specs
}

func loadManifest(t *testing.T) *manifestFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifestFile
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return &m
}

type manifestFile struct {
	manifest
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	Paths []string `json:"paths"`
}

// TestManifestNamesTheWorkloads holds BENCHMARK.json and the spec table
// to each other.
func TestManifestNamesTheWorkloads(t *testing.T) {
	m := loadManifest(t)
	if len(m.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(m.Workloads), len(specs))
	}
	for i, w := range m.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, w.Name, specs[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why must be 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	var setup bool
	for _, e := range m.EndToEnd {
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		if e.Name == "setup_s" {
			setup = e.Unit == "s" && e.Better == "lower"
		}
	}
	if !setup {
		t.Error("BENCHMARK.json needs setup_s with unit s, better lower")
	}
}

// exactOnSameSeed are the per-layer metrics that count what the program
// did, as opposed to timing it: the same seed gives the same inputs, so
// they read the same on a second run.
var exactOnSameSeed = []string{
	"curve.point_muls_per_op", "curve.hash_to_points_per_op",
	"pairing.miller_loops_per_op", "pairing.final_exps_per_op",
	"store.fsyncs_per_op", "wire.frames_per_op",
}

// TestWorkloadsAtToySize runs every workload untraced and traced at toy
// size and checks that the emitted metrics are exactly the ones
// BENCHMARK.json names, with its units, and are numbers. The two test256
// workloads that between them cover both audit protocols then run a second
// time on the same seed and must repeat every count exactly.
func TestWorkloadsAtToySize(t *testing.T) {
	m := loadManifest(t)
	repeat := map[string]bool{"compute_commit_test256": true, "mutate_audit_mix_test256": true}
	for _, sp := range testedSpecs() {
		sp := tiny(sp)
		t.Run(sp.name, func(t *testing.T) {
			if repeat[sp.name] {
				// Which op a compaction lands on depends on how many
				// records the timed window before it happened to write.
				sp.snapshotEvery = 0
			}
			run := func() (plain, traced *result) {
				h := tinyHarness(t)
				plain, err := h.runWorkload(sp, 7, tinyWindow)
				if err != nil {
					t.Fatal(err)
				}
				if traced, err = h.runTraced(sp, 7, tinyWindow, "test"); err != nil {
					t.Fatal(err)
				}
				return plain, traced
			}
			plain, traced := run()
			checkEmitted(t, plain, m.EndToEnd, true)
			checkEmitted(t, traced, m.PerLayer, false)
			if !repeat[sp.name] {
				return
			}
			plain2, traced2 := run()
			for _, name := range exactOnSameSeed {
				if a, b := traced.metrics[name].Value, traced2.metrics[name].Value; a != b {
					t.Errorf("%s: %v then %v on the same seed", name, a, b)
				}
			}
			for _, name := range []string{"audit_wire_bytes", "disk_bytes_per_user_byte"} {
				if a, b := plain.metrics[name].Value, plain2.metrics[name].Value; a != b {
					t.Errorf("%s: %v then %v on the same seed", name, a, b)
				}
			}
		})
	}
}

func checkEmitted(t *testing.T, res *result, want []manifestMetric, positive bool) {
	t.Helper()
	if !res.correct {
		t.Errorf("correctness checks failed: %v", res.notes)
	}
	if res.attempted < 1 || res.failed != 0 {
		t.Errorf("attempted %d, failed %d: %v", res.attempted, res.failed, res.notes)
	}
	for _, w := range want {
		got, ok := res.metrics[w.Name]
		switch {
		case !ok:
			t.Errorf("%s is named in BENCHMARK.json but not emitted", w.Name)
		case got.Unit != w.Unit:
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", w.Name, got.Unit, w.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: value %v", w.Name, got.Value)
		case positive && got.Value <= 0:
			t.Errorf("%s: end-to-end value %v must be positive", w.Name, got.Value)
		}
	}
	if len(res.metrics) != len(want) {
		t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.metrics), len(want))
	}
}

// fakeClock advances only when told to.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// TestSelfTimesSplitTheWallClock drives the tracer by hand under a fake
// clock: an op of 100 ms holding two round trips of 30 and 20 ms whose
// handlers took 12 and 5 ms must split 50 / 33 / 17 and sum to the wall.
func TestSelfTimesSplitTheWallClock(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	tr := newTracer(clk.now)
	step := func(d time.Duration) { clk.advance(d * time.Millisecond) }

	op := tr.open(spanOp, "audit", nil)
	step(10)
	for _, d := range []struct{ before, handle, after time.Duration }{{8, 12, 10}, {5, 5, 10}} {
		rt := tr.open(spanRoundTrip, "staudit_req", op)
		step(d.before)
		hd := tr.open(spanHandle, "staudit_req", rt)
		step(d.handle)
		tr.finish(hd)
		step(d.after)
		tr.finish(rt)
		step(20)
	}
	tr.finish(op)

	spans := append([]span(nil), tr.spans...)
	selfs, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	st := selfs[op.ID]
	if st == nil {
		t.Fatalf("no self times for op %d", op.ID)
	}
	want := [3]time.Duration{50 * time.Millisecond, 33 * time.Millisecond, 17 * time.Millisecond}
	if got := [3]time.Duration{st.client, st.daemon, st.server}; got != want {
		t.Errorf("client/daemon/server self = %v, want %v", got, want)
	}
	if sum := st.client + st.daemon + st.server; sum != op.dur() {
		t.Errorf("self times sum to %v, op took %v", sum, op.dur())
	}
	if len(st.roundTrips) != 2 || st.roundTrips[0] != 30*time.Millisecond || st.roundTrips[1] != 20*time.Millisecond {
		t.Errorf("round trips %v, want 30 ms and 20 ms", st.roundTrips)
	}
	for _, s := range spans {
		if s.Op != op.ID {
			t.Errorf("span %d (%s) carries op id %d, want %d", s.ID, s.Name, s.Op, op.ID)
		}
	}
}

// TestSelfTimesRefuseSpansThatDoNotNest: a handler span outliving its
// round trip would make the split meaningless, so it is an error.
func TestSelfTimesRefuseSpansThatDoNotNest(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: spanOp, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Op: 1, Name: spanRoundTrip, StartNS: 10, EndNS: 50},
		{ID: 3, Parent: 2, Op: 1, Name: spanHandle, StartNS: 20, EndNS: 60},
	}
	if _, err := selfTimes(spans); err == nil {
		t.Error("a child ending after its parent was accepted")
	}
	spans[2].EndNS = 40
	spans = append(spans, span{ID: 4, Parent: 1, Op: 1, Name: spanRoundTrip, StartNS: 45, EndNS: 70})
	if _, err := selfTimes(spans); err == nil {
		t.Error("overlapping siblings were accepted")
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.95, 4.8}} {
		if got := percentile(vals, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("the percentile of nothing must be NaN, not a fast number")
	}
}

// TestSpeedometer: kernel timings at twice the nominal time read as half
// speed around the instants they were taken and nowhere else; an instant
// far from every timing falls back on all of them; stolen time counts.
func TestSpeedometer(t *testing.T) {
	base := time.Unix(3000, 0)
	s := &speedometer{}
	for i := 0; i < 40; i++ {
		d := refNominal
		if i >= 20 {
			d = 2 * refNominal
		}
		s.t = append(s.t, refTiming{at: base.Add(time.Duration(i) * 200 * time.Millisecond), d: d})
	}
	at := func(d time.Duration) float64 { return s.speedOver(base.Add(d), base.Add(d)) }
	if got := at(2 * time.Second); math.Abs(got-1) > 1e-9 {
		t.Errorf("speed in the fast half = %v, want 1", got)
	}
	if got := at(6 * time.Second); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("speed in the slow half = %v, want 0.5", got)
	}
	if got := s.speedOver(base.Add(5500*time.Millisecond), base.Add(7*time.Second)); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("speed over a slow interval = %v, want 0.5", got)
	}
	// An hour later the window has doubled until it holds every timing;
	// their lower quartile is a nominal one.
	if got := at(time.Hour); math.Abs(got-1) > 1e-9 {
		t.Errorf("speed far from every timing = %v, want 1", got)
	}
	if got := (&speedometer{}).speedOver(base, base); got != 1 {
		t.Errorf("speed with no timing = %v, want 1", got)
	}
	// A machine that ran 80 ticks and was robbed of 20 every 200 ms gave
	// this process four fifths of the time it wanted.
	for i := range s.t {
		s.t[i].busy, s.t[i].stolen = float64(80*i), float64(20*i)
	}
	if got := at(2 * time.Second); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("speed with a fifth of the time stolen = %v, want 0.8", got)
	}
}

// TestRate: two clients, each 10 ops of 4 units taking 100 ms at half
// speed, move 2 × 4 units per 50 reference-ms; the two ops a stall held
// for a second are the slowest tenth and do not count.
func TestRate(t *testing.T) {
	from := time.Unix(4000, 0)
	var samples []sample
	for i := 0; i < 20; i++ {
		start := from.Add(time.Duration(i/2) * 100 * time.Millisecond)
		d := 100 * time.Millisecond
		if i >= 18 {
			d = time.Second
		}
		samples = append(samples, sample{client: i % 2, start: start, end: start.Add(d), units: 4, speed: 0.5})
	}
	if got := rate(samples); math.Abs(got-160) > 1e-9 {
		t.Errorf("rate = %v, want 160", got)
	}
	if !math.IsNaN(rate(nil)) {
		t.Error("the rate of nothing must be NaN")
	}
}

// TestWALScratchIsRemoved: a closed system leaves nothing under the
// output directory, after success and after a failed set-up alike.
func TestWALScratchIsRemoved(t *testing.T) {
	sp, _ := specByName("mutate_audit_mix_test256")
	dir := t.TempDir()
	e, err := newEnv(tiny(sp), 3, newHarness(dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	e.close()
	bad := *tiny(sp)
	bad.params = "no-such-curve"
	if _, err := newEnv(&bad, 3, newHarness(dir), nil); err == nil {
		t.Fatal("set-up with an unknown parameter set succeeded")
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("%d entries left under the output directory, first %q", len(left), left[0].Name())
	}
}
