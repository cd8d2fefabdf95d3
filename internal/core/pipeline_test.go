package core

import (
	"context"
	"fmt"
	mrand "math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seccloud/internal/funcs"
	"seccloud/internal/netsim"
	"seccloud/internal/transport"
	"seccloud/internal/workload"
)

// fixedClock returns a frozen time source so Elapsed is deterministic.
func fixedClock() func() time.Time {
	at := time.Unix(1700000000, 0)
	return func() time.Time { return at }
}

// testDeterministicAcrossWorkers is the pipeline's core safety property:
// with a fixed challenge RNG the report must be byte-identical for every
// worker count — parallelism may only change how fast evidence is
// produced, never what it says.
func testDeterministicAcrossWorkers(t *testing.T, storage bool) {
	for _, policy := range []CheatPolicy{nil, &StorageCheater{KeepFraction: 0.5, Rng: mrand.New(mrand.NewSource(40))}} {
		sys := newSystem(t, policy)
		sys.agency.WithClock(fixedClock())
		ds := workload.NewGenerator(41).GenDataset(sys.user.ID(), 24, 4)
		tg := sys.target(t, storage, ds, funcs.Spec{Name: "sum"}, "det-job")

		var want *AuditReport
		for _, workers := range []int{1, 2, 4, 8} {
			report, err := tg.audit(sys.clients[0], AuditConfig{
				SampleSize:      12,
				Rng:             mrand.New(mrand.NewSource(42)),
				BatchSignatures: true,
				Rounds:          4,
				Workers:         workers,
			})
			if err != nil {
				t.Fatalf("policy=%v workers=%d: %v", policy, workers, err)
			}
			if want == nil {
				want = report
				continue
			}
			if !reflect.DeepEqual(report, want) {
				t.Fatalf("policy=%v: report differs between 1 and %d workers:\n%+v\nvs\n%+v",
					policy, workers, report, want)
			}
		}
	}
}

func TestAuditDeterministicAcrossWorkers(t *testing.T) { testDeterministicAcrossWorkers(t, false) }
func TestStorageAuditDeterministicAcrossWorkers(t *testing.T) {
	testDeterministicAcrossWorkers(t, true)
}

// TestConcurrentAuditsShareAgency runs many parallel audits against one
// Agency — one shared dvs.Scheme, one shared pairing precomputation cache,
// one shared server — and is the designated prey for `go test -race`.
func TestConcurrentAuditsShareAgency(t *testing.T) {
	sys := newSystem(t, nil)
	gen := workload.NewGenerator(46)
	ds := gen.GenDataset(sys.user.ID(), 12, 4)
	sys.storeDataset(t, ds)
	job := workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "digest"}, 12)
	d := sys.runJob(t, "race-job", job)

	var wg sync.WaitGroup
	errs := make([]error, 6)
	for g := 0; g < len(errs); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			report, err := sys.agency.AuditJob(sys.clients[0], d, AuditConfig{
				SampleSize:      6,
				Rng:             mrand.New(mrand.NewSource(int64(50 + g))),
				BatchSignatures: g%2 == 0,
				Rounds:          3,
				Workers:         4,
			})
			if err != nil {
				errs[g] = err
				return
			}
			if !report.Valid() {
				errs[g] = fmt.Errorf("goroutine %d: honest server failed audit: %+v", g, report.Failures)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSampleIndicesMatchesDenseShuffle pins the sparse partial
// Fisher–Yates to the draw sequence of the dense O(n) version it
// replaced, so seeded simulations reproduce historical challenge sets.
func TestSampleIndicesMatchesDenseShuffle(t *testing.T) {
	dense := func(rng *mrand.Rand, n, tt int) []uint64 {
		if tt > n {
			tt = n
		}
		if tt <= 0 {
			return nil
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		out := make([]uint64, tt)
		for i := 0; i < tt; i++ {
			j := i + rng.Intn(n-i)
			idx[i], idx[j] = idx[j], idx[i]
			out[i] = uint64(idx[i])
		}
		return out
	}
	for _, tc := range []struct{ n, t int }{
		{10, 4}, {10, 10}, {1000, 3}, {1000, 300}, {5, 7}, {1, 1},
	} {
		for seed := int64(0); seed < 5; seed++ {
			want := dense(mrand.New(mrand.NewSource(seed)), tc.n, tc.t)
			got := SampleIndices(mrand.New(mrand.NewSource(seed)), tc.n, tc.t)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d t=%d seed=%d: sparse %v != dense %v", tc.n, tc.t, seed, got, want)
			}
		}
	}
}

func TestPoolForEach(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 100} {
		p := newPool(workers)
		const n = 500
		got := make([]int, n)
		p.forEach(nil, n, func(i int) { got[i] = i * i })
		for i := range got {
			if got[i] != i*i {
				t.Fatalf("workers=%d: slot %d = %d", workers, i, got[i])
			}
		}
	}
	// Nested use must not deadlock.
	p := newPool(2)
	sum := make([]int, 4)
	p.forEach(nil, 4, func(i int) {
		inner := make([]int, 8)
		p.forEach(nil, 8, func(j int) { inner[j] = 1 })
		for _, v := range inner {
			sum[i] += v
		}
	})
	for i, s := range sum {
		if s != 8 {
			t.Fatalf("nested slot %d = %d, want 8", i, s)
		}
	}
}

// TestPoolForEachCancellation is the regression test for the overload
// work: pool workers must observe context cancellation instead of
// draining the full dispatch list after the audit deadline has passed.
func TestPoolForEachCancellation(t *testing.T) {
	const n = 200
	for _, workers := range []int{0, 2, 8} {
		p := newPool(workers)
		ctx, cancel := context.WithCancel(context.Background())
		var ran int32
		p.forEach(ctx, n, func(i int) {
			if atomic.AddInt32(&ran, 1) == 3 {
				cancel()
			}
			time.Sleep(time.Millisecond)
		})
		cancel()
		if got := atomic.LoadInt32(&ran); got >= n {
			t.Fatalf("workers=%d: all %d tasks ran despite mid-flight cancellation", workers, got)
		}
	}
	// A context cancelled before dispatch runs nothing at all.
	for _, workers := range []int{0, 4} {
		p := newPool(workers)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var ran int32
		p.forEach(ctx, 50, func(i int) { atomic.AddInt32(&ran, 1) })
		if got := atomic.LoadInt32(&ran); got != 0 {
			t.Fatalf("workers=%d: %d tasks ran under a pre-cancelled context", workers, got)
		}
	}
}

// BenchmarkSampleIndices shows the allocation drop from the sparse
// shuffle: the dense version allocated an O(n) slice per audit even for
// t ≪ n (8 MB per challenge round at n = 1M).
func BenchmarkSampleIndices(b *testing.B) {
	for _, n := range []int{1000, 100000, 1000000} {
		b.Run(fmt.Sprintf("n=%d/t=300", n), func(b *testing.B) {
			rng := mrand.New(mrand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SampleIndices(rng, n, 300)
			}
		})
	}
}

// benchAuditSystem stands up a 1k-block system with a latent link, the
// acceptance scenario for the parallel pipeline: t=300 sampled indices
// split over 30 challenge rounds on a 100 ms RTT link (a WAN-ish path,
// where the sequential auditor spends most of its time waiting).
func benchAuditSystem(b *testing.B) (*system, *JobDelegation, transport.Client) {
	b.Helper()
	sys := newSystem(b, nil)
	gen := workload.NewGenerator(60)
	ds := gen.GenDataset(sys.user.ID(), 1000, 2)
	sys.storeDataset(b, ds)
	job := workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "sum"}, 1000)
	d := sys.runJob(b, "bench-job", job)
	client := netsim.NewLatentClient(sys.clients[0], 100*time.Millisecond)
	return sys, d, client
}

// BenchmarkAuditPipeline measures the tentpole: wall-clock audit time,
// sequential vs N workers, with network round trips that really sleep.
// The speedup comes from overlapping in-flight rounds with verification,
// so it shows even on a single-core box.
func BenchmarkAuditPipeline(b *testing.B) {
	sys, d, client := benchAuditSystem(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				report, err := sys.agency.AuditJob(client, d, AuditConfig{
					SampleSize:      300,
					Rng:             mrand.New(mrand.NewSource(61)),
					BatchSignatures: true,
					Rounds:          30,
					Workers:         workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !report.Valid() {
					b.Fatalf("honest server failed bench audit: %+v", report.Failures)
				}
			}
		})
	}
}
