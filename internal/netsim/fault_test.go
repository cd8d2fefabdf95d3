package netsim

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"seccloud/internal/transport"
	"seccloud/internal/wire"
)

func TestFaultInjectorDeterministic(t *testing.T) {
	cfg := FaultConfig{Seed: 99, DropRate: 0.3, CorruptRate: 0.2, DuplicateRate: 0.1}
	run := func() []legPlan {
		inj := newInjector(cfg)
		plans := make([]legPlan, 200)
		for i := range plans {
			plans[i] = inj.plan(true)
		}
		return plans
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan %d differs across runs with the same seed: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestFaultInjectorInertConfig(t *testing.T) {
	if inj := newInjector(FaultConfig{Seed: 5}); inj != nil {
		t.Fatal("inert config built an injector")
	}
	// A nil injector must be safe to use everywhere.
	var inj *injector
	if p := inj.plan(true); p != (legPlan{}) {
		t.Fatalf("nil injector planned a fault: %+v", p)
	}
	if c := inj.snapshot(); c.Total() != 0 {
		t.Fatalf("nil injector has counts: %+v", c)
	}
}

func TestFaultInjectorRates(t *testing.T) {
	inj := newInjector(FaultConfig{Seed: 3, DropRate: 0.25})
	const n = 4000
	for i := 0; i < n; i++ {
		inj.plan(true)
	}
	drops := inj.snapshot().Drops
	// 4000 Bernoulli(0.25) trials: expect ~1000, allow a generous band.
	if drops < 800 || drops > 1200 {
		t.Fatalf("drop count %d far from expected ~1000", drops)
	}
}

func TestLoopbackDropFault(t *testing.T) {
	l := NewLoopback(echoHandler{}, LinkConfig{}).WithFaults(FaultConfig{
		Seed: 11, DropRate: 1,
	})
	_, err := l.RoundTripContext(context.Background(), &wire.StoreResponse{OK: true})
	var fe *transport.FaultError
	if !errors.As(err, &fe) || fe.Kind != transport.FaultDrop {
		t.Fatalf("want drop transport.FaultError, got %v", err)
	}
	if !transport.IsRetryable(err) {
		t.Fatal("drop fault must be retryable")
	}
	if l.FaultCounts().Drops == 0 {
		t.Fatal("drop not counted in stats")
	}
}

func TestLoopbackCorruptFault(t *testing.T) {
	l := NewLoopback(echoHandler{}, LinkConfig{}).WithFaults(FaultConfig{
		Seed: 11, CorruptRate: 1,
	})
	_, err := l.RoundTripContext(context.Background(), &wire.StoreResponse{OK: true})
	if err == nil {
		t.Fatal("corrupted frame round-tripped cleanly")
	}
	if !transport.IsRetryable(err) {
		t.Fatalf("corruption should be retryable, got %v", err)
	}
	if l.FaultCounts().Corruptions == 0 {
		t.Fatal("corruption not counted in stats")
	}
}

func TestLoopbackDuplicateFault(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	h := transport.HandlerFunc(func(m wire.Message) wire.Message {
		mu.Lock()
		calls++
		mu.Unlock()
		return &wire.StoreResponse{OK: true}
	})
	l := NewLoopback(h, LinkConfig{}).WithFaults(FaultConfig{
		Seed: 11, DuplicateRate: 1,
	})
	if _, err := l.RoundTripContext(context.Background(), &wire.StoreResponse{OK: true}); err != nil {
		t.Fatalf("duplicate should still deliver: %v", err)
	}
	if calls != 2 {
		t.Fatalf("handler saw %d calls, want 2 (original + duplicate)", calls)
	}
	if l.FaultCounts().Duplicates != 1 {
		t.Fatalf("duplicates counted %d, want 1", l.FaultCounts().Duplicates)
	}
}

func TestLoopbackDelayFaultTriggersDeadline(t *testing.T) {
	l := NewLoopback(echoHandler{}, LinkConfig{}).WithFaults(FaultConfig{
		Seed: 11, DelayRate: 1, Delay: time.Hour,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := l.RoundTripContext(ctx, &wire.StoreResponse{OK: true})
	if !transport.IsTimeout(err) {
		t.Fatalf("want timeout error under modeled hour-long delay, got %v", err)
	}
	// The delay is modeled against the virtual clock; the call itself must
	// return promptly rather than really sleeping an hour.
	if time.Since(start) > 5*time.Second {
		t.Fatal("loopback really slept instead of modeling the delay")
	}
}

func TestLoopbackFaultFreePathUnchanged(t *testing.T) {
	l := NewLoopback(echoHandler{}, LinkConfig{}).WithFaults(FaultConfig{})
	for i := 0; i < 20; i++ {
		if _, err := l.RoundTripContext(context.Background(), &wire.StoreResponse{OK: true}); err != nil {
			t.Fatalf("fault-free config injected a fault: %v", err)
		}
	}
	if l.FaultCounts().Total() != 0 {
		t.Fatalf("fault counts nonzero: %+v", l.FaultCounts())
	}
}

func TestLoopbackConcurrentStatsAndRoundTrip(t *testing.T) {
	l := NewLoopback(echoHandler{}, LinkConfig{RTT: time.Microsecond}).WithFaults(FaultConfig{
		Seed: 21, DropRate: 0.2, CorruptRate: 0.1, DuplicateRate: 0.1,
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, _ = l.RoundTripContext(context.Background(), &wire.StoreResponse{OK: true})
			}
		}()
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = l.Stats()
				_ = l.FaultCounts()
			}
		}()
	}
	wg.Wait()
	st := l.Stats()
	if st.Calls+l.FaultCounts().Drops == 0 {
		t.Fatal("no activity recorded")
	}
}

func TestFaultKindStrings(t *testing.T) {
	kinds := map[transport.FaultKind]string{
		transport.FaultDrop:       "drop",
		transport.FaultDelay:      "delay",
		transport.FaultDuplicate:  "duplicate",
		transport.FaultCorrupt:    "corrupt",
		transport.FaultDisconnect: "disconnect",
		transport.FaultKind(42):   "fault(42)",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("FaultKind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}
