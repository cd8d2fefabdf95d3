package core

import (
	"fmt"
	mrand "math/rand"
	"testing"
	"time"

	"seccloud/internal/workload"
)

func TestColdDataCheaterCaughtProportionally(t *testing.T) {
	// The rational storage cheater deletes blocks never seen in a Zipf
	// access trace. A storage audit sampling uniformly catches it whenever
	// the sample intersects the cold set.
	const blocks = 40
	gen := workload.NewGenerator(60)
	trace, err := gen.ZipfAccess(blocks, 60, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	cold := workload.ColdFraction(blocks, trace)
	if cold < 0.2 {
		t.Fatalf("trace not cold enough for the test: %v", cold)
	}
	policy := NewColdDataCheater(trace)
	sys := newSystem(t, policy)
	ds := gen.GenDataset(sys.user.ID(), blocks, 4)
	sys.storeDataset(t, ds)

	warrant, err := sys.user.Delegate(sys.agency.ID(), "", time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	// Full-coverage audit: every cold block must be flagged, every hot
	// block must pass.
	report, err := sys.agency.AuditStorage(sys.clients[0], sys.user.ID(), warrant,
		AuditConfig{DatasetSize: blocks, SampleSize: blocks,
			Rng: mrand.New(mrand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[uint64]bool{}
	for _, f := range report.Failures {
		flagged[f.Index] = true
	}
	for pos := uint64(0); pos < blocks; pos++ {
		_, hot := policy.Hot[pos]
		if hot && flagged[pos] {
			t.Fatalf("hot block %d flagged", pos)
		}
		if !hot && !flagged[pos] {
			t.Fatalf("cold (deleted) block %d not flagged", pos)
		}
	}
	wantCold := int(cold * blocks)
	if len(flagged) != blocks-len(policy.Hot) || len(flagged) < wantCold-1 {
		t.Fatalf("flagged %d blocks, cold set has %d", len(flagged), blocks-len(policy.Hot))
	}
}

func TestStorageAuditBatchedMatchesIndividual(t *testing.T) {
	// Batched and individual storage audits must agree on both honest and
	// cheating servers (the batch path falls back to locate failures).
	for _, cheat := range []bool{false, true} {
		cheat := cheat
		t.Run(fmt.Sprintf("cheat=%v", cheat), func(t *testing.T) {
			var policy CheatPolicy
			if cheat {
				policy = &StorageCheater{KeepFraction: 0.5, Rng: mrand.New(mrand.NewSource(2))}
			}
			sys := newSystem(t, policy)
			gen := workload.NewGenerator(61)
			ds := gen.GenDataset(sys.user.ID(), 12, 4)
			sys.storeDataset(t, ds)
			warrant, err := sys.user.Delegate(sys.agency.ID(), "", time.Now().Add(time.Hour))
			if err != nil {
				t.Fatal(err)
			}
			indiv, err := sys.agency.AuditStorage(sys.clients[0], sys.user.ID(), warrant,
				AuditConfig{DatasetSize: 12, SampleSize: 12,
					Rng: mrand.New(mrand.NewSource(3))})
			if err != nil {
				t.Fatal(err)
			}
			batched, err := sys.agency.AuditStorage(sys.clients[0], sys.user.ID(), warrant,
				AuditConfig{DatasetSize: 12, SampleSize: 12,
					Rng: mrand.New(mrand.NewSource(3)), BatchSignatures: true})
			if err != nil {
				t.Fatal(err)
			}
			if !batched.SigChecksBatched {
				t.Fatal("batched report not marked as batched")
			}
			// Same failing positions either way. (The storage cheater's
			// fabricated blocks are random per read, but which positions
			// were deleted is fixed.)
			iFail := map[uint64]bool{}
			for _, f := range indiv.Failures {
				iFail[f.Index] = true
			}
			bFail := map[uint64]bool{}
			for _, f := range batched.Failures {
				bFail[f.Index] = true
			}
			if len(iFail) != len(bFail) {
				t.Fatalf("individual flagged %v, batched flagged %v", iFail, bFail)
			}
			for pos := range iFail {
				if !bFail[pos] {
					t.Fatalf("batched audit missed position %d", pos)
				}
			}
			if cheat == indiv.Valid() {
				t.Fatalf("cheat=%v but individual audit valid=%v", cheat, indiv.Valid())
			}
		})
	}
}

func TestStorageAuditZeroSample(t *testing.T) {
	sys := newSystem(t, nil)
	gen := workload.NewGenerator(62)
	ds := gen.GenDataset(sys.user.ID(), 4, 4)
	sys.storeDataset(t, ds)
	warrant, err := sys.user.Delegate(sys.agency.ID(), "", time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	report, err := sys.agency.AuditStorage(sys.clients[0], sys.user.ID(), warrant,
		AuditConfig{DatasetSize: 4, SampleSize: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Valid() || len(report.Sampled) != 0 {
		t.Fatalf("zero-sample audit misbehaved: %+v", report)
	}
}
