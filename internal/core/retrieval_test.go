package core

import (
	"bytes"
	"context"
	mrand "math/rand"
	"testing"
	"time"

	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

// TestRetrievabilityAfterDeletion wires the erasure substrate into the
// full protocol: a parity-coded archive survives a storage cheater that
// deleted a few blocks — the DA's audit identifies exactly which blocks
// are bad, and Reed–Solomon reconstruction restores them from survivors.
func TestRetrievabilityAfterDeletion(t *testing.T) {
	const (
		dataBlocks   = 10
		parityBlocks = 4
	)
	// The cheater deletes ~20% of payloads (expected ≤ 4 of 14 with this
	// seed; asserted below).
	sys := newSystem(t, &StorageCheater{KeepFraction: 0.8, Rng: mrand.New(mrand.NewSource(7))})
	gen := workload.NewGenerator(80)
	base := gen.GenDataset(sys.user.ID(), dataBlocks, 8)
	coded, coder, err := workload.WithParity(base, parityBlocks)
	if err != nil {
		t.Fatalf("WithParity: %v", err)
	}
	if coded.NumBlocks() != dataBlocks+parityBlocks {
		t.Fatalf("coded dataset has %d blocks", coded.NumBlocks())
	}
	sys.storeDataset(t, coded)

	// Full storage audit tells the user which positions are damaged.
	warrant, err := sys.user.Delegate(sys.agency.ID(), "", time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	report, err := sys.agency.AuditStorage(sys.clients[0], sys.user.ID(), warrant,
		AuditConfig{
			DatasetSize: coded.NumBlocks(), SampleSize: coded.NumBlocks(),
			Rng: mrand.New(mrand.NewSource(8)), BatchSignatures: true,
		})
	if err != nil {
		t.Fatal(err)
	}
	bad := map[uint64]bool{}
	for _, f := range report.Failures {
		bad[f.Index] = true
	}
	if len(bad) == 0 {
		t.Skip("cheater happened to delete nothing with this seed")
	}
	if len(bad) > parityBlocks {
		t.Fatalf("seed produced %d deletions (> %d parity); pick a friendlier seed",
			len(bad), parityBlocks)
	}

	// Fetch all blocks, drop the flagged ones, reconstruct.
	resp, err := sys.clients[0].RoundTripContext(context.Background(), &wire.StorageAuditRequest{
		UserID:    sys.user.ID(),
		Positions: allPositions(coded.NumBlocks()),
		Warrant:   warrant,
	})
	if err != nil {
		t.Fatal(err)
	}
	sa, ok := resp.(*wire.StorageAuditResponse)
	if !ok || sa.Error != "" {
		t.Fatalf("fetch failed: %#v", resp)
	}
	shards := make([][]byte, coded.NumBlocks())
	for i := range shards {
		if !bad[uint64(i)] {
			shards[i] = sa.Blocks[i]
		}
	}
	if err := workload.RecoverDataset(coder, shards); err != nil {
		t.Fatalf("RecoverDataset: %v", err)
	}
	for i := 0; i < dataBlocks; i++ {
		if !bytes.Equal(shards[i], base.Blocks[i]) {
			t.Fatalf("data block %d not recovered", i)
		}
	}
	// Recovered shards also re-verify against the coder.
	ok2, err := coder.Verify(shards)
	if err != nil || !ok2 {
		t.Fatalf("recovered archive inconsistent: %v %v", ok2, err)
	}
}

func allPositions(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i)
	}
	return out
}
