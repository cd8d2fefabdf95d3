package core

import (
	"context"
	"fmt"

	"seccloud/internal/erasure"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

// Striped storage — the opt-in alternative to full replication. Instead
// of every server holding every block, each dataset block is split into
// K data shards plus M Reed–Solomon parity shards and shard j lives on
// server j (the fleet size must equal K+M). The dataset survives any M
// server losses at 1+M/K storage overhead instead of N×.
//
// Position binding: shard j of dataset block p is stored — and signed by
// the user — under the wire position p·(K+M)+j. Folding the shard index
// into the signed position matters: shards of the same block have
// DIFFERENT contents per server, and without the fold a cheating server
// could answer an audit with another server's shard and its (valid)
// signature. With it, eq. 5/7 binds each shard to the one server slot
// that may serve it, so the per-shard audit story is exactly the
// replicated one.
//
// Repair asymmetry: a replicated fleet repairs by copying a verified
// block (the DA can gate and move it — executeRepair). A striped fleet
// must RECONSTRUCT the lost shard from K survivors, producing bytes that
// never existed on any other server — bytes the DA cannot produce a
// designated signature for, because only the user's key signs blocks.
// Striped repair therefore needs the user (RepairStripedShards); this is
// the price of the storage discount and is documented in DESIGN.md.

// StripeConfig shapes a striped store.
type StripeConfig struct {
	// DataShards is K, parity is M; K+M must equal the fleet size.
	DataShards, ParityShards int
}

// StripedDataset is a dataset encoded for striping: per-server shard
// columns over uniformly padded blocks.
type StripedDataset struct {
	Owner string
	// Blocks is the number of original dataset blocks.
	Blocks int
	// BlockLen is the original (unpadded) block length; all blocks must
	// share it so shards are uniform.
	BlockLen int
	// Shards[j][p] is server j's shard of block p.
	Shards [][][]byte

	coder *erasure.Coder
}

// ShardPosition is the wire position of block pos's shard for server
// `shard` in a fleet of `total` servers.
func ShardPosition(pos uint64, shard, total int) uint64 {
	return pos*uint64(total) + uint64(shard)
}

// StripeDataset splits every block of ds into cfg.DataShards data shards
// and cfg.ParityShards parity shards. All blocks must have equal length
// (workload generators produce uniform blocks); the shard length is the
// padded block length divided by K.
func StripeDataset(ds *workload.Dataset, cfg StripeConfig) (*StripedDataset, error) {
	coder, err := erasure.NewCoder(cfg.DataShards, cfg.ParityShards)
	if err != nil {
		return nil, fmt.Errorf("core: striping dataset: %w", err)
	}
	if len(ds.Blocks) == 0 {
		return nil, fmt.Errorf("core: striping an empty dataset")
	}
	k, total := cfg.DataShards, cfg.DataShards+cfg.ParityShards
	blockLen := len(ds.Blocks[0])
	sd := &StripedDataset{
		Owner:    ds.Owner,
		Blocks:   len(ds.Blocks),
		BlockLen: blockLen,
		Shards:   make([][][]byte, total),
		coder:    coder,
	}
	for j := range sd.Shards {
		sd.Shards[j] = make([][]byte, len(ds.Blocks))
	}
	shardLen := (blockLen + k - 1) / k
	for p, block := range ds.Blocks {
		if len(block) != blockLen {
			return nil, fmt.Errorf("core: block %d has %d bytes, want uniform %d", p, len(block), blockLen)
		}
		data := make([][]byte, k)
		for s := 0; s < k; s++ {
			shard := make([]byte, shardLen)
			start := s * shardLen
			if start < blockLen {
				copy(shard, block[start:min(start+shardLen, blockLen)])
			}
			data[s] = shard
		}
		parity, err := coder.Encode(data)
		if err != nil {
			return nil, fmt.Errorf("core: encoding block %d: %w", p, err)
		}
		shards := append(data, parity...)
		for j := 0; j < total; j++ {
			sd.Shards[j][p] = shards[j]
		}
	}
	return sd, nil
}

// Coder exposes the RS coder (for reconstruction paths).
func (sd *StripedDataset) Coder() *erasure.Coder { return sd.coder }

// PrepareStripedStore signs server j's shard column into one store
// request per server, using the shard-folded positions.
func (sd *StripedDataset) PrepareStripedStore(u *User, verifierIDs ...string) ([]*wire.StoreRequest, error) {
	total := sd.coder.TotalShards()
	reqs := make([]*wire.StoreRequest, total)
	for j := 0; j < total; j++ {
		req := &wire.StoreRequest{
			UserID:    u.ID(),
			Positions: make([]uint64, sd.Blocks),
			Blocks:    make([][]byte, sd.Blocks),
			Sigs:      make([]wire.BlockSig, sd.Blocks),
		}
		for p := 0; p < sd.Blocks; p++ {
			pos := ShardPosition(uint64(p), j, total)
			sig, err := u.SignBlock(pos, sd.Shards[j][p], verifierIDs...)
			if err != nil {
				return nil, err
			}
			req.Positions[p] = pos
			req.Blocks[p] = sd.Shards[j][p]
			req.Sigs[p] = sig
		}
		reqs[j] = req
	}
	return reqs, nil
}

// StoreStriped uploads one shard column to each server: request j goes
// ONLY to server j, unlike ReplicateStore. The fleet size must match.
func (c *CSP) StoreStriped(user *User, reqs []*wire.StoreRequest) error {
	if len(reqs) != len(c.clients) {
		return fmt.Errorf("core: %d shard columns for %d servers", len(reqs), len(c.clients))
	}
	for j, req := range reqs {
		if err := user.Store(c.clients[j], req); err != nil {
			return fmt.Errorf("core: storing shard column %d: %w", j, err)
		}
	}
	return nil
}

// fetchShards asks every fleet server for its shard of block pos,
// leaving nil holes for servers that are down, breaker-open, or whose
// shard fails the designated-signature check (a corrupt shard must not
// poison reconstruction). It also returns how many shards verified.
func (a *Agency) fetchShards(
	f *Fleet, coder *erasure.Coder, userID string, warrant wire.Warrant, pos uint64,
) ([][]byte, int) {
	total := coder.TotalShards()
	shards := make([][]byte, total)
	got := 0
	for j := 0; j < total; j++ {
		if !f.health.Breaker(j).Allow() {
			continue
		}
		wirePos := ShardPosition(pos, j, total)
		resp, err := f.clients[j].RoundTripContext(context.Background(), &wire.StorageAuditRequest{
			UserID:    userID,
			Positions: []uint64{wirePos},
			Warrant:   warrant,
		})
		if err != nil {
			continue
		}
		sa, ok := resp.(*wire.StorageAuditResponse)
		if !ok || sa.Error != "" || len(sa.Blocks) != 1 || len(sa.Sigs) != 1 {
			continue
		}
		if a.verifyStoredBlock(userID, wirePos, sa.Blocks[0], sa.Sigs[0]) != nil {
			continue
		}
		shards[j] = sa.Blocks[0]
		got++
	}
	return shards, got
}

// FetchStripedBlock reassembles one original dataset block from any K
// verifying shards across the fleet. Down servers and corrupt shards
// simply become erasures; the call fails only when fewer than K shards
// survive verification.
func (a *Agency) FetchStripedBlock(
	f *Fleet, coder *erasure.Coder, userID string, warrant wire.Warrant, pos uint64, blockLen int,
) ([]byte, error) {
	if f.NumServers() != coder.TotalShards() {
		return nil, fmt.Errorf("core: fleet has %d servers for %d shards", f.NumServers(), coder.TotalShards())
	}
	shards, got := a.fetchShards(f, coder, userID, warrant, pos)
	if got < coder.DataShards() {
		return nil, fmt.Errorf("core: block %d: only %d of %d required shards verified", pos, got, coder.DataShards())
	}
	if err := coder.Reconstruct(shards); err != nil {
		return nil, fmt.Errorf("core: reconstructing block %d: %w", pos, err)
	}
	block := make([]byte, 0, blockLen)
	for s := 0; s < coder.DataShards(); s++ {
		block = append(block, shards[s]...)
	}
	if len(block) < blockLen {
		return nil, fmt.Errorf("core: block %d reassembled short: %d < %d", pos, len(block), blockLen)
	}
	return block[:blockLen], nil
}

// RepairStripedShards rebuilds server target's shards of the given
// blocks from the surviving fleet and re-stores them. The USER must
// participate: reconstruction produces shard bytes that existed only on
// the lost server, and only the user's key can issue the designated
// signature binding them to their shard position (the DA gates copies,
// it cannot mint signatures). Each reconstructed shard is re-signed and
// pushed through the target's ordinary (WAL-durable) store path.
func (a *Agency) RepairStripedShards(
	f *Fleet, coder *erasure.Coder, u *User, warrant wire.Warrant,
	positions []uint64, target int, verifierIDs ...string,
) error {
	if target < 0 || target >= f.NumServers() {
		return fmt.Errorf("core: repair target %d out of range", target)
	}
	total := coder.TotalShards()
	req := &wire.StoreRequest{UserID: u.ID()}
	for _, pos := range positions {
		shards, got := a.fetchShards(f, coder, u.ID(), warrant, pos)
		// The target's own shard must be reconstructed from the others,
		// even if the target still serves (possibly stale) bytes.
		if shards[target] != nil {
			shards[target] = nil
			got--
		}
		if got < coder.DataShards() {
			return fmt.Errorf("core: block %d: only %d of %d required shards verified", pos, got, coder.DataShards())
		}
		if err := coder.Reconstruct(shards); err != nil {
			return fmt.Errorf("core: reconstructing block %d: %w", pos, err)
		}
		wirePos := ShardPosition(pos, target, total)
		sig, err := u.SignBlock(wirePos, shards[target], verifierIDs...)
		if err != nil {
			return err
		}
		req.Positions = append(req.Positions, wirePos)
		req.Blocks = append(req.Blocks, shards[target])
		req.Sigs = append(req.Sigs, sig)
	}
	if err := u.Store(f.Client(target), req); err != nil {
		return fmt.Errorf("core: storing repaired shards: %w", err)
	}
	// Confirm exactly as replica repair does: the target must now answer
	// the repaired positions with verifying signatures.
	resp, err := f.Client(target).RoundTripContext(context.Background(), &wire.StorageAuditRequest{
		UserID:    u.ID(),
		Positions: req.Positions,
		Warrant:   warrant,
	})
	if err != nil {
		return fmt.Errorf("core: re-audit after shard repair: %w", err)
	}
	sa, ok := resp.(*wire.StorageAuditResponse)
	if !ok || sa.Error != "" || len(sa.Blocks) != len(req.Positions) {
		return fmt.Errorf("core: re-audit after shard repair returned a malformed answer")
	}
	for i, wirePos := range req.Positions {
		if err := a.verifyStoredBlock(u.ID(), wirePos, sa.Blocks[i], sa.Sigs[i]); err != nil {
			return fmt.Errorf("core: re-audit after shard repair: %w", err)
		}
	}
	return nil
}
