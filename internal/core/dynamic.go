package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"seccloud/internal/transport"
	"seccloud/internal/wire"
)

// Dynamic storage operations — an extension beyond the paper's static
// protocol, following the partially-dynamic PDP line of work it cites
// ([9] Ateniese et al., [10] Wang et al.): a user may replace or delete
// individual outsourced blocks after the initial upload.
//
// Every mutation is authenticated with the user's identity-based signature
// over (operation, user, position, sequence number, content) and the
// server enforces strictly increasing sequence numbers per user, so
// captured mutations cannot be replayed and mutations cannot be reordered
// by a network adversary.

// mutationSeq hands out the user's strictly increasing sequence numbers.
// The counter lives in the User instance: recreating a User (e.g. after a
// process restart) resets it to zero, and the server — which remembers the
// highest applied sequence — will reject the stale numbers. Long-lived
// deployments should persist the counter alongside the user's key.
type mutationSeq struct {
	next atomic.Uint64
}

func (m *mutationSeq) take() uint64 { return m.next.Add(1) }

// UpdateBlock replaces the block at pos with newData: it produces a fresh
// designated signature for the verifiers and an authenticated, replay-
// protected mutation request, then applies it through the client.
func (u *User) UpdateBlock(client transport.Client, pos uint64, newData []byte, verifierIDs ...string) error {
	sig, err := u.SignBlock(pos, newData, verifierIDs...)
	if err != nil {
		return err
	}
	req := &wire.UpdateRequest{
		UserID:   u.key.ID,
		Position: pos,
		Seq:      u.seq.take(),
		Block:    newData,
		Sig:      sig,
	}
	auth, err := u.scheme.Sign(u.key, req.UpdateAuthBody(), u.random)
	if err != nil {
		return fmt.Errorf("core: signing update authorization: %w", err)
	}
	req.Auth = EncodeIBSig(u.scheme.Params(), auth)
	return u.roundTripAck(client, req, "update")
}

// DeleteBlock removes the block at pos with an authenticated request.
func (u *User) DeleteBlock(client transport.Client, pos uint64) error {
	req := &wire.DeleteRequest{
		UserID:   u.key.ID,
		Position: pos,
		Seq:      u.seq.take(),
	}
	auth, err := u.scheme.Sign(u.key, req.DeleteAuthBody(), u.random)
	if err != nil {
		return fmt.Errorf("core: signing delete authorization: %w", err)
	}
	req.Auth = EncodeIBSig(u.scheme.Params(), auth)
	return u.roundTripAck(client, req, "delete")
}

// roundTripAck sends a mutation and interprets the StoreResponse ack.
func (u *User) roundTripAck(client transport.Client, req wire.Message, op string) error {
	resp, err := client.RoundTripContext(context.Background(), req)
	if err != nil {
		return fmt.Errorf("core: %s round trip: %w", op, err)
	}
	switch r := resp.(type) {
	case *wire.StoreResponse:
		if !r.OK {
			return fmt.Errorf("core: server rejected %s: %s", op, r.Error)
		}
		return nil
	case *wire.ErrorResponse:
		return fmt.Errorf("core: %s failed: %s: %s", op, r.Code, r.Msg)
	default:
		return fmt.Errorf("core: unexpected %s response %T", op, resp)
	}
}

// handleUpdate validates and applies a block replacement.
func (s *Server) handleUpdate(req *wire.UpdateRequest) wire.Message {
	auth, err := DecodeIBSig(s.scheme.Params(), req.Auth)
	if err != nil {
		return &wire.StoreResponse{OK: false, Error: fmt.Sprintf("update auth malformed: %v", err)}
	}
	if err := s.scheme.PublicVerify(req.UserID, req.UpdateAuthBody(), auth); err != nil {
		return &wire.StoreResponse{OK: false, Error: fmt.Sprintf("update auth invalid: %v", err)}
	}
	if s.cfg.VerifyOnStore {
		d, err := DecodeBlockSig(s.scheme.Params(), &req.Sig, s.id)
		if err != nil {
			return &wire.StoreResponse{OK: false, Error: err.Error()}
		}
		if err := s.scheme.Verify(d, BlockMessage(req.Position, req.Block), s.key); err != nil {
			return &wire.StoreResponse{OK: false, Error: fmt.Sprintf("new block signature invalid: %v", err)}
		}
	}
	digest := digestUpdateReq(req)
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.Seq == s.mutSeq[req.UserID] && req.Seq != 0 && s.lastMut[req.UserID] == digest {
		// The exact mutation we already applied, delivered again (client
		// retry after a lost or crashed-away ack): re-acknowledge.
		return &wire.StoreResponse{OK: true}
	}
	if req.Seq <= s.mutSeq[req.UserID] {
		return &wire.StoreResponse{OK: false,
			Error: fmt.Sprintf("stale mutation sequence %d (last %d)", req.Seq, s.mutSeq[req.UserID])}
	}
	userStore, ok := s.storage[req.UserID]
	if !ok {
		return &wire.StoreResponse{OK: false, Error: "no data stored for user"}
	}
	if _, ok := userStore[req.Position]; !ok {
		return &wire.StoreResponse{OK: false,
			Error: fmt.Sprintf("no block at position %d", req.Position)}
	}
	data, keep := s.cfg.Policy.OnStore(req.Position, req.Block, req.Sig)
	pb := persistedBlock{Pos: req.Position, Kept: keep, Size: len(req.Block), Sig: req.Sig}
	if keep {
		pb.Data = data
	}
	w := &walUpdate{UserID: req.UserID, Seq: req.Seq, Digest: digest, Block: pb}
	if msg := s.persistLocked(recUpdate, s.walRecord(w)); msg != nil {
		return msg
	}
	s.applyUpdateLocked(w)
	s.maybeSnapshotLocked()
	return &wire.StoreResponse{OK: true}
}

// handleDelete validates and applies a block removal.
func (s *Server) handleDelete(req *wire.DeleteRequest) wire.Message {
	auth, err := DecodeIBSig(s.scheme.Params(), req.Auth)
	if err != nil {
		return &wire.StoreResponse{OK: false, Error: fmt.Sprintf("delete auth malformed: %v", err)}
	}
	if err := s.scheme.PublicVerify(req.UserID, req.DeleteAuthBody(), auth); err != nil {
		return &wire.StoreResponse{OK: false, Error: fmt.Sprintf("delete auth invalid: %v", err)}
	}
	digest := digestDeleteReq(req)
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.Seq == s.mutSeq[req.UserID] && req.Seq != 0 && s.lastMut[req.UserID] == digest {
		return &wire.StoreResponse{OK: true} // duplicate delivery of the applied delete
	}
	if req.Seq <= s.mutSeq[req.UserID] {
		return &wire.StoreResponse{OK: false,
			Error: fmt.Sprintf("stale mutation sequence %d (last %d)", req.Seq, s.mutSeq[req.UserID])}
	}
	userStore, ok := s.storage[req.UserID]
	if !ok {
		return &wire.StoreResponse{OK: false, Error: "no data stored for user"}
	}
	if _, ok := userStore[req.Position]; !ok {
		return &wire.StoreResponse{OK: false,
			Error: fmt.Sprintf("no block at position %d", req.Position)}
	}
	w := &walDelete{UserID: req.UserID, Pos: req.Position, Seq: req.Seq, Digest: digest}
	if msg := s.persistLocked(recDelete, s.walRecord(w)); msg != nil {
		return msg
	}
	s.applyDeleteLocked(w)
	s.maybeSnapshotLocked()
	return &wire.StoreResponse{OK: true}
}
