package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"seccloud/internal/dvs"
	"seccloud/internal/wire"
)

// VerifyWarrant checks a delegation warrant: the user's signature over the
// warrant body, expiry against now, and — when non-empty — the expected
// job and delegate bindings. The cloud server (before answering a
// challenge) and the DA (before accepting a delegation) run the same
// checks through their own sigMemo.
func VerifyWarrant(scheme *dvs.Scheme, w *wire.Warrant, jobID, delegateID string, now time.Time) error {
	return (*sigMemo)(nil).verifyWarrant(scheme, w, jobID, delegateID, now)
}

// CheckWarrantPolicy runs the non-cryptographic warrant checks: job and
// delegate bindings plus expiry against now. Callers that have already
// verified the warrant's signature (and cached that fact) still re-run
// this on every use — expiry is the only part of a warrant that can go
// stale between challenge rounds.
func CheckWarrantPolicy(w *wire.Warrant, jobID, delegateID string, now time.Time) error {
	if w == nil {
		return fmt.Errorf("core: missing warrant")
	}
	if jobID != "" && w.JobID != "" && w.JobID != jobID {
		return fmt.Errorf("core: warrant is for job %q, want %q", w.JobID, jobID)
	}
	if delegateID != "" && w.DelegateID != delegateID {
		return fmt.Errorf("core: warrant delegates to %q, want %q", w.DelegateID, delegateID)
	}
	if now.Unix() > w.NotAfterUnix {
		return fmt.Errorf("core: warrant expired at %s",
			time.Unix(w.NotAfterUnix, 0).UTC().Format(time.RFC3339))
	}
	return nil
}

// checkWarrantOwner binds a warrant to the data it unlocks: a user's
// signature delegates the audit of that user's own data and nobody
// else's, so an empty job binding (WildcardWarrant) still means "any of
// the signer's data".
func checkWarrantOwner(w *wire.Warrant, ownerID string) error {
	if w.UserID != ownerID {
		return fmt.Errorf("core: warrant signed by %q does not cover data of %q", w.UserID, ownerID)
	}
	return nil
}

// sigMemoLimit bounds a sigMemo; past it the memo resets wholesale
// (re-verification is correct, just slower).
const sigMemoLimit = 1 << 14

// sigMemo remembers identity-based signatures that have verified, so a
// delegation audited over and over pays for its warrant and its root
// signature once per process. An entry is the SHA-256 of the
// length-prefixed (signer ID, message, U, V): the verdict is a function of
// exactly those bytes and the process's own parameters, and with every
// field length-prefixed no two distinct tuples share an encoding. Only
// successes are stored, and the memo is never serialised. The zero value
// is ready to use; a nil *sigMemo verifies without remembering.
type sigMemo struct {
	mu sync.Mutex
	ok map[[sha256.Size]byte]struct{}
}

// verifyWarrant is VerifyWarrant with the signature check going through
// the memo. The policy checks run on every call, before the signature.
func (m *sigMemo) verifyWarrant(scheme *dvs.Scheme, w *wire.Warrant, jobID, delegateID string, now time.Time) error {
	if err := CheckWarrantPolicy(w, jobID, delegateID, now); err != nil {
		return err
	}
	return m.verify(scheme, "warrant", w.UserID, w.Body(), w.Sig)
}

// verify checks ws as signerID's signature on msg; what names the
// signature in the error.
func (m *sigMemo) verify(scheme *dvs.Scheme, what, signerID string, msg []byte, ws wire.IBSig) error {
	var key [sha256.Size]byte
	if m != nil {
		key = sigMemoKey(signerID, msg, ws)
		m.mu.Lock()
		_, hit := m.ok[key]
		m.mu.Unlock()
		if hit {
			return nil
		}
	}
	sig, err := DecodeIBSig(scheme.Params(), ws)
	if err != nil {
		return fmt.Errorf("core: %s signature malformed: %w", what, err)
	}
	if err := scheme.PublicVerify(signerID, msg, sig); err != nil {
		return fmt.Errorf("core: %s signature invalid: %w", what, err)
	}
	if m != nil {
		m.mu.Lock()
		if m.ok == nil || len(m.ok) >= sigMemoLimit {
			m.ok = make(map[[sha256.Size]byte]struct{})
		}
		m.ok[key] = struct{}{}
		m.mu.Unlock()
	}
	return nil
}

func sigMemoKey(signerID string, msg []byte, ws wire.IBSig) [sha256.Size]byte {
	h := sha256.New()
	var n [8]byte
	for _, field := range [][]byte{[]byte(signerID), msg, ws.U, ws.V} {
		binary.BigEndian.PutUint64(n[:], uint64(len(field)))
		h.Write(n[:])
		h.Write(field)
	}
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}
