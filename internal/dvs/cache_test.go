package dvs

import (
	"crypto/rand"
	"fmt"
	"testing"

	"seccloud/internal/ibc"
	"seccloud/internal/pairing"
)

// TestVerifierCacheBounded locks the satellite fix: with n share keys a
// threshold agency touches many verifier identities, and the precompute
// cache must stay bounded at its LRU capacity instead of growing per key.
func TestVerifierCacheBounded(t *testing.T) {
	sio, err := ibc.Setup(pairing.InsecureTest256(), rand.Reader)
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	s := NewScheme(sio.Params()).WithVerifierCacheCap(4)
	keys := make([]*ibc.PrivateKey, 10)
	for i := range keys {
		if keys[i], err = sio.Extract(fmt.Sprintf("da:share-%d", i)); err != nil {
			t.Fatalf("Extract: %v", err)
		}
		s.PrecomputeVerifier(keys[i])
	}
	if got := s.VerifierCacheLen(); got != 4 {
		t.Fatalf("cache holds %d entries, capacity is 4", got)
	}

	// Eviction must not affect correctness: a signature still verifies
	// under a key whose precomputation was evicted (it is simply rebuilt).
	user, err := sio.Extract("user:alice")
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	msg := []byte("data")
	for _, k := range keys {
		ds, err := s.SignDesignated(user, msg, rand.Reader, k.ID)
		if err != nil {
			t.Fatalf("SignDesignated: %v", err)
		}
		if err := s.Verify(ds[0], msg, k); err != nil {
			t.Fatalf("Verify under %s after eviction: %v", k.ID, err)
		}
	}
	if got := s.VerifierCacheLen(); got != 4 {
		t.Fatalf("cache grew to %d entries after verifies, capacity is 4", got)
	}

	// Explicit eviction and shrink both drop entries.
	s.EvictVerifier(keys[9].ID)
	if got := s.VerifierCacheLen(); got != 3 {
		t.Fatalf("EvictVerifier left %d entries, want 3", got)
	}
	s.WithVerifierCacheCap(1)
	if got := s.VerifierCacheLen(); got != 1 {
		t.Fatalf("shrink left %d entries, want 1", got)
	}
}

// TestVerifierCacheLRUOrder verifies recency promotion: touching an old
// entry saves it from eviction.
func TestVerifierCacheLRUOrder(t *testing.T) {
	sio, err := ibc.Setup(pairing.InsecureTest256(), rand.Reader)
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	s := NewScheme(sio.Params()).WithVerifierCacheCap(2)
	a, _ := sio.Extract("da:a")
	b, _ := sio.Extract("da:b")
	c, _ := sio.Extract("da:c")
	s.PrecomputeVerifier(a)
	s.PrecomputeVerifier(b)
	s.PrecomputeVerifier(a) // promote a; b is now LRU
	s.PrecomputeVerifier(c) // evicts b
	if _, ok := s.verifiers.lookup(a); !ok {
		t.Fatalf("promoted entry a was evicted")
	}
	if _, ok := s.verifiers.lookup(c); !ok {
		t.Fatalf("fresh entry c was evicted")
	}
	if _, ok := s.verifiers.lookup(b); ok {
		t.Fatalf("LRU entry b survived past capacity")
	}
}

// TestVerifierCacheRekey verifies that a re-issued key for the same
// identity invalidates the stale precomputation instead of mis-verifying.
func TestVerifierCacheRekey(t *testing.T) {
	sioOld, err := ibc.Setup(pairing.InsecureTest256(), rand.Reader)
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	sioNew, err := ibc.Setup(pairing.InsecureTest256(), rand.Reader)
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	s := NewScheme(sioOld.Params())
	oldKey, _ := sioOld.Extract("da:auditor")
	s.PrecomputeVerifier(oldKey)
	newKey, _ := sioNew.Extract("da:auditor")
	// Same identity, different master secret → different SK point. The
	// cache must detect the mismatch and rebuild, not replay the old
	// Miller loop.
	if _, ok := s.verifiers.lookup(newKey); ok {
		t.Fatalf("stale precomputation returned for re-issued key")
	}
	if got := s.VerifierCacheLen(); got != 0 {
		t.Fatalf("stale entry still cached (%d entries)", got)
	}
}
