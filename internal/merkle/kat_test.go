package merkle

import (
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// katLeaves is a fixed 8192-leaf set: results of 0..159 bytes (so leaves
// both fit and overflow any fixed hashing buffer) at scattered positions.
func katLeaves(n int) []LeafData {
	leaves := make([]LeafData, n)
	for i := range leaves {
		res := make([]byte, i%160)
		for j := range res {
			res[j] = byte(i*31 + j*7)
		}
		if len(res) >= 8 {
			binary.BigEndian.PutUint64(res, uint64(i)*0x9e3779b97f4a7c15)
		}
		leaves[i] = LeafData{Result: res, Position: uint64(i)*2654435761 + 17}
	}
	return leaves
}

// TestRootKAT pins the roots of fixed trees to the bytes recorded at
// commit 9a7c9e9, before leaf and node hashing moved off sha256.New: a
// change to how the hash input is assembled must leave every root, and so
// every signed commitment, byte-identical. Sizes cover a power of two,
// an odd count (duplicated tails) and a single leaf.
func TestRootKAT(t *testing.T) {
	for _, c := range []struct {
		n    int
		root string
	}{
		{8192, "202ea117717f4476039e3b081374e39ccab5cf4697f08d374a54688ab22c22f1"},
		{8191, "8b7eaefae74bd3b89e0a29d86bed90a763c1f54cda0b4948f72f47becda799d4"},
		{1, "7f40bf6a3ffd931fccf9bcbd9b0dcf62f83a0efb321c6f43e95c9110c2f51b68"},
	} {
		leaves := katLeaves(c.n)
		tree, err := Build(leaves)
		if err != nil {
			t.Fatal(err)
		}
		root := tree.Root()
		if got := hex.EncodeToString(root[:]); got != c.root {
			t.Errorf("%d leaves: root %s, want %s", c.n, got, c.root)
		}
		par, err := BuildParallel(leaves, 4)
		if err != nil {
			t.Fatal(err)
		}
		if par.Root() != root {
			t.Errorf("%d leaves: parallel root differs", c.n)
		}
		// A long result (past any stack buffer) opens through its proof.
		proof, err := tree.Prove(c.n - 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyProof(root, leaves[c.n-1], proof); err != nil {
			t.Errorf("%d leaves: last leaf's proof: %v", c.n, err)
		}
	}
}
