// Package merkle implements the Merkle-hash-tree commitment scheme from
// SecCloud §V-C: the cloud server commits to all computation results
// *before* being challenged by building a binary hash tree over leaves
// v_i = H(y_i ‖ p_i) (result ‖ position) and signing the root R.
//
// Audit-time, the server reveals per-challenge authentication paths
// (sibling sets); the verifier reconstructs R* bottom-up (paper eq. 6,
// Ω(V) = H(Ω(V_left) ‖ Ω(V_right))) and accepts only if R* = R, which
// proves the challenged result was fixed before the tree was built.
package merkle

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// HashLen is the byte length of node hashes (SHA-256).
const HashLen = sha256.Size

// Domain-separation prefixes: leaves and interior nodes hash differently so
// an attacker cannot present an interior node as a leaf (second-preimage
// attack on unbalanced trees).
const (
	tagLeaf byte = 0x00
	tagNode byte = 0x01
)

var (
	// ErrEmptyTree reports construction over zero leaves.
	ErrEmptyTree = errors.New("merkle: tree needs at least one leaf")
	// ErrBadProof reports a malformed or failing authentication path.
	ErrBadProof = errors.New("merkle: invalid proof")
)

// LeafData binds a computation result to its data position, matching the
// paper's leaf definition v_i = H(y_i ‖ p_i).
type LeafData struct {
	Result   []byte // encoded y_i
	Position uint64 // p_i, the data-block index the result came from
}

// leafBufLen sizes the stack array hashLeaf assembles its input in: the
// 17 framing bytes plus results of up to 111 bytes, which covers every
// registered function's output. A longer result moves the input to the
// heap through append; the bytes hashed are the same.
const leafBufLen = 128

// hashLeaf computes v_i = H(tag ‖ len(y_i) ‖ y_i ‖ p_i), lengths and
// positions as 8 big-endian bytes.
func hashLeaf(d LeafData) [HashLen]byte {
	var arr [leafBufLen]byte
	buf := append(arr[:0], tagLeaf)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(d.Result)))
	buf = append(buf, d.Result...)
	buf = binary.BigEndian.AppendUint64(buf, d.Position)
	return sha256.Sum256(buf)
}

// hashNode computes Ω(V) = H(tag ‖ Ω(left) ‖ Ω(right)).
func hashNode(l, r [HashLen]byte) [HashLen]byte {
	var buf [1 + 2*HashLen]byte
	buf[0] = tagNode
	copy(buf[1:], l[:])
	copy(buf[1+HashLen:], r[:])
	return sha256.Sum256(buf[:])
}

// Tree is a complete binary Merkle tree over n leaves. When n is not a
// power of two the last leaf hash is duplicated upward, the classic
// completion rule; duplicated nodes can never be opened as leaves thanks to
// the leaf/node tag separation. Trees are immutable once built.
type Tree struct {
	n      int
	levels [][][HashLen]byte // levels[0] = leaf hashes, last = [root]
}

// Build constructs the commitment tree over the given leaves.
func Build(leaves []LeafData) (*Tree, error) {
	if len(leaves) == 0 {
		return nil, ErrEmptyTree
	}
	level := make([][HashLen]byte, len(leaves))
	for i, d := range leaves {
		level[i] = hashLeaf(d)
	}
	t := &Tree{n: len(leaves)}
	t.levels = append(t.levels, level)
	for len(level) > 1 {
		next := make([][HashLen]byte, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next[i/2] = hashNode(level[i], level[i+1])
			} else {
				next[i/2] = hashNode(level[i], level[i]) // duplicate odd tail
			}
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t, nil
}

// Len returns the number of leaves.
func (t *Tree) Len() int { return t.n }

// Root returns the commitment root R.
func (t *Tree) Root() [HashLen]byte { return t.levels[len(t.levels)-1][0] }

// Height returns the number of edge levels from leaf to root.
func (t *Tree) Height() int { return len(t.levels) - 1 }

// ProofStep is one sibling hash along an authentication path, with its side.
type ProofStep struct {
	Hash  [HashLen]byte
	Right bool // true when the sibling is the right child at this level
}

// Proof is the sibling set for one leaf: everything a verifier needs,
// together with the leaf data itself, to recompute the root.
type Proof struct {
	Index int // leaf index being opened
	Steps []ProofStep
}

// Prove returns the authentication path for leaf idx. In the paper's
// Figure 3 example, challenging f4(x4) yields the sibling set {v3, A, F}.
func (t *Tree) Prove(idx int) (*Proof, error) {
	if idx < 0 || idx >= t.n {
		return nil, fmt.Errorf("merkle: leaf index %d out of range [0,%d): %w",
			idx, t.n, ErrBadProof)
	}
	steps := make([]ProofStep, 0, t.Height())
	i := idx
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		level := t.levels[lvl]
		var sib [HashLen]byte
		var right bool
		if i%2 == 0 {
			if i+1 < len(level) {
				sib = level[i+1]
			} else {
				sib = level[i] // odd tail duplicates itself
			}
			right = true
		} else {
			sib = level[i-1]
			right = false
		}
		steps = append(steps, ProofStep{Hash: sib, Right: right})
		i /= 2
	}
	return &Proof{Index: idx, Steps: steps}, nil
}

// VerifyProof recomputes the root from (leaf, proof) and compares it to the
// committed root. This is the verifier-side "reconstruct R*" step of
// Algorithm 1, line 11–12.
func VerifyProof(root [HashLen]byte, leaf LeafData, proof *Proof) error {
	if proof == nil {
		return fmt.Errorf("merkle: nil proof: %w", ErrBadProof)
	}
	cur := hashLeaf(leaf)
	for _, st := range proof.Steps {
		if st.Right {
			cur = hashNode(cur, st.Hash)
		} else {
			cur = hashNode(st.Hash, cur)
		}
	}
	if !bytes.Equal(cur[:], root[:]) {
		return fmt.Errorf("merkle: reconstructed root mismatch: %w", ErrBadProof)
	}
	return nil
}

// RootFromProof returns the root implied by (leaf, proof) without comparing;
// used by audits that batch several openings against one committed root.
func RootFromProof(leaf LeafData, proof *Proof) ([HashLen]byte, error) {
	if proof == nil {
		return [HashLen]byte{}, fmt.Errorf("merkle: nil proof: %w", ErrBadProof)
	}
	cur := hashLeaf(leaf)
	for _, st := range proof.Steps {
		if st.Right {
			cur = hashNode(cur, st.Hash)
		} else {
			cur = hashNode(st.Hash, cur)
		}
	}
	return cur, nil
}
