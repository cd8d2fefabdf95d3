package pairing

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// TestPrecompMatchesPair is the interoperability property everything rests
// on: a precomputed pairing must equal the cold one after the final
// exponentiation — the same GT element, bit for bit — in both argument
// orders (symmetry pins the fixed argument into the first slot). The two
// Miller values themselves differ by a factor in Fp*, which the replay's
// normalised lines introduce and the exponentiation removes; that is
// asserted too, so a replay that drifted by anything else cannot hide.
func TestPrecompMatchesPair(t *testing.T) {
	pp := testParams(t)
	g := pp.G1()
	for i := 0; i < 5; i++ {
		fixed, _, err := g.RandPoint(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		pc := pp.Precompute(fixed)
		for j := 0; j < 5; j++ {
			q, _, err := g.RandPoint(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			got := pc.Pair(q)
			if !got.Equal(pp.Pair(fixed, q)) {
				t.Fatal("precomputed pairing disagrees with Pair(fixed, q)")
			}
			if !got.Equal(pp.Pair(q, fixed)) {
				t.Fatal("precomputed pairing disagrees with Pair(q, fixed) — symmetry broken")
			}
			// cold/replay ∈ Fp*: cold·conj(replay) has no imaginary part.
			cold := pp.miller([]millerPair{pp.newMillerPair(fixed, q)})
			replay := pc.millerEval(q)
			pp.fp.Neg(&replay.B, &replay.B)
			pp.fp.Mul2(&cold, &cold, &replay)
			if !pp.fp.IsZero(&cold.B) || pp.fp.IsZero(&cold.A) {
				t.Fatal("replayed Miller value is not an Fp* multiple of the cold one")
			}
		}
	}
}

func TestPrecompGenerator(t *testing.T) {
	// The generator exercises the equal-points addition branch of the
	// Miller loop (R passes through multiples of P).
	pp := testParams(t)
	g := pp.G1()
	pc := pp.Precompute(g.Generator())
	q, _, err := g.RandPoint(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if !pc.Pair(q).Equal(pp.Pair(g.Generator(), q)) {
		t.Fatal("generator precomp disagrees with cold pairing")
	}
	if !g.Equal(pc.Fixed(), g.Generator()) {
		t.Fatal("Fixed() does not round-trip the precomputed point")
	}
}

func TestPrecompIdentityCases(t *testing.T) {
	pp := testParams(t)
	g := pp.G1()
	q, _, err := g.RandPoint(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if !pp.Precompute(g.Infinity()).Pair(q).IsOne() {
		t.Fatal("ê(O, Q) should be 1 via precomp")
	}
	if !pp.Precompute(q).Pair(g.Infinity()).IsOne() {
		t.Fatal("ê(P, O) should be 1 via precomp")
	}
}

func TestPrecompSS512(t *testing.T) {
	// One full-size check that the recorded lines replay correctly on the
	// production parameter set.
	pp := SS512()
	g := pp.G1()
	p := g.BaseMult(big.NewInt(1234567))
	q := g.BaseMult(big.NewInt(7654321))
	if !pp.Precompute(p).Pair(q).Equal(pp.Pair(p, q)) {
		t.Fatal("SS512 precomp disagrees with cold pairing")
	}
}

// TestPrecompCountsAsMillerLoop pins the accounting contract: replaying a
// precomputation is still one Miller-loop evaluation in the op counters,
// so Table II / Figure 5 pairing counts are unchanged by the cache.
func TestPrecompCountsAsMillerLoop(t *testing.T) {
	pp := testParams(t)
	g := pp.G1()
	p, _, _ := g.RandPoint(rand.Reader)
	q, _, _ := g.RandPoint(rand.Reader)
	pc := pp.Precompute(p)
	before := g.Counters().Snapshot()
	pc.Pair(q)
	delta := g.Counters().Snapshot().Sub(before)
	if delta.MillerLoops != 1 || delta.FinalExps != 1 {
		t.Fatalf("precomp pairing counted %d Miller loops / %d final exps, want 1/1",
			delta.MillerLoops, delta.FinalExps)
	}
}
