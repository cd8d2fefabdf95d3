package pairing

import (
	"bytes"
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"testing"

	"seccloud/internal/curve"
)

func testParams(t *testing.T) *Params {
	t.Helper()
	return InsecureTest256()
}

func randScalar(t *testing.T, pp *Params) *big.Int {
	t.Helper()
	k, err := pp.G1().Scalars().Rand(rand.Reader)
	if err != nil {
		t.Fatalf("sampling scalar: %v", err)
	}
	return k
}

func TestByName(t *testing.T) {
	for _, name := range []string{"SS512", "ss512", "InsecureTest256", "test256"} {
		if _, err := ByName(name); err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestBilinearity(t *testing.T) {
	pp := testParams(t)
	g := pp.G1()
	gen := g.Generator()
	base := pp.Pair(gen, gen)
	if base.IsOne() {
		t.Fatal("pairing degenerate on generator")
	}
	for i := 0; i < 10; i++ {
		a := randScalar(t, pp)
		b := randScalar(t, pp)
		pa := g.BaseMult(a)
		qb := g.BaseMult(b)
		// ê(aP, bP) == ê(P,P)^(ab)
		lhs := pp.Pair(pa, qb)
		ab := new(big.Int).Mul(a, b)
		if !lhs.Equal(base.Exp(ab)) {
			t.Fatal("bilinearity fails")
		}
		// ê(aP, Q)·ê(bP, Q) == ê((a+b)P, Q)
		q := g.BaseMult(randScalar(t, pp))
		prod := pp.Pair(pa, q).Mul(pp.Pair(g.BaseMult(b), q))
		sum := pp.Pair(g.BaseMult(new(big.Int).Add(a, b)), q)
		if !prod.Equal(sum) {
			t.Fatal("additivity in first argument fails")
		}
	}
}

func TestSymmetry(t *testing.T) {
	pp := testParams(t)
	g := pp.G1()
	for i := 0; i < 5; i++ {
		p, _, _ := g.RandPoint(rand.Reader)
		q, _, _ := g.RandPoint(rand.Reader)
		if !pp.Pair(p, q).Equal(pp.Pair(q, p)) {
			t.Fatal("pairing not symmetric")
		}
	}
}

func TestPairWithSelf(t *testing.T) {
	// ê(P, P) must be well-defined and non-degenerate: the distortion map
	// guarantees φ(P) is independent of P.
	pp := testParams(t)
	p, _, _ := pp.G1().RandPoint(rand.Reader)
	e := pp.Pair(p, p)
	if e.IsOne() {
		t.Fatal("self-pairing degenerate")
	}
}

func TestPairIdentityCases(t *testing.T) {
	pp := testParams(t)
	g := pp.G1()
	p, _, _ := g.RandPoint(rand.Reader)
	if !pp.Pair(g.Infinity(), p).IsOne() {
		t.Fatal("ê(O, P) should be 1")
	}
	if !pp.Pair(p, g.Infinity()).IsOne() {
		t.Fatal("ê(P, O) should be 1")
	}
}

func TestPairNegation(t *testing.T) {
	pp := testParams(t)
	g := pp.G1()
	p, _, _ := g.RandPoint(rand.Reader)
	q, _, _ := g.RandPoint(rand.Reader)
	e := pp.Pair(p, q)
	en := pp.Pair(g.Neg(p), q)
	if !e.Mul(en).IsOne() {
		t.Fatal("ê(−P, Q) is not the inverse of ê(P, Q)")
	}
	if !en.Equal(e.Inv()) {
		t.Fatal("Inv() disagrees with pairing of negated point")
	}
}

func TestGTOrder(t *testing.T) {
	pp := testParams(t)
	g := pp.G1()
	p, _, _ := g.RandPoint(rand.Reader)
	q, _, _ := g.RandPoint(rand.Reader)
	e := pp.Pair(p, q)
	if !e.Exp(pp.G1().Q()).IsOne() {
		t.Fatal("GT element does not have order dividing q")
	}
	// Exponent reduction: e^(q+3) == e^3.
	q3 := new(big.Int).Add(g.Q(), big.NewInt(3))
	if !e.Exp(q3).Equal(e.Exp(big.NewInt(3))) {
		t.Fatal("exponents not reduced mod q")
	}
}

func TestPairProdMatchesProduct(t *testing.T) {
	pp := testParams(t)
	g := pp.G1()
	rng := mrand.New(mrand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		n := 1 + rng.Intn(6)
		ps := make([]*curve.Point, n)
		qs := make([]*curve.Point, n)
		want := pp.One()
		for i := 0; i < n; i++ {
			ps[i], _, _ = g.RandPoint(rand.Reader)
			qs[i], _, _ = g.RandPoint(rand.Reader)
			want = want.Mul(pp.Pair(ps[i], qs[i]))
		}
		got, err := pp.PairProd(ps, qs)
		if err != nil {
			t.Fatalf("PairProd: %v", err)
		}
		if !got.Equal(want) {
			t.Fatal("PairProd disagrees with explicit product")
		}
	}
	if _, err := pp.PairProd(make([]*curve.Point, 2), make([]*curve.Point, 3)); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestPairProdSkipsInfinity(t *testing.T) {
	pp := testParams(t)
	g := pp.G1()
	p, _, _ := g.RandPoint(rand.Reader)
	q, _, _ := g.RandPoint(rand.Reader)
	got, err := pp.PairProd(
		[]*curve.Point{p, g.Infinity()},
		[]*curve.Point{q, p},
	)
	if err != nil {
		t.Fatalf("PairProd: %v", err)
	}
	if !got.Equal(pp.Pair(p, q)) {
		t.Fatal("infinity pair should contribute identity")
	}
}

func TestGTMarshalRoundtrip(t *testing.T) {
	pp := testParams(t)
	g := pp.G1()
	p, _, _ := g.RandPoint(rand.Reader)
	q, _, _ := g.RandPoint(rand.Reader)
	e := pp.Pair(p, q)
	enc := e.Marshal()
	if len(enc) != pp.GTLen() {
		t.Fatalf("GT encoding length %d, want %d", len(enc), pp.GTLen())
	}
	dec, err := pp.UnmarshalGT(enc)
	if err != nil {
		t.Fatalf("UnmarshalGT: %v", err)
	}
	if !dec.Equal(e) {
		t.Fatal("GT roundtrip mismatch")
	}
}

func TestUnmarshalGTRejectsBadElements(t *testing.T) {
	pp := testParams(t)
	// Wrong length.
	if _, err := pp.UnmarshalGT(make([]byte, 3)); err == nil {
		t.Fatal("short GT encoding accepted")
	}
	// All-zero (the zero element of Fp2, not in GT).
	if _, err := pp.UnmarshalGT(make([]byte, pp.GTLen())); err == nil {
		t.Fatal("zero GT element accepted")
	}
	// An Fp2 element outside the order-q subgroup: 2 + 0i has huge order.
	fb := pp.GTLen() / 2
	buf := make([]byte, pp.GTLen())
	buf[fb-1] = 2
	if _, err := pp.UnmarshalGT(buf); err == nil {
		t.Fatal("non-subgroup GT element accepted")
	}
}

func TestSS512ParametersValid(t *testing.T) {
	// mustParams already validates (p+1 = h·q, generator order); also
	// confirm the bit lengths the paper's Table I setting implies.
	pp := SS512()
	if got := pp.G1().P().BitLen(); got != 512 {
		t.Fatalf("SS512 field size %d bits, want 512", got)
	}
	if got := pp.G1().Q().BitLen(); got != 160 {
		t.Fatalf("SS512 group order %d bits, want 160", got)
	}
	if !pp.G1().P().ProbablyPrime(32) || !pp.G1().Q().ProbablyPrime(32) {
		t.Fatal("SS512 parameters not prime")
	}
}

func TestSS512BilinearOnce(t *testing.T) {
	// One full-size sanity check; kept to a single iteration for speed.
	pp := SS512()
	g := pp.G1()
	a := big.NewInt(1234567)
	b := big.NewInt(7654321)
	lhs := pp.Pair(g.BaseMult(a), g.BaseMult(b))
	rhs := pp.Pair(g.Generator(), g.Generator()).Exp(new(big.Int).Mul(a, b))
	if !lhs.Equal(rhs) {
		t.Fatal("SS512 bilinearity fails")
	}
}

// TestPairMatchesAffineOracle runs the limb pairing beside the affine
// math/big one it replaced, at both parameter sets.
func TestPairMatchesAffineOracle(t *testing.T) {
	for _, pp := range []*Params{InsecureTest256(), SS512()} {
		g := pp.G1()
		rng := mrand.New(mrand.NewSource(99))
		var ps, qs []*curve.Point
		for i := 0; i < 4; i++ {
			p := g.BaseMult(new(big.Int).Rand(rng, g.Q()))
			q := g.BaseMult(new(big.Int).Rand(rng, g.Q()))
			ps, qs = append(ps, p), append(qs, q)
			if got, want := pp.Pair(p, q), pp.oraclePair(p, q); !got.Equal(want) {
				t.Fatalf("%s: Pair disagrees with the affine oracle", pp.Name())
			}
		}
		got, err := pp.PairProd(ps, qs)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(pp.oraclePairProd(ps, qs)) {
			t.Fatalf("%s: PairProd disagrees with the affine oracle", pp.Name())
		}
	}
}

// cofactorPoints returns three points of E(Fp) outside G1, each of order
// dividing the cofactor h: the rational 2-torsion point (0, 0), a point of
// the smallest odd prime order ℓ dividing h, and q·P for a curve point P
// whose image keeps a component of order above 2¹⁶.
func cofactorPoints(t *testing.T, g *curve.Group) (twoTorsion, smallL, largeL *curve.Point) {
	t.Helper()
	h, q := g.Cofactor(), g.Q()
	smooth, rest, ell := big.NewInt(1), new(big.Int).Set(h), int64(0)
	for l := int64(2); l < 1<<16; l++ {
		lb, quo, rem := big.NewInt(l), new(big.Int), new(big.Int)
		for quo.DivMod(rest, lb, rem); rem.Sign() == 0; quo.DivMod(rest, lb, rem) {
			rest.Set(quo)
			smooth.Mul(smooth, lb)
			if ell == 0 && l%2 == 1 {
				ell = l
			}
		}
	}
	if ell == 0 {
		t.Fatal("cofactor has no small odd prime factor")
	}
	order := new(big.Int).Mul(h, q)
	toEll := new(big.Int).Div(order, big.NewInt(ell))
	p := g.P()
	for x := int64(2); x < 1000 && (smallL == nil || largeL == nil); x++ {
		xb := big.NewInt(x)
		rhs := new(big.Int).Mul(xb, xb)
		rhs.Mul(rhs, xb).Add(rhs, xb).Mod(rhs, p)
		y, ok := g.FieldCtx().Sqrt(rhs)
		if !ok {
			continue
		}
		pt := &curve.Point{X: xb, Y: y}
		if r := g.ScalarMult(pt, toEll); smallL == nil && !r.Inf {
			smallL = r
		}
		if r := g.ScalarMult(pt, q); largeL == nil && !g.ScalarMult(r, smooth).Inf {
			largeL = r
		}
	}
	if smallL == nil || largeL == nil {
		t.Fatal("no cofactor points found")
	}
	if !g.ScalarMult(smallL, big.NewInt(ell)).Inf {
		t.Fatalf("small-order point does not have order %d", ell)
	}
	return &curve.Point{X: big.NewInt(0), Y: big.NewInt(0)}, smallL, largeL
}

// TestPairIgnoresCofactorComponents is the identity that lets a verifier
// skip the G1 membership check of a point that only ever enters a pairing
// as the evaluation argument: with the Miller loop run on P ∈ E[q], the
// reduced Tate pairing is a function on E/qE, so any component R of order
// dividing the cofactor h vanishes, ê(P, Q + R) = ê(P, Q). Each cofactor
// point is added to the evaluation argument of an order-q pair, and Pair,
// the precomputed replay, every term of a two-term PairProd and the affine
// math/big oracle must all return the clean pair's GT element byte for
// byte, at both parameter sets. The same component on the Miller-loop side
// changes the value: that argument stays under a membership check.
func TestPairIgnoresCofactorComponents(t *testing.T) {
	for _, pp := range []*Params{InsecureTest256(), SS512()} {
		g := pp.G1()
		rng := mrand.New(mrand.NewSource(43))
		point := func() *curve.Point { return g.BaseMult(new(big.Int).Rand(rng, g.Q())) }
		p, q, p2, q2 := point(), point(), point(), point()
		clean := pp.Pair(p, q).Marshal()
		cleanProd := pp.Pair(p, q).Mul(pp.Pair(p2, q2)).Marshal()
		pc := pp.Precompute(p)
		twoTorsion, smallL, largeL := cofactorPoints(t, g)
		for _, r := range []struct {
			name string
			pt   *curve.Point
		}{{"2-torsion", twoTorsion}, {"small-ℓ", smallL}, {"large-ℓ", largeL}} {
			dirty := g.Add(q, r.pt)
			if g.InSubgroup(dirty) {
				t.Fatalf("%s: Q + %s point lies in G1", pp.Name(), r.name)
			}
			check := func(what string, got *GT) {
				t.Helper()
				if !bytes.Equal(got.Marshal(), clean) {
					t.Errorf("%s: %s with a %s component differs from the clean pair", pp.Name(), what, r.name)
				}
			}
			check("Pair", pp.Pair(p, dirty))
			check("Precomp.Pair", pc.Pair(dirty))
			check("affine oracle", pp.oraclePair(p, dirty))
			for k := 0; k < 2; k++ {
				ps, qs := []*curve.Point{p, p2}, []*curve.Point{q, q2}
				qs[k] = g.Add(qs[k], r.pt)
				got, err := pp.PairProd(ps, qs)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Marshal(), cleanProd) || !bytes.Equal(pp.oraclePairProd(ps, qs).Marshal(), cleanProd) {
					t.Errorf("%s: PairProd term %d with a %s component differs from the clean product", pp.Name(), k, r.name)
				}
			}
		}
		if bytes.Equal(pp.Pair(g.Add(p, largeL), q).Marshal(), clean) {
			t.Errorf("%s: a cofactor component on the Miller-loop side left the pairing unchanged", pp.Name())
		}
	}
}

// TestPairingAllocs is the exact-count guard at SS512: the math/big loops
// allocated 16.5 k times a cold pairing and 9.9 k times a precomputed one;
// the limb loops only at conversion out and in the one field inversion of
// the final exponentiation.
func TestPairingAllocs(t *testing.T) {
	pp := SS512()
	g := pp.G1()
	rng := mrand.New(mrand.NewSource(98))
	p := g.BaseMult(new(big.Int).Rand(rng, g.Q()))
	q := g.BaseMult(new(big.Int).Rand(rng, g.Q()))
	if n := testing.AllocsPerRun(5, func() { pp.Pair(p, q) }); n > 200 {
		t.Fatalf("Pair allocates %v times a call, ceiling is 200", n)
	}
	pc := pp.Precompute(p)
	if n := testing.AllocsPerRun(5, func() { pc.Pair(q) }); n > 100 {
		t.Fatalf("Precomp.Pair allocates %v times a call, ceiling is 100", n)
	}
}
