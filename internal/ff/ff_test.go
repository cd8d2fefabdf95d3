package ff

import (
	"bytes"
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Two fixtures: a tiny prime where behaviour can be eyeballed, and the
// production-sized SS512 prime.
var (
	toyP = big.NewInt(103) // 103 ≡ 3 (mod 4), prime
	bigP = mustBig("9dcd7ce9b75c56827987d2cd06c038fce654b15f3d3ab47af8acbcba1119dd614d69b053f14b7b84c1d376f134ab238261cc3c778fa3b94775baff1606d19093")
	toyQ = big.NewInt(13)
	bigQ = mustBig("d1694ad4e9ac2e91c6f6da19ab35094f14637ae3")
)

func mustBig(hex string) *big.Int {
	v, ok := new(big.Int).SetString(hex, 16)
	if !ok {
		panic("bad hex in test fixture")
	}
	return v
}

func mustCtx(t *testing.T, p *big.Int) *Ctx {
	t.Helper()
	c, err := NewCtx(p)
	if err != nil {
		t.Fatalf("NewCtx(%v): %v", p, err)
	}
	return c
}

func TestNewCtxRejectsBadModuli(t *testing.T) {
	cases := []struct {
		name string
		p    *big.Int
	}{
		{"nil", nil},
		{"zero", big.NewInt(0)},
		{"negative", big.NewInt(-7)},
		{"p=1 mod 4", big.NewInt(13)},
		{"even", big.NewInt(10)},
		{"513 bits", new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 512), big.NewInt(3))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewCtx(tc.p); err == nil {
				t.Fatalf("NewCtx(%v) succeeded, want error", tc.p)
			}
		})
	}
	// The width error names the limit, so a paramgen user knows what to ask for.
	_, err := NewCtx(cases[len(cases)-1].p)
	if !strings.Contains(err.Error(), "513 bits") || !strings.Contains(err.Error(), "512-bit limit") {
		t.Fatalf("width error %q does not name the modulus width and the limit", err)
	}
	// A full 512-bit modulus ≡ 3 (mod 4) is accepted.
	if _, err := NewCtx(new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 512), big.NewInt(1))); err != nil {
		t.Fatalf("NewCtx refused a 512-bit modulus: %v", err)
	}
}

// fp2ExpBinary and fp2MultiExpBinary are the math/big square-and-multiply
// ladders Fp2Exp and Fp2MultiExp ran on before they moved to windowed
// Montgomery-limb kernels, kept as their oracle.
func fp2ExpBinary(c *Ctx, x *Fp2, k *big.Int) *Fp2 {
	r := c.Fp2One()
	for i := k.BitLen() - 1; i >= 0; i-- {
		r = c.Fp2Square(r)
		if k.Bit(i) == 1 {
			r = c.Fp2Mul(r, x)
		}
	}
	return r
}

func fp2MultiExpBinary(c *Ctx, xs []*Fp2, ks []*big.Int) *Fp2 {
	maxBits := 0
	for _, k := range ks {
		if b := k.BitLen(); b > maxBits {
			maxBits = b
		}
	}
	r := c.Fp2One()
	for i := maxBits - 1; i >= 0; i-- {
		r = c.Fp2Square(r)
		for j, k := range ks {
			if k.Bit(i) == 1 {
				r = c.Fp2Mul(r, xs[j])
			}
		}
	}
	return r
}

func TestExpMatchesBinaryLadder(t *testing.T) {
	for _, p := range []*big.Int{toyP, toyP2, test256P, bigP} {
		c := mustCtx(t, p)
		rng := mrand.New(mrand.NewSource(int64(21) + int64(p.BitLen())))
		xs := make([]*Fp2, 12)
		ks := make([]*big.Int, len(xs))
		for i := range xs {
			xs[i] = randFp2(c, rng)
			ks[i] = new(big.Int).Rsh(new(big.Int).Rand(rng, p), uint(i*p.BitLen()/len(xs)))
			if got, want := c.Fp2Exp(xs[i], ks[i]), fp2ExpBinary(c, xs[i], ks[i]); !c.Fp2Equal(got, want) {
				t.Fatalf("mod %v: Fp2Exp(%s, %v) = %s, ladder gives %s", p, c.Fp2String(xs[i]), ks[i], c.Fp2String(got), c.Fp2String(want))
			}
		}
		got, err := c.Fp2MultiExp(xs, ks)
		if err != nil {
			t.Fatal(err)
		}
		if want := fp2MultiExpBinary(c, xs, ks); !c.Fp2Equal(got, want) {
			t.Fatalf("mod %v: Fp2MultiExp = %s, ladder gives %s", p, c.Fp2String(got), c.Fp2String(want))
		}
		if _, err := c.Fp2MultiExp(xs, ks[:3]); err == nil {
			t.Fatal("mismatched lengths should error")
		}
		ks[4] = big.NewInt(-1)
		if _, err := c.Fp2MultiExp(xs, ks); err == nil {
			t.Fatal("negative exponent should error")
		}
	}
}

func TestFp2IsOne(t *testing.T) {
	c := mustCtx(t, bigP)
	one, notOne := c.Fp2One(), c.NewFp2(big.NewInt(1), big.NewInt(1))
	wide := c.NewFp2(new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 64), big.NewInt(1)), big.NewInt(0))
	if !c.Fp2IsOne(one) || c.Fp2IsOne(notOne) || c.Fp2IsOne(wide) || c.Fp2IsOne(c.Fp2Zero()) {
		t.Fatal("Fp2IsOne misjudges an element")
	}
	if n := testing.AllocsPerRun(20, func() { c.Fp2IsOne(one); c.Fp2IsOne(wide) }); n != 0 {
		t.Fatalf("Fp2IsOne allocates %v times a call", n)
	}
}

func randFp2(c *Ctx, rng *mrand.Rand) *Fp2 {
	p := c.P()
	a := new(big.Int).Rand(rng, p)
	b := new(big.Int).Rand(rng, p)
	return c.NewFp2(a, b)
}

func TestFp2FieldAxioms(t *testing.T) {
	for _, p := range []*big.Int{toyP, bigP} {
		c := mustCtx(t, p)
		rng := mrand.New(mrand.NewSource(int64(1) + int64(uint64(p.BitLen()))))
		for i := 0; i < 200; i++ {
			x := randFp2(c, rng)
			y := randFp2(c, rng)
			z := randFp2(c, rng)

			// Commutativity.
			if !c.Fp2Equal(c.Fp2Add(x, y), c.Fp2Add(y, x)) {
				t.Fatal("addition not commutative")
			}
			if !c.Fp2Equal(c.Fp2Mul(x, y), c.Fp2Mul(y, x)) {
				t.Fatal("multiplication not commutative")
			}
			// Associativity.
			if !c.Fp2Equal(c.Fp2Add(c.Fp2Add(x, y), z), c.Fp2Add(x, c.Fp2Add(y, z))) {
				t.Fatal("addition not associative")
			}
			if !c.Fp2Equal(c.Fp2Mul(c.Fp2Mul(x, y), z), c.Fp2Mul(x, c.Fp2Mul(y, z))) {
				t.Fatal("multiplication not associative")
			}
			// Distributivity.
			lhs := c.Fp2Mul(x, c.Fp2Add(y, z))
			rhs := c.Fp2Add(c.Fp2Mul(x, y), c.Fp2Mul(x, z))
			if !c.Fp2Equal(lhs, rhs) {
				t.Fatal("distributivity fails")
			}
			// Identities.
			if !c.Fp2Equal(c.Fp2Add(x, c.Fp2Zero()), x) {
				t.Fatal("additive identity fails")
			}
			if !c.Fp2Equal(c.Fp2Mul(x, c.Fp2One()), x) {
				t.Fatal("multiplicative identity fails")
			}
			// Inverses.
			if !c.Fp2IsZero(c.Fp2Add(x, c.Fp2Neg(x))) {
				t.Fatal("additive inverse fails")
			}
			if !c.Fp2IsZero(x) {
				inv, err := c.Fp2Inv(x)
				if err != nil {
					t.Fatalf("Fp2Inv: %v", err)
				}
				if !c.Fp2IsOne(c.Fp2Mul(x, inv)) {
					t.Fatal("multiplicative inverse fails")
				}
			}
			// Square consistency.
			if !c.Fp2Equal(c.Fp2Square(x), c.Fp2Mul(x, x)) {
				t.Fatal("square != self-multiplication")
			}
			// Conjugation is multiplicative.
			if !c.Fp2Equal(c.Fp2Conj(c.Fp2Mul(x, y)), c.Fp2Mul(c.Fp2Conj(x), c.Fp2Conj(y))) {
				t.Fatal("conjugation not multiplicative")
			}
		}
	}
}

func TestFp2ConjIsFrobenius(t *testing.T) {
	// For p ≡ 3 (mod 4), x^p must equal the conjugate.
	c := mustCtx(t, toyP)
	rng := mrand.New(mrand.NewSource(int64(7) + int64(7)))
	for i := 0; i < 50; i++ {
		x := randFp2(c, rng)
		frob := c.Fp2Exp(x, toyP)
		if !c.Fp2Equal(frob, c.Fp2Conj(x)) {
			t.Fatalf("x^p != conj(x) for %s", c.Fp2String(x))
		}
	}
}

func TestFp2ExpLaws(t *testing.T) {
	c := mustCtx(t, toyP)
	rng := mrand.New(mrand.NewSource(int64(3) + int64(9)))
	for i := 0; i < 50; i++ {
		x := randFp2(c, rng)
		if c.Fp2IsZero(x) {
			continue
		}
		a := big.NewInt(int64(rng.Intn(500)))
		b := big.NewInt(int64(rng.Intn(500)))
		// x^(a+b) == x^a · x^b
		lhs := c.Fp2Exp(x, new(big.Int).Add(a, b))
		rhs := c.Fp2Mul(c.Fp2Exp(x, a), c.Fp2Exp(x, b))
		if !c.Fp2Equal(lhs, rhs) {
			t.Fatal("exponent addition law fails")
		}
		// (x^a)^b == x^(ab)
		lhs = c.Fp2Exp(c.Fp2Exp(x, a), b)
		rhs = c.Fp2Exp(x, new(big.Int).Mul(a, b))
		if !c.Fp2Equal(lhs, rhs) {
			t.Fatal("exponent multiplication law fails")
		}
		// Negative exponent: x^-a = (x^a)^-1.
		inv, err := c.Fp2Inv(c.Fp2Exp(x, a))
		if err != nil {
			t.Fatalf("inverting x^a: %v", err)
		}
		if !c.Fp2Equal(c.Fp2Exp(x, new(big.Int).Neg(a)), inv) {
			t.Fatal("negative exponent law fails")
		}
	}
}

func TestFp2InvZeroErrors(t *testing.T) {
	c := mustCtx(t, toyP)
	if _, err := c.Fp2Inv(c.Fp2Zero()); err == nil {
		t.Fatal("inverse of zero should error")
	}
}

func TestSqrt(t *testing.T) {
	c := mustCtx(t, toyP)
	// Exhaustive over the toy field: every QR has a root, QNRs do not.
	squares := map[int64]bool{}
	for i := int64(0); i < 103; i++ {
		squares[i*i%103] = true
	}
	for a := int64(0); a < 103; a++ {
		y, ok := c.Sqrt(big.NewInt(a))
		if ok != squares[a] {
			t.Fatalf("Sqrt(%d): got ok=%v want %v", a, ok, squares[a])
		}
		if ok {
			yy := new(big.Int).Mul(y, y)
			yy.Mod(yy, toyP)
			if yy.Int64() != a {
				t.Fatalf("Sqrt(%d) = %v does not square back", a, y)
			}
		}
	}
}

func TestRandFpInRange(t *testing.T) {
	c := mustCtx(t, bigP)
	for i := 0; i < 20; i++ {
		v, err := c.RandFp(rand.Reader)
		if err != nil {
			t.Fatalf("RandFp: %v", err)
		}
		if !c.InField(v) {
			t.Fatalf("RandFp produced out-of-range %v", v)
		}
	}
}

func TestScalarFieldOps(t *testing.T) {
	for _, q := range []*big.Int{toyQ, bigQ} {
		sf, err := NewScalarField(q)
		if err != nil {
			t.Fatalf("NewScalarField: %v", err)
		}
		rng := mrand.New(mrand.NewSource(int64(11) + int64(uint64(q.BitLen()))))
		for i := 0; i < 100; i++ {
			a := new(big.Int).Rand(rng, q)
			b := new(big.Int).Rand(rng, q)
			// a + b - b == a
			if sf.Sub(sf.Add(a, b), b).Cmp(sf.Reduce(a)) != 0 {
				t.Fatal("add/sub roundtrip fails")
			}
			// a · b · b⁻¹ == a (b ≠ 0)
			if b.Sign() != 0 {
				binv, err := sf.Inv(b)
				if err != nil {
					t.Fatalf("Inv: %v", err)
				}
				if sf.Mul(sf.Mul(a, b), binv).Cmp(sf.Reduce(a)) != 0 {
					t.Fatal("mul/inv roundtrip fails")
				}
			}
		}
		if _, err := sf.Inv(big.NewInt(0)); err == nil {
			t.Fatal("Inv(0) should error")
		}
	}
}

func TestScalarFieldRejectsBadOrder(t *testing.T) {
	for _, q := range []*big.Int{nil, big.NewInt(0), big.NewInt(-3), big.NewInt(8)} {
		if _, err := NewScalarField(q); err == nil {
			t.Fatalf("NewScalarField(%v) succeeded, want error", q)
		}
	}
}

func TestRandScalarNonzeroAndInRange(t *testing.T) {
	sf, err := NewScalarField(toyQ)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		v, err := sf.Rand(rand.Reader)
		if err != nil {
			t.Fatalf("Rand: %v", err)
		}
		if v.Sign() <= 0 || v.Cmp(toyQ) >= 0 {
			t.Fatalf("scalar %v out of (0,q)", v)
		}
	}
}

func TestHashToScalarProperties(t *testing.T) {
	sf, err := NewScalarField(bigQ)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic.
	a := sf.HashToScalar("d", []byte("hello"))
	b := sf.HashToScalar("d", []byte("hello"))
	if a.Cmp(b) != 0 {
		t.Fatal("HashToScalar not deterministic")
	}
	// Domain separation.
	if sf.HashToScalar("d1", []byte("x")).Cmp(sf.HashToScalar("d2", []byte("x"))) == 0 {
		t.Fatal("domain separation ineffective")
	}
	// Length framing: ("ab","c") must differ from ("a","bc").
	if sf.HashToScalar("d", []byte("ab"), []byte("c")).
		Cmp(sf.HashToScalar("d", []byte("a"), []byte("bc"))) == 0 {
		t.Fatal("length framing ineffective")
	}
	// In range, via quick.
	f := func(data []byte) bool {
		v := sf.HashToScalar("d", data)
		return v.Sign() >= 0 && v.Cmp(bigQ) < 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatalf("range property: %v", err)
	}
	// NonZero variant never returns zero (trivially: remaps).
	if sf.HashToNonZeroScalar("d", []byte("x")).Sign() == 0 {
		t.Fatal("HashToNonZeroScalar returned zero")
	}
}

func TestHashToScalarDistribution(t *testing.T) {
	// With a tiny q, the reduced output should cover all residues roughly
	// uniformly; a gross bias would indicate a broken expansion.
	sf, err := NewScalarField(toyQ)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 13)
	const trials = 13 * 400
	var msg [8]byte
	for i := 0; i < trials; i++ {
		binary := []byte{byte(i), byte(i >> 8), byte(i >> 16)}
		copy(msg[:], binary)
		counts[sf.HashToScalar("dist", msg[:]).Int64()]++
	}
	for r, n := range counts {
		if n < trials/13/2 || n > trials/13*2 {
			t.Fatalf("residue %d count %d badly skewed (expected ~%d)", r, n, trials/13)
		}
	}
}

func TestFp2StringStable(t *testing.T) {
	c := mustCtx(t, toyP)
	x := c.NewFp2(big.NewInt(5), big.NewInt(7))
	if got := c.Fp2String(x); !bytes.Contains([]byte(got), []byte("5")) {
		t.Fatalf("Fp2String output %q missing coordinate", got)
	}
}
