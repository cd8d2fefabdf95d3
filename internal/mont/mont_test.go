package mont

import (
	"math/big"
	mrand "math/rand"
	"testing"
)

// The moduli the limb code is checked at, all ≡ 3 (mod 4): the two
// parameter sets' primes (the unrolled 8- and 4-limb multipliers) and toy
// primes of 1, 2, 3, 6 and 7 limbs (the loop).
var testModuli = []string{
	"67",                         // 103
	"1000000000000000000000014b", // 2^100 + 331
	"4000000000000000000000000000000000000000000000df",
	"9aa44f7a571142bc66a2eb864139537066b0f3231e6ed327f943df11c8a4cd9f", // InsecureTest256
	"8000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000007b3",
	"8000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000063",
	"9dcd7ce9b75c56827987d2cd06c038fce654b15f3d3ab47af8acbcba1119dd614d69b053f14b7b84c1d376f134ab238261cc3c778fa3b94775baff1606d19093", // SS512
}

func mustBig(s string) *big.Int {
	v, ok := new(big.Int).SetString(s, 16)
	if !ok {
		panic("bad hex in test fixture")
	}
	return v
}

func testFields(tb testing.TB) []*Field {
	tb.Helper()
	fs := make([]*Field, len(testModuli))
	for i, m := range testModuli {
		f, err := NewField(mustBig(m))
		if err != nil {
			tb.Fatal(err)
		}
		fs[i] = f
	}
	return fs
}

func TestNewFieldRejectsBadModuli(t *testing.T) {
	tooWide := new(big.Int).Lsh(big.NewInt(1), MaxBits)
	tooWide.Add(tooWide, big.NewInt(3))
	for _, p := range []*big.Int{nil, big.NewInt(0), big.NewInt(-7), big.NewInt(1), big.NewInt(10), tooWide} {
		if _, err := NewField(p); err == nil {
			t.Fatalf("NewField(%v) succeeded, want error", p)
		}
	}
	widest := new(big.Int).Lsh(big.NewInt(1), MaxBits)
	widest.Sub(widest, big.NewInt(1))
	if _, err := NewField(widest); err != nil {
		t.Fatalf("NewField refused a %d-bit odd modulus: %v", MaxBits, err)
	}
}

// checkFieldOps compares every limb operation on (a, b) with math/big.
func checkFieldOps(t *testing.T, f *Field, a, b *big.Int) {
	t.Helper()
	p := f.pBig
	a, b = new(big.Int).Mod(a, p), new(big.Int).Mod(b, p)
	var x, y, z Elem
	f.FromBig(&x, a)
	f.FromBig(&y, b)
	if got := f.ToBig(&x); got.Cmp(a) != 0 {
		t.Fatalf("mod %v: round trip of %v gave %v", p, a, got)
	}
	check := func(op string, want *big.Int) {
		t.Helper()
		want.Mod(want, p)
		if got := f.ToBig(&z); got.Cmp(want) != 0 {
			t.Fatalf("mod %v: %s(%v, %v) = %v, want %v", p, op, a, b, got, want)
		}
		for i := f.n; i < MaxLimbs; i++ {
			if z[i] != 0 {
				t.Fatalf("mod %v: %s left a nonzero limb %d", p, op, i)
			}
		}
	}
	f.Add(&z, &x, &y)
	check("add", new(big.Int).Add(a, b))
	f.Sub(&z, &x, &y)
	check("sub", new(big.Int).Sub(a, b))
	f.Neg(&z, &x)
	check("neg", new(big.Int).Neg(a))
	f.Double(&z, &x)
	check("double", new(big.Int).Lsh(a, 1))
	f.Mul(&z, &x, &y)
	check("mul", new(big.Int).Mul(a, b))
	f.mulLoop(&z, &x, &y)
	check("mulLoop", new(big.Int).Mul(a, b))
	f.Square(&z, &x)
	check("square", new(big.Int).Mul(a, a))
	// Aliased operands.
	z = x
	f.Mul(&z, &z, &z)
	check("mul aliased", new(big.Int).Mul(a, a))
	z = x
	f.Sub(&z, &y, &z)
	check("sub aliased", new(big.Int).Sub(b, a))

	if ok := f.Inv(&z, &x); ok != (a.Sign() != 0) {
		t.Fatalf("mod %v: Inv(%v) reported %v", p, a, ok)
	} else if ok {
		check("inv", new(big.Int).ModInverse(a, p))
	}
	f.Exp(&z, &x, b)
	check("exp", new(big.Int).Exp(a, b, p))

	// Sqrt: x^((p+1)/4) when a is a residue, the same root math/big's
	// exponentiation gives; every square must have one.
	want := new(big.Int).Exp(a, f.sqrtExp, p)
	isResidue := new(big.Int).Exp(want, big.NewInt(2), p).Cmp(a) == 0
	if ok := f.Sqrt(&z, &x); ok != isResidue {
		t.Fatalf("mod %v: Sqrt(%v) reported %v, want %v", p, a, ok, isResidue)
	} else if ok {
		check("sqrt", want)
	}
	var sq Elem
	f.Square(&sq, &x)
	if !f.Sqrt(&z, &sq) {
		t.Fatalf("mod %v: Sqrt(%v²) found no root", p, a)
	}
	f.Square(&z, &z)
	if z != sq {
		t.Fatalf("mod %v: Sqrt(%v²) does not square back", p, a)
	}
}

func edgeValues(p *big.Int) []*big.Int {
	pm1 := new(big.Int).Sub(p, big.NewInt(1))
	half := new(big.Int).Rsh(p, 1)
	return []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), pm1, half, new(big.Int).Add(half, big.NewInt(1))}
}

func TestFieldOpsMatchBig(t *testing.T) {
	for _, f := range testFields(t) {
		rng := mrand.New(mrand.NewSource(int64(f.n)))
		vals := edgeValues(f.pBig)
		for i := 0; i < 40; i++ {
			vals = append(vals, new(big.Int).Rand(rng, f.pBig))
		}
		for _, a := range vals[:12] {
			for _, b := range vals {
				checkFieldOps(t, f, a, b)
			}
		}
	}
}

// FuzzFieldOps is the differential oracle of the field layer: every limb
// operation against math/big, at every test modulus, on fuzzed operands
// beside the edge values 0, 1, p−1 and the non-residues among them.
func FuzzFieldOps(f *testing.F) {
	fields := testFields(f)
	f.Add([]byte{0}, []byte{1})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{2})
	for _, fd := range fields {
		for _, v := range edgeValues(fd.pBig) {
			f.Add(v.Bytes(), new(big.Int).Sub(fd.pBig, v).Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		if len(ab) > 2*MaxLimbs*8 || len(bb) > 2*MaxLimbs*8 {
			return
		}
		a, b := new(big.Int).SetBytes(ab), new(big.Int).SetBytes(bb)
		for _, fd := range fields {
			checkFieldOps(t, fd, a, b)
		}
	})
}

func TestFromBigReducesOutOfRange(t *testing.T) {
	for _, f := range testFields(t) {
		for _, v := range []*big.Int{new(big.Int).Neg(big.NewInt(5)), new(big.Int).Add(f.pBig, big.NewInt(4)), new(big.Int).Lsh(f.pBig, 70)} {
			var x Elem
			f.FromBig(&x, v)
			if got, want := f.ToBig(&x), new(big.Int).Mod(v, f.pBig); got.Cmp(want) != 0 {
				t.Fatalf("mod %v: FromBig(%v) = %v, want %v", f.pBig, v, got, want)
			}
		}
	}
}

func TestInvBatch(t *testing.T) {
	for _, f := range testFields(t) {
		rng := mrand.New(mrand.NewSource(9))
		xs := make([]Elem, 9)
		want := make([]*big.Int, len(xs))
		for i := range xs {
			v := new(big.Int).Rand(rng, f.pBig)
			if i%4 == 2 {
				v.SetInt64(0) // zero entries are skipped, not poisoned
			}
			f.FromBig(&xs[i], v)
			want[i] = new(big.Int).ModInverse(v, f.pBig)
		}
		f.InvBatch(xs, make([]Elem, len(xs)))
		for i := range xs {
			if want[i] == nil {
				if !f.IsZero(&xs[i]) {
					t.Fatalf("mod %v: zero entry %d was changed", f.pBig, i)
				}
				continue
			}
			if got := f.ToBig(&xs[i]); got.Cmp(want[i]) != 0 {
				t.Fatalf("mod %v: entry %d inverted to %v, want %v", f.pBig, i, got, want[i])
			}
		}
	}
}

// fp2Big is Fp2 arithmetic on math/big, the oracle for the limb Fp2.
type fp2Big struct{ a, b *big.Int }

func (f *Field) fp2FromBig(x fp2Big) (z Elem2) {
	f.FromBig(&z.A, x.a)
	f.FromBig(&z.B, x.b)
	return z
}

func fp2MulBig(p *big.Int, x, y fp2Big) fp2Big {
	a := new(big.Int).Mul(x.a, y.a)
	a.Sub(a, new(big.Int).Mul(x.b, y.b)).Mod(a, p)
	b := new(big.Int).Mul(x.a, y.b)
	b.Add(b, new(big.Int).Mul(x.b, y.a)).Mod(b, p)
	return fp2Big{a, b}
}

// fp2ExpBig is the plain square-and-multiply ladder.
func fp2ExpBig(p *big.Int, x fp2Big, k *big.Int) fp2Big {
	r := fp2Big{big.NewInt(1), big.NewInt(0)}
	for i := k.BitLen() - 1; i >= 0; i-- {
		r = fp2MulBig(p, r, r)
		if k.Bit(i) == 1 {
			r = fp2MulBig(p, r, x)
		}
	}
	return r
}

func (f *Field) fp2Equal(t *testing.T, op string, got *Elem2, want fp2Big) {
	t.Helper()
	if a, b := f.ToBig(&got.A), f.ToBig(&got.B); a.Cmp(want.a) != 0 || b.Cmp(want.b) != 0 {
		t.Fatalf("mod %v: %s = %v + %v·i, want %v + %v·i", f.pBig, op, a, b, want.a, want.b)
	}
}

func TestFp2MatchesBig(t *testing.T) {
	for _, f := range testFields(t) {
		p := f.pBig
		rng := mrand.New(mrand.NewSource(int64(f.n) + 100))
		r := func() *big.Int { return new(big.Int).Rand(rng, p) }
		vals := []fp2Big{
			{big.NewInt(0), big.NewInt(0)}, {big.NewInt(1), big.NewInt(0)}, {big.NewInt(0), big.NewInt(1)},
			{new(big.Int).Sub(p, big.NewInt(1)), new(big.Int).Sub(p, big.NewInt(1))},
			{r(), r()}, {r(), r()}, {r(), r()},
		}
		for _, xb := range vals {
			x := f.fp2FromBig(xb)
			var z Elem2
			f.Square2(&z, &x)
			f.fp2Equal(t, "square", &z, fp2MulBig(p, xb, xb))
			z = x
			f.Square2(&z, &z)
			f.fp2Equal(t, "square aliased", &z, fp2MulBig(p, xb, xb))
			for _, yb := range vals {
				y := f.fp2FromBig(yb)
				f.Mul2(&z, &x, &y)
				f.fp2Equal(t, "mul", &z, fp2MulBig(p, xb, yb))
				z = x
				f.Mul2(&z, &z, &y)
				f.fp2Equal(t, "mul aliased", &z, fp2MulBig(p, xb, yb))
			}
			for _, k := range []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(31), big.NewInt(32), big.NewInt(33), r(), new(big.Int).Mul(r(), r())} {
				f.Exp2(&z, &x, k)
				f.fp2Equal(t, "exp", &z, fp2ExpBig(p, xb, k))
			}
		}
		// Multi-exponentiation of mixed exponent lengths, zero included.
		xs := make([]Elem2, len(vals))
		ks := make([]*big.Int, len(vals))
		want := fp2Big{big.NewInt(1), big.NewInt(0)}
		for i, xb := range vals {
			xs[i] = f.fp2FromBig(xb)
			ks[i] = new(big.Int).Rsh(r(), uint(i*p.BitLen()/len(vals)))
			want = fp2MulBig(p, want, fp2ExpBig(p, xb, ks[i]))
		}
		var z Elem2
		f.MultiExp2(&z, xs, ks)
		f.fp2Equal(t, "multiexp", &z, want)
		f.MultiExp2(&z, nil, nil)
		f.fp2Equal(t, "empty multiexp", &z, fp2Big{big.NewInt(1), big.NewInt(0)})
	}
}

// TestFixedDigits: for every width and every k below 2^(w·n−1) the n
// digits lie in [−2^(w−1), 2^(w−1)] and sum, at weights 2^(w·i), to k —
// including the scalars whose windows all sit at either end of the range.
func TestFixedDigits(t *testing.T) {
	rng := mrand.New(mrand.NewSource(6))
	one := big.NewInt(1)
	for w := uint(2); w <= 7; w++ {
		for _, bits := range []int{1, 7, 64, 96, 160, 161, 512} {
			n := FixedWindows(bits, w)
			if int(w)*n-1 < bits || int(w)*(n-1)-1 >= bits {
				t.Fatalf("w=%d: %d windows for %d-bit scalars", w, n, bits)
			}
			top := new(big.Int).Lsh(one, uint(bits))
			ks := []*big.Int{new(big.Int), one, new(big.Int).Sub(top, one), new(big.Int).Rsh(top, 1)}
			half := new(big.Int) // every window 2^(w−1): the largest digit, no carry
			for i := 0; i*int(w)+int(w)-1 < bits; i++ {
				half.SetBit(half, i*int(w)+int(w)-1, 1)
			}
			ks = append(ks, half, new(big.Int).Add(half, one))
			for i := 0; i < 40; i++ {
				ks = append(ks, new(big.Int).Rand(rng, top))
			}
			for _, k := range ks {
				digits := FixedDigits(k, w, n)
				if len(digits) != n {
					t.Fatalf("w=%d: %d digits, want %d", w, len(digits), n)
				}
				sum := new(big.Int)
				for i := n - 1; i >= 0; i-- {
					d := int64(digits[i])
					if d < -(1<<(w-1)) || d > 1<<(w-1) {
						t.Fatalf("w=%d k=%v: digit %d at window %d out of range", w, k, d, i)
					}
					sum.Lsh(sum, w).Add(sum, big.NewInt(d))
				}
				if sum.Cmp(k) != 0 {
					t.Fatalf("w=%d: digits of %v sum to %v", w, k, sum)
				}
			}
		}
	}
}

func TestDigits(t *testing.T) {
	rng := mrand.New(mrand.NewSource(5))
	ks := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(-77), big.NewInt(255), big.NewInt(256)}
	for i := 0; i < 60; i++ {
		k := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(1+rng.Intn(600))))
		ks = append(ks, k, new(big.Int).Lsh(k, 64), new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(64*(1+i%9))), big.NewInt(1)))
	}
	for _, signed := range []bool{false, true} {
		for w := uint(2); w <= 7; w++ {
			for _, k := range ks {
				digits := Digits(k, w, signed)
				sum := new(big.Int)
				nonzero := 0
				for i := len(digits) - 1; i >= 0; i-- {
					d := int64(digits[i])
					sum.Lsh(sum, 1).Add(sum, big.NewInt(d))
					if d == 0 {
						continue
					}
					nonzero++
					lo, hi := int64(0), int64(1)<<w
					if signed {
						lo, hi = -(int64(1) << (w - 1)), int64(1)<<(w-1)
					}
					if d&1 == 0 || d <= lo || d >= hi {
						t.Fatalf("w=%d signed=%v k=%v: digit %d at %d out of range", w, signed, k, d, i)
					}
					for j := i + 1; j < i+int(w) && j < len(digits); j++ {
						if digits[j] != 0 {
							t.Fatalf("w=%d signed=%v k=%v: digits at %d and %d closer than the window", w, signed, k, i, j)
						}
					}
				}
				if sum.CmpAbs(k) != 0 {
					t.Fatalf("w=%d signed=%v: digits of %v sum to %v", w, signed, k, sum)
				}
			}
		}
	}
}

// TestKernelsDoNotAllocate holds the limb arithmetic to its claim: nothing
// between conversion in and conversion out touches the heap.
func TestKernelsDoNotAllocate(t *testing.T) {
	for _, f := range testFields(t) {
		var x, y, z Elem
		f.FromBig(&x, big.NewInt(12345))
		f.FromBig(&y, new(big.Int).Sub(f.pBig, big.NewInt(6789)))
		x2, y2 := Elem2{x, y}, Elem2{y, x}
		var z2 Elem2
		if n := testing.AllocsPerRun(20, func() {
			f.Add(&z, &x, &y)
			f.Sub(&z, &z, &y)
			f.Neg(&z, &z)
			f.Mul(&z, &z, &x)
			f.Square(&z, &z)
			f.Mul2(&z2, &x2, &y2)
			f.Square2(&z2, &z2)
			f.FromBig(&z, f.sqrtExp) // canonical: no reduction, no allocation
		}); n != 0 {
			t.Fatalf("mod %v: %v allocations in add/sub/neg/mul/square", f.pBig, n)
		}
	}
}

func benchField(b *testing.B, hex string) (*Field, Elem, Elem) {
	f, err := NewField(mustBig(hex))
	if err != nil {
		b.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(1))
	var x, y Elem
	f.FromBig(&x, new(big.Int).Rand(rng, f.pBig))
	f.FromBig(&y, new(big.Int).Rand(rng, f.pBig))
	return f, x, y
}

// BenchmarkMul is the number the package doc quotes: the unrolled
// multiplier, the loop it specialises, and math/big's Mul+Mod.
func BenchmarkMul(b *testing.B) {
	for _, m := range []struct{ name, hex string }{{"ss512", testModuli[6]}, {"test256", testModuli[3]}} {
		f, x, y := benchField(b, m.hex)
		b.Run(m.name+"/unrolled", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.Mul(&x, &x, &y)
			}
		})
		b.Run(m.name+"/loop", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.mulLoop(&x, &x, &y)
			}
		})
		b.Run(m.name+"/big", func(b *testing.B) {
			xb, yb := f.ToBig(&x), f.ToBig(&y)
			for i := 0; i < b.N; i++ {
				z := new(big.Int).Mul(xb, yb)
				z.Mod(z, f.pBig)
			}
		})
	}
}

func BenchmarkInv(b *testing.B) {
	f, x, _ := benchField(b, testModuli[6])
	var z Elem
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Inv(&z, &x)
	}
}

func BenchmarkSqrt(b *testing.B) {
	f, x, _ := benchField(b, testModuli[6])
	f.Square(&x, &x)
	var z Elem
	for i := 0; i < b.N; i++ {
		f.Sqrt(&z, &x)
	}
}

// BenchmarkExp2 is the 160-bit GT exponentiation at SS512; with
// BenchmarkSqrt it is what expWindow was chosen on.
func BenchmarkExp2(b *testing.B) {
	f, x, y := benchField(b, testModuli[6])
	k := new(big.Int).Rand(mrand.New(mrand.NewSource(2)), new(big.Int).Lsh(big.NewInt(1), 160))
	z := Elem2{x, y}
	for i := 0; i < b.N; i++ {
		f.Exp2(&z, &z, k)
	}
}

// BenchmarkMultiExp2 is an audit's Σ_A: 33 bases, 128-bit exponents.
func BenchmarkMultiExp2(b *testing.B) {
	f, x, y := benchField(b, testModuli[6])
	rng := mrand.New(mrand.NewSource(3))
	xs := make([]Elem2, 33)
	ks := make([]*big.Int, len(xs))
	for i := range xs {
		xs[i] = Elem2{x, y}
		f.Square2(&xs[i], &xs[i])
		x, y = xs[i].A, xs[i].B
		ks[i] = new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 128))
	}
	var z Elem2
	for i := 0; i < b.N; i++ {
		f.MultiExp2(&z, xs, ks)
	}
}
