// Package mont is the fixed-width Montgomery arithmetic that the loops of
// ff, curve and pairing run on: elements of Fp as up to eight 64-bit limbs,
// the quadratic extension Fp2 = Fp(i) over them, and the windowed
// exponentiations both need. It allocates nothing except where a result
// leaves as a math/big value.
//
// math/big stays the interchange representation of those three packages.
// A kernel — a scalar multiplication, a Miller loop, an exponentiation —
// converts its operands in once with FromBig, works on Elem values held in
// its own frame, and converts the result out once with ToBig. Single
// operations at the boundary (one Fp2 product, one affine addition) are
// not worth the two conversions and stay on math/big.
//
// Nothing here is constant-time: reduction steps, window look-ups and the
// exponentiation loops branch on their data, exactly as the math/big code
// they replace did. DESIGN.md §"Field representation" lists which scalars
// are secret.
package mont

import (
	"fmt"
	"math/big"
	"math/bits"
)

// MaxLimbs is the widest element; moduli above MaxBits are refused.
const (
	MaxLimbs = 8
	MaxBits  = 64 * MaxLimbs
)

// Elem is an element of Fp in Montgomery form, x·R mod p with R = 2^(64n)
// for the field's limb count n, as little-endian limbs. Limbs from n up are
// zero, so == compares elements. The zero value is the field's zero.
type Elem [MaxLimbs]uint64

// Field carries an odd modulus and the constants of its Montgomery form.
// Immutable after NewField and safe for concurrent use.
type Field struct {
	n    int    // limbs in use, ⌈bits/64⌉
	p    Elem   // the modulus itself, not in Montgomery form
	pinv uint64 // −p⁻¹ mod 2⁶⁴
	one  Elem   // R mod p
	r2   Elem   // R² mod p: Mul by it converts into Montgomery form
	r3   Elem   // R³ mod p: Mul by it repairs an inverse taken on raw limbs
	pBig *big.Int

	sqrtExp *big.Int // (p+1)/4, the square-root exponent when p ≡ 3 (mod 4)
}

// NewField returns the arithmetic for the odd modulus p ≥ 3, which must
// fit in MaxBits bits.
func NewField(p *big.Int) (*Field, error) {
	if p == nil || p.Cmp(big.NewInt(3)) < 0 || p.Bit(0) == 0 {
		return nil, fmt.Errorf("mont: modulus %v is not an odd integer ≥ 3", p)
	}
	if p.BitLen() > MaxBits {
		return nil, fmt.Errorf("mont: modulus has %d bits, above the %d-bit limit of the fixed-limb field", p.BitLen(), MaxBits)
	}
	f := &Field{n: (p.BitLen() + 63) / 64, pBig: new(big.Int).Set(p)}
	setWords(&f.p, p.Bits())
	// Newton iteration doubles the correct low bits of p⁻¹ each round,
	// starting from the three that p·p ≡ 1 (mod 8) gives any odd p.
	inv := f.p[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - f.p[0]*inv
	}
	f.pinv = -inv
	r := new(big.Int).Lsh(big.NewInt(1), uint(64*f.n))
	pow := new(big.Int).Mod(r, p)
	setWords(&f.one, pow.Bits())
	pow.Mul(pow, r).Mod(pow, p)
	setWords(&f.r2, pow.Bits())
	pow.Mul(pow, r).Mod(pow, p)
	setWords(&f.r3, pow.Bits())
	f.sqrtExp = new(big.Int).Add(p, big.NewInt(1))
	f.sqrtExp.Rsh(f.sqrtExp, 2)
	return f, nil
}

// setWords stores a little-endian big.Word slice of at most MaxBits bits.
func setWords(z *Elem, w []big.Word) {
	*z = Elem{}
	for i, x := range w {
		z[i*bits.UintSize/64] |= uint64(x) << (uint(i) * bits.UintSize % 64)
	}
}

// words returns the raw limbs of x as a fresh big.Int.
func (f *Field) words(x *Elem) *big.Int {
	w := make([]big.Word, f.n*64/bits.UintSize)
	for i := range w {
		w[i] = big.Word(x[i*bits.UintSize/64] >> (uint(i) * bits.UintSize % 64))
	}
	return new(big.Int).SetBits(w)
}

// One returns the multiplicative identity.
func (f *Field) One() Elem { return f.one }

// FromBig sets z to x mod p. Canonical x (in [0, p)) converts without
// allocating.
func (f *Field) FromBig(z *Elem, x *big.Int) {
	if x.Sign() < 0 || x.Cmp(f.pBig) >= 0 {
		x = new(big.Int).Mod(x, f.pBig)
	}
	setWords(z, x.Bits())
	f.Mul(z, z, &f.r2)
}

// ToBig returns x as a fresh canonical integer in [0, p).
func (f *Field) ToBig(x *Elem) *big.Int {
	var raw, t Elem
	raw[0] = 1
	f.Mul(&t, x, &raw)
	return f.words(&t)
}

// IsZero reports whether x is zero.
func (f *Field) IsZero(x *Elem) bool { return *x == Elem{} }

// Add sets z = x + y.
func (f *Field) Add(z, x, y *Elem) {
	var t Elem
	var c uint64
	for i := 0; i < f.n && i < MaxLimbs; i++ {
		t[i], c = bits.Add64(x[i], y[i], c)
	}
	f.reduceOnce(z, &t, c)
}

// Double sets z = 2x.
func (f *Field) Double(z, x *Elem) { f.Add(z, x, x) }

// reduceOnce sets z = t − p when the value carry·R + t reaches p, else t.
func (f *Field) reduceOnce(z, t *Elem, carry uint64) {
	var r Elem
	var b uint64
	for i := 0; i < f.n && i < MaxLimbs; i++ {
		r[i], b = bits.Sub64(t[i], f.p[i], b)
	}
	if carry != 0 || b == 0 {
		*z = r
	} else {
		*z = *t
	}
}

// Sub sets z = x − y.
func (f *Field) Sub(z, x, y *Elem) {
	var t Elem
	var b uint64
	for i := 0; i < f.n && i < MaxLimbs; i++ {
		t[i], b = bits.Sub64(x[i], y[i], b)
	}
	if b != 0 {
		var c uint64
		for i := 0; i < f.n && i < MaxLimbs; i++ {
			t[i], c = bits.Add64(t[i], f.p[i], c)
		}
	}
	*z = t
}

// Neg sets z = −x.
func (f *Field) Neg(z, x *Elem) {
	var zero Elem
	f.Sub(z, &zero, x)
}

// Square sets z = x².
func (f *Field) Square(z, x *Elem) { f.Mul(z, x, x) }

// Inv sets z = x⁻¹ and reports whether x was invertible (nonzero). The
// inverse is math/big's Lehmer GCD on the raw limbs: x is a·R, its raw
// inverse a⁻¹·R⁻¹, and one product with R³ restores Montgomery form. It
// runs once or twice a kernel, 6 µs at 512 bits; an allocation-free limb
// binary GCD measured 21 µs.
func (f *Field) Inv(z, x *Elem) bool {
	if f.IsZero(x) {
		return false
	}
	raw := f.words(x)
	raw.ModInverse(raw, f.pBig)
	setWords(z, raw.Bits())
	f.Mul(z, z, &f.r3)
	return true
}

// InvBatch replaces every nonzero xs[i] by its inverse with one field
// inversion (Montgomery's trick: prefix products, one inverse, unwind).
// Zero entries are left as they are. scratch must have len(xs) entries.
func (f *Field) InvBatch(xs, scratch []Elem) {
	acc := f.one
	for i := range xs {
		scratch[i] = acc
		if !f.IsZero(&xs[i]) {
			f.Mul(&acc, &acc, &xs[i])
		}
	}
	f.Inv(&acc, &acc) // a product of nonzero elements of a field
	for i := len(xs) - 1; i >= 0; i-- {
		if f.IsZero(&xs[i]) {
			continue
		}
		var inv Elem
		f.Mul(&inv, &acc, &scratch[i])
		f.Mul(&acc, &acc, &xs[i])
		xs[i] = inv
	}
}

// Exp sets z = x^k for k ≥ 0.
func (f *Field) Exp(z, x *Elem, k *big.Int) {
	digits := Digits(k, expWindow, false)
	var table [1 << (expWindow - 1)]Elem // x, x³, x⁵, …
	var sq Elem
	table[0] = *x
	f.Square(&sq, x)
	for i := 1; i < len(table); i++ {
		f.Mul(&table[i], &table[i-1], &sq)
	}
	acc := f.one
	for i := len(digits) - 1; i >= 0; i-- {
		f.Square(&acc, &acc)
		if d := digits[i]; d != 0 {
			f.Mul(&acc, &acc, &table[d>>1])
		}
	}
	*z = acc
}

// Sqrt sets z to the square root x^((p+1)/4) of x and reports whether x is
// a quadratic residue. It requires p ≡ 3 (mod 4).
func (f *Field) Sqrt(z, x *Elem) bool {
	var y, chk Elem
	f.Exp(&y, x, f.sqrtExp)
	f.Square(&chk, &y)
	if chk != *x {
		return false
	}
	*z = y
	return true
}
