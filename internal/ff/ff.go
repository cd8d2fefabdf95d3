// Package ff implements the finite-field arithmetic underlying the SecCloud
// pairing: the prime field Fp, its quadratic extension Fp2 = Fp(i) with
// i^2 = -1 (which requires p ≡ 3 mod 4), and helpers for the scalar field Zq.
//
// The package is deliberately parameterized by a Ctx carrying the modulus so
// that tests can exercise the same code paths with tiny toy primes where
// properties can be checked exhaustively.
//
// Elements are math/big integers at this API. Operations that loop — the
// exponentiations and the square root — run on the Montgomery limbs of
// package mont and convert at entry and exit; single operations stay on
// math/big, where one product costs less than the two conversions.
package ff

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"

	"seccloud/internal/mont"
)

// ErrNotInField reports an element outside the expected range [0, p).
var ErrNotInField = errors.New("ff: element not in field")

// Ctx carries the prime modulus p for Fp and Fp2 arithmetic. A Ctx is
// immutable after construction and safe for concurrent use.
type Ctx struct {
	p  *big.Int
	fp *mont.Field
}

// NewCtx returns an arithmetic context for the prime field Fp.
// It requires p ≡ 3 (mod 4) so that -1 is a quadratic non-residue and
// Fp2 = Fp(i) with i^2 = -1 is a field. The limb kernels hold at most
// mont.MaxBits (512) bits; a wider modulus is an error.
func NewCtx(p *big.Int) (*Ctx, error) {
	if p == nil || p.Sign() <= 0 {
		return nil, errors.New("ff: modulus must be a positive prime")
	}
	if p.Bit(0) != 1 || p.Bit(1) != 1 {
		return nil, fmt.Errorf("ff: modulus %v is not ≡ 3 (mod 4)", p)
	}
	fp, err := mont.NewField(p)
	if err != nil {
		return nil, fmt.Errorf("ff: %w", err)
	}
	return &Ctx{p: new(big.Int).Set(p), fp: fp}, nil
}

// P returns a copy of the field modulus.
func (c *Ctx) P() *big.Int { return new(big.Int).Set(c.p) }

// Norm reduces x into [0, p) in place and returns it.
func (c *Ctx) Norm(x *big.Int) *big.Int { return x.Mod(x, c.p) }

// InField reports whether x is a canonical Fp element in [0, p).
func (c *Ctx) InField(x *big.Int) bool {
	return x != nil && x.Sign() >= 0 && x.Cmp(c.p) < 0
}

// RandFp returns a uniformly random Fp element read from r.
func (c *Ctx) RandFp(r io.Reader) (*big.Int, error) {
	v, err := rand.Int(r, c.p)
	if err != nil {
		return nil, fmt.Errorf("ff: sampling Fp element: %w", err)
	}
	return v, nil
}

// Sqrt computes a square root of a in Fp if one exists, using the
// p ≡ 3 (mod 4) shortcut y = a^((p+1)/4). The second return is false when a
// is a quadratic non-residue.
func (c *Ctx) Sqrt(a *big.Int) (*big.Int, bool) {
	var x mont.Elem
	c.fp.FromBig(&x, a)
	if !c.fp.Sqrt(&x, &x) {
		return nil, false
	}
	return c.fp.ToBig(&x), true
}

// Fp2 is an element a + b·i of the quadratic extension Fp(i), i^2 = -1.
// The zero value is not ready for use; obtain elements from a Ctx.
type Fp2 struct {
	A *big.Int // real coefficient
	B *big.Int // imaginary coefficient
}

// NewFp2 returns the element a + b·i, reducing both coordinates mod p.
func (c *Ctx) NewFp2(a, b *big.Int) *Fp2 {
	return &Fp2{
		A: new(big.Int).Mod(a, c.p),
		B: new(big.Int).Mod(b, c.p),
	}
}

// Fp2Zero returns the additive identity of Fp2.
func (c *Ctx) Fp2Zero() *Fp2 { return &Fp2{A: new(big.Int), B: new(big.Int)} }

// Fp2One returns the multiplicative identity of Fp2.
func (c *Ctx) Fp2One() *Fp2 { return &Fp2{A: big.NewInt(1), B: new(big.Int)} }

// Fp2Copy returns a deep copy of x.
func (c *Ctx) Fp2Copy(x *Fp2) *Fp2 {
	return &Fp2{A: new(big.Int).Set(x.A), B: new(big.Int).Set(x.B)}
}

// Fp2IsZero reports whether x is the additive identity.
func (c *Ctx) Fp2IsZero(x *Fp2) bool { return x.A.Sign() == 0 && x.B.Sign() == 0 }

// Fp2IsOne reports whether x is the multiplicative identity.
func (c *Ctx) Fp2IsOne(x *Fp2) bool {
	return x.A.IsInt64() && x.A.Int64() == 1 && x.B.Sign() == 0
}

// Fp2Equal reports whether x and y are the same element.
func (c *Ctx) Fp2Equal(x, y *Fp2) bool {
	return x.A.Cmp(y.A) == 0 && x.B.Cmp(y.B) == 0
}

// Fp2Add returns x + y.
func (c *Ctx) Fp2Add(x, y *Fp2) *Fp2 {
	a := new(big.Int).Add(x.A, y.A)
	a.Mod(a, c.p)
	b := new(big.Int).Add(x.B, y.B)
	b.Mod(b, c.p)
	return &Fp2{A: a, B: b}
}

// Fp2Sub returns x - y.
func (c *Ctx) Fp2Sub(x, y *Fp2) *Fp2 {
	a := new(big.Int).Sub(x.A, y.A)
	a.Mod(a, c.p)
	b := new(big.Int).Sub(x.B, y.B)
	b.Mod(b, c.p)
	return &Fp2{A: a, B: b}
}

// Fp2Neg returns -x.
func (c *Ctx) Fp2Neg(x *Fp2) *Fp2 {
	a := new(big.Int).Neg(x.A)
	a.Mod(a, c.p)
	b := new(big.Int).Neg(x.B)
	b.Mod(b, c.p)
	return &Fp2{A: a, B: b}
}

// Fp2Mul returns x·y using the schoolbook formula
// (a+bi)(c+di) = (ac - bd) + (ad + bc)i.
func (c *Ctx) Fp2Mul(x, y *Fp2) *Fp2 {
	ac := new(big.Int).Mul(x.A, y.A)
	bd := new(big.Int).Mul(x.B, y.B)
	ad := new(big.Int).Mul(x.A, y.B)
	bc := new(big.Int).Mul(x.B, y.A)
	a := ac.Sub(ac, bd)
	a.Mod(a, c.p)
	b := ad.Add(ad, bc)
	b.Mod(b, c.p)
	return &Fp2{A: a, B: b}
}

// Fp2Square returns x² using (a+bi)² = (a-b)(a+b) + 2ab·i.
func (c *Ctx) Fp2Square(x *Fp2) *Fp2 {
	sum := new(big.Int).Add(x.A, x.B)
	diff := new(big.Int).Sub(x.A, x.B)
	a := sum.Mul(sum, diff)
	a.Mod(a, c.p)
	b := new(big.Int).Mul(x.A, x.B)
	b.Lsh(b, 1)
	b.Mod(b, c.p)
	return &Fp2{A: a, B: b}
}

// Fp2Conj returns the conjugate a - b·i. For p ≡ 3 (mod 4) this equals the
// Frobenius endomorphism x ↦ x^p on Fp2.
func (c *Ctx) Fp2Conj(x *Fp2) *Fp2 {
	b := new(big.Int).Neg(x.B)
	b.Mod(b, c.p)
	return &Fp2{A: new(big.Int).Set(x.A), B: b}
}

// Fp2Inv returns x⁻¹. It returns an error when x is zero.
func (c *Ctx) Fp2Inv(x *Fp2) (*Fp2, error) {
	// 1/(a+bi) = (a-bi)/(a²+b²).
	n := new(big.Int).Mul(x.A, x.A)
	bb := new(big.Int).Mul(x.B, x.B)
	n.Add(n, bb)
	n.Mod(n, c.p)
	if n.Sign() == 0 {
		return nil, errors.New("ff: inverse of zero in Fp2")
	}
	n.ModInverse(n, c.p)
	a := new(big.Int).Mul(x.A, n)
	a.Mod(a, c.p)
	b := new(big.Int).Neg(x.B)
	b.Mul(b, n)
	b.Mod(b, c.p)
	return &Fp2{A: a, B: b}, nil
}

// Fp2Exp returns x^k, for negative k as (x⁻¹)^(−k).
func (c *Ctx) Fp2Exp(x *Fp2, k *big.Int) *Fp2 {
	if k.Sign() < 0 {
		inv, err := c.Fp2Inv(x)
		if err != nil {
			// x == 0 with negative exponent has no meaning; return zero
			// to keep the API total (callers validate inputs upstream).
			return c.Fp2Zero()
		}
		return c.Fp2Exp(inv, new(big.Int).Neg(k))
	}
	r := c.toLimbs(x)
	c.fp.Exp2(&r, &r, k)
	return c.fromLimbs(&r)
}

// Fp2MultiExp returns Π xᵢ^kᵢ for kᵢ ≥ 0 with one shared squaring chain:
// the accumulator squares once per bit of the longest exponent and
// multiplies in one windowed table entry per base every few bits
// (mont.MultiExp2). For n bases with b-bit exponents this costs b
// squarings plus ~n·(b/5 + 8) multiplications, versus n·b squarings for n
// separate Fp2Exp calls — the Fp2 analogue of a multi-scalar point
// multiplication. Negative exponents are not supported (callers reduce
// into [0, q) first).
func (c *Ctx) Fp2MultiExp(xs []*Fp2, ks []*big.Int) (*Fp2, error) {
	if len(xs) != len(ks) {
		return nil, fmt.Errorf("ff: mismatched lengths %d vs %d", len(xs), len(ks))
	}
	for _, k := range ks {
		if k.Sign() < 0 {
			return nil, fmt.Errorf("ff: negative exponent in multi-exp")
		}
	}
	limbs := make([]mont.Elem2, len(xs))
	for i, x := range xs {
		limbs[i] = c.toLimbs(x)
	}
	var r mont.Elem2
	c.fp.MultiExp2(&r, limbs, ks)
	return c.fromLimbs(&r), nil
}

// toLimbs and fromLimbs are the two conversions of a kernel: in once, out
// once.
func (c *Ctx) toLimbs(x *Fp2) (r mont.Elem2) {
	c.fp.FromBig(&r.A, x.A)
	c.fp.FromBig(&r.B, x.B)
	return r
}

func (c *Ctx) fromLimbs(x *mont.Elem2) *Fp2 {
	return &Fp2{A: c.fp.ToBig(&x.A), B: c.fp.ToBig(&x.B)}
}

// Fp2String renders x as "a + b·i" in hexadecimal, for debugging.
func (c *Ctx) Fp2String(x *Fp2) string {
	return fmt.Sprintf("%s + %s·i", x.A.Text(16), x.B.Text(16))
}
