package mont

import "math/big"

// Elem2 is the element A + B·i of Fp2 = Fp(i), i² = −1, which is a field
// when p ≡ 3 (mod 4). The zero value is zero.
type Elem2 struct{ A, B Elem }

// One2 returns the multiplicative identity of Fp2.
func (f *Field) One2() Elem2 { return Elem2{A: f.one} }

// Mul2 sets z = x·y with three base-field products (Karatsuba):
// (a+bi)(c+di) = (ac − bd) + ((a+b)(c+d) − ac − bd)·i.
func (f *Field) Mul2(z, x, y *Elem2) {
	var ac, bd, s, t Elem
	f.Add(&s, &x.A, &x.B)
	f.Add(&t, &y.A, &y.B)
	f.Mul(&ac, &x.A, &y.A)
	f.Mul(&bd, &x.B, &y.B)
	f.Mul(&s, &s, &t)
	f.Sub(&s, &s, &ac)
	f.Sub(&z.B, &s, &bd)
	f.Sub(&z.A, &ac, &bd)
}

// Square2 sets z = x² with two base-field products:
// (a+bi)² = (a+b)(a−b) + 2ab·i.
func (f *Field) Square2(z, x *Elem2) {
	var s, d, ab Elem
	f.Add(&s, &x.A, &x.B)
	f.Sub(&d, &x.A, &x.B)
	f.Mul(&ab, &x.A, &x.B)
	f.Mul(&z.A, &s, &d)
	f.Double(&z.B, &ab)
}

// Exp2 sets z = x^k for k ≥ 0 with a sliding window over the bits of k.
func (f *Field) Exp2(z, x *Elem2, k *big.Int) {
	f.MultiExp2(z, []Elem2{*x}, []*big.Int{k})
}

// MultiExp2 sets z = Π xs[i]^ks[i] for ks[i] ≥ 0: one squaring chain as
// long as the longest exponent, and per base a table of odd powers and one
// product per expWindow+1 exponent bits.
func (f *Field) MultiExp2(z *Elem2, xs []Elem2, ks []*big.Int) {
	const half = 1 << (expWindow - 1)
	tables := make([]Elem2, half*len(xs)) // x, x³, x⁵, … per base
	digits := make([][]int8, len(xs))
	top := 0
	for j := range xs {
		digits[j] = Digits(ks[j], expWindow, false)
		if len(digits[j]) > top {
			top = len(digits[j])
		}
		t := tables[half*j : half*(j+1)]
		var sq Elem2
		t[0] = xs[j]
		f.Square2(&sq, &xs[j])
		for i := 1; i < half; i++ {
			f.Mul2(&t[i], &t[i-1], &sq)
		}
	}
	acc := f.One2()
	for i := top - 1; i >= 0; i-- {
		f.Square2(&acc, &acc)
		for j, dj := range digits {
			if i < len(dj) && dj[i] != 0 {
				f.Mul2(&acc, &acc, &tables[half*j+int(dj[i]>>1)])
			}
		}
	}
	*z = acc
}
