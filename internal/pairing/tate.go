package pairing

import (
	"errors"

	"seccloud/internal/curve"
	"seccloud/internal/mont"
)

// Pair computes ê(P, Q) = f_{q,P}(φ(Q))^((p²−1)/q), the modified Tate
// pairing. Both inputs must lie in G1 (the caller is responsible for
// subgroup membership of untrusted points, via Group.InSubgroup).
//
// The Miller loop runs over the bits of q, doubling and adding the
// accumulator R in Jacobian coordinates on Montgomery limbs, and evaluates
// the tangent/chord lines at φ(Q) = (−x_Q, i·y_Q). With embedding degree 2,
// every vertical-line (denominator) contribution and every factor the
// projective coordinates put on a line lies in Fp* and vanishes under the
// final exponentiation, so only line numerators are accumulated and no
// step inverts anything.
func (pp *Params) Pair(p1, q1 *curve.Point) *GT {
	if p1.Inf || q1.Inf {
		return pp.One()
	}
	f := pp.miller([]millerPair{pp.newMillerPair(p1, q1)})
	return pp.finalExp(&f)
}

// millerPair is one (P, Q) of a Miller loop: the fixed operands and the
// running accumulator R.
type millerPair struct {
	px, py mont.Elem // P, affine
	qx, qy mont.Elem // Q, affine; φ is applied where the line is evaluated
	r      millerAcc
}

// millerAcc is the accumulator R of one Miller loop, in Jacobian
// coordinates. done records that R reached the point at infinity, after
// which the loop has no more lines to contribute.
type millerAcc struct {
	x, y, z mont.Elem
	done    bool
}

// line is a tangent or chord through R as the three coefficients of its
// value at φ(Q): l = a·x_Q + b + c·y_Q·i.
type line struct{ a, b, c mont.Elem }

func (pp *Params) newMillerPair(p1, q1 *curve.Point) millerPair {
	var m millerPair
	pp.fp.FromBig(&m.px, p1.X)
	pp.fp.FromBig(&m.py, p1.Y)
	pp.fp.FromBig(&m.qx, q1.X)
	pp.fp.FromBig(&m.qy, q1.Y)
	m.r = millerAcc{x: m.px, y: m.py, z: pp.fp.One()}
	return m
}

// doubleStep sets R = 2R and returns the tangent at the old R, scaled by
// the Fp* factor 2YZ³: with M = 3X² + Z⁴ (the curve's a is 1),
//
//	a = M·Z²,  b = M·X − 2Y²,  c = 2YZ·Z².
//
// It reports false, with R marked done, when the tangent is vertical
// (y_R = 0): that line lies in Fp* and 2R is the point at infinity.
func (pp *Params) doubleStep(r *millerAcc) (l line, ok bool) {
	f := pp.fp
	if f.IsZero(&r.y) {
		r.done = true
		return l, false
	}
	var xx, yy, yyyy, zz, s, m, t mont.Elem
	f.Square(&xx, &r.x)
	f.Square(&yy, &r.y)
	f.Square(&yyyy, &yy)
	f.Square(&zz, &r.z)
	f.Square(&m, &zz)
	f.Add(&m, &m, &xx)
	f.Double(&t, &xx)
	f.Add(&m, &m, &t) // M = 3X² + Z⁴
	f.Mul(&l.a, &m, &zz)
	f.Mul(&l.b, &m, &r.x)
	f.Sub(&l.b, &l.b, &yy)
	f.Sub(&l.b, &l.b, &yy)
	f.Mul(&s, &r.x, &yy)
	f.Double(&s, &s)
	f.Double(&s, &s) // S = 4XY²
	f.Mul(&r.z, &r.y, &r.z)
	f.Double(&r.z, &r.z) // Z' = 2YZ
	f.Mul(&l.c, &r.z, &zz)
	f.Square(&r.x, &m)
	f.Sub(&r.x, &r.x, &s)
	f.Sub(&r.x, &r.x, &s) // X' = M² − 2S
	f.Sub(&t, &s, &r.x)
	f.Mul(&t, &t, &m)
	f.Double(&yyyy, &yyyy)
	f.Double(&yyyy, &yyyy)
	f.Double(&yyyy, &yyyy)
	f.Sub(&r.y, &t, &yyyy) // Y' = M(S − X') − 8Y⁴
	return l, true
}

// addStep sets R = R + P for the loop's affine P and returns the chord
// through them, scaled by the Fp* factor Z' = Z·H: with H = x_P·Z² − X
// and r = y_P·Z³ − Y,
//
//	a = r,  b = r·x_P − Z'·y_P,  c = Z'.
//
// R = P takes the tangent instead (doubleStep). R = −P has a vertical
// chord: no line, R is done.
func (pp *Params) addStep(r *millerAcc, px, py *mont.Elem) (l line, ok bool) {
	f := pp.fp
	var zz, u2, s2, h, rr, hh, hhh, v, t mont.Elem
	f.Square(&zz, &r.z)
	f.Mul(&u2, px, &zz)
	f.Mul(&s2, &r.z, &zz)
	f.Mul(&s2, &s2, py)
	f.Sub(&h, &u2, &r.x)
	f.Sub(&rr, &s2, &r.y)
	if f.IsZero(&h) {
		if f.IsZero(&rr) {
			return pp.doubleStep(r)
		}
		r.done = true
		return l, false
	}
	f.Square(&hh, &h)
	f.Mul(&hhh, &hh, &h)
	f.Mul(&v, &r.x, &hh)
	f.Mul(&r.z, &r.z, &h) // Z' = Z·H
	l.a, l.c = rr, r.z
	f.Mul(&l.b, &rr, px)
	f.Mul(&t, &r.z, py)
	f.Sub(&l.b, &l.b, &t)
	f.Square(&r.x, &rr)
	f.Sub(&r.x, &r.x, &hhh)
	f.Sub(&r.x, &r.x, &v)
	f.Sub(&r.x, &r.x, &v) // X' = r² − H³ − 2V
	f.Sub(&t, &v, &r.x)
	f.Mul(&t, &t, &rr)
	f.Mul(&hhh, &hhh, &r.y)
	f.Sub(&r.y, &t, &hhh) // Y' = r(V − X') − Y·H³
	return l, true
}

// mulLine sets f = f·(a·x_Q + b + c·y_Q·i).
func (pp *Params) mulLine(f *mont.Elem2, l *line, qx, qy *mont.Elem) {
	var v mont.Elem2
	pp.fp.Mul(&v.A, &l.a, qx)
	pp.fp.Add(&v.A, &v.A, &l.b)
	pp.fp.Mul(&v.B, &l.c, qy)
	pp.fp.Mul2(f, f, &v)
}

// miller returns Π f_{q,Pᵢ}(φ(Qᵢ)), each factor up to an element of Fp*,
// from one loop over the bits of q: the accumulator is squared once per
// bit for the whole product and multiplied by every pair's lines.
func (pp *Params) miller(pairs []millerPair) mont.Elem2 {
	for range pairs {
		pp.g1.Counters().AddMillerLoop()
	}
	f := pp.fp.One2()
	for i := pp.q.BitLen() - 2; i >= 0; i-- {
		pp.fp.Square2(&f, &f)
		for j := range pairs {
			m := &pairs[j]
			if m.r.done {
				continue
			}
			if l, ok := pp.doubleStep(&m.r); ok {
				pp.mulLine(&f, &l, &m.qx, &m.qy)
			}
			if pp.q.Bit(i) == 1 && !m.r.done {
				if l, ok := pp.addStep(&m.r, &m.px, &m.py); ok {
					pp.mulLine(&f, &l, &m.qx, &m.qy)
				}
			}
		}
	}
	return f
}

// finalExp raises the Miller value to (p²−1)/q = (p−1)·h.
//
// x = f^(p−1) = conj(f)/f (the Frobenius on Fp2 is conjugation for
// p ≡ 3 mod 4) has norm 1, so the powers of x = a + b·i are carried by
// their real parts alone: W_n = Re(x^n) satisfies W_2n = 2W_n² − 1 and
// W_2n+1 = 2·W_n·W_n+1 − a (the Lucas sequence V_n(2a, 1), halved), one
// squaring and one product in Fp per bit of h where a general Fp2 ladder
// pays five products. The imaginary part comes back at the end from
// Re(x^(h+1)) = a·Re(x^h) − b·Im(x^h). The inversions of f's norm and of b
// share one field inversion.
func (pp *Params) finalExp(f *mont.Elem2) *GT {
	pp.g1.Counters().AddFinalExp()
	fp := pp.fp
	var n, t, c, d mont.Elem
	fp.Square(&n, &f.A)
	fp.Square(&t, &f.B)
	fp.Sub(&c, &n, &t)
	fp.Add(&n, &n, &t) // N = u² + v² for f = u + v·i
	fp.Mul(&d, &f.A, &f.B)
	fp.Double(&d, &d)
	fp.Neg(&d, &d) // conj(f)² = c + d·i, and x = conj(f)²/N
	if fp.IsZero(&n) {
		// The Miller value is a product of nonzero line values, so zero is
		// unreachable for valid inputs; map it to the identity defensively.
		return pp.One()
	}
	if fp.IsZero(&d) {
		// x = c/N = ±1: no imaginary part to recover, and x^h is x or 1.
		var x mont.Elem2
		fp.Inv(&t, &n)
		fp.Mul(&x.A, &c, &t)
		fp.Exp2(&x, &x, pp.h)
		return pp.gtFromLimbs(&x)
	}
	var inv, ninv, binv, a, b mont.Elem
	fp.Mul(&t, &n, &d)
	fp.Inv(&inv, &t)
	fp.Mul(&ninv, &inv, &d) // 1/N
	fp.Mul(&a, &c, &ninv)
	fp.Mul(&b, &d, &ninv)
	fp.Square(&binv, &n)
	fp.Mul(&binv, &binv, &inv) // 1/b = N/d

	one := fp.One()
	w0, w1 := one, a // W_n, W_n+1 for n the bits of h read so far
	for i := pp.h.BitLen() - 1; i >= 0; i-- {
		var cross mont.Elem
		fp.Mul(&cross, &w0, &w1)
		fp.Double(&cross, &cross)
		fp.Sub(&cross, &cross, &a) // W_2n+1
		if pp.h.Bit(i) == 0 {
			fp.Square(&w0, &w0)
			fp.Double(&w0, &w0)
			fp.Sub(&w0, &w0, &one)
			w1 = cross
		} else {
			fp.Square(&w1, &w1)
			fp.Double(&w1, &w1)
			fp.Sub(&w1, &w1, &one)
			w0 = cross
		}
	}
	var out mont.Elem2
	out.A = w0
	fp.Mul(&t, &a, &w0)
	fp.Sub(&t, &t, &w1)
	fp.Mul(&out.B, &t, &binv)
	return pp.gtFromLimbs(&out)
}

// PairProd computes Π ê(Pᵢ, Qᵢ) with one interleaved Miller loop — one
// squaring chain for the whole product — and one final exponentiation, the
// standard optimization for batch verification equations.
func (pp *Params) PairProd(ps, qs []*curve.Point) (*GT, error) {
	if len(ps) != len(qs) {
		return nil, errors.New("pairing: mismatched slice lengths in PairProd")
	}
	pairs := make([]millerPair, 0, len(ps))
	for i := range ps {
		if ps[i].Inf || qs[i].Inf {
			continue
		}
		pairs = append(pairs, pp.newMillerPair(ps[i], qs[i]))
	}
	f := pp.miller(pairs)
	return pp.finalExp(&f), nil
}
