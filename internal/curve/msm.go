package curve

import (
	"math/big"

	"seccloud/internal/mont"
)

// The multi-scalar multiplication every ladder of this package runs on:
// ScalarMult, SumScalarMult, InSubgroup and HashToPoint's cofactor clearing
// are msm with one term or many. Points are held as Montgomery limbs in
// Jacobian coordinates (x = X/Z², y = Y/Z³, Z = 0 the point at infinity)
// from conversion in to conversion out; nothing in between allocates
// beyond the per-call tables.

// jacPoint is a point in Jacobian coordinates on Montgomery limbs.
type jacPoint struct{ x, y, z mont.Elem }

// affPoint is an affine point on Montgomery limbs.
type affPoint struct {
	x, y mont.Elem
	inf  bool
}

// msmWindow is the width of the signed windows (width-w NAF): each term
// gets a table of the 2^(w−2) odd multiples P, 3P, …, and one addition per
// w+1 scalar bits on average, against one per 2 bits for the binary
// interleave. Measured at SS512 (BenchmarkMSMShapes, best of five, µs per
// term) on the shapes the callers produce — a single audit's batch (33
// signatures with 128-bit randomizers and two 160-bit signer terms), its
// 64-bit membership combination, a scheduler flush at its limit of 48
// signatures, and one full-width multiplication:
//
//	w                  3      4      5      6
//	audit, 35 terms    67.6   68.5   77.9   94.9
//	membership, 33     36.4   39.3   50.3   78.3
//	flush, 50 terms    64.1   65.2   80.6   103.0
//	single, 160 bits   303.6  309.9  313.1  337.9
//
// Wider tables lose what they save in additions to building and
// normalising their entries, so w = 3 serves every caller, and its table
// is just {P, 3P}: msm builds exactly that (the wider columns were measured
// with a general table builder, since removed).
const msmWindow = 3

// toAff converts a finite point in; msm's callers have dropped infinities.
func (g *Group) toAff(pt *Point) (a affPoint) {
	g.mf.FromBig(&a.x, pt.X)
	g.mf.FromBig(&a.y, pt.Y)
	return a
}

// fromJac converts a kernel's result out: one field inversion.
func (g *Group) fromJac(j *jacPoint) *Point {
	f := g.mf
	var zinv, zinv2, x, y mont.Elem
	if !f.Inv(&zinv, &j.z) {
		return &Point{Inf: true}
	}
	f.Square(&zinv2, &zinv)
	f.Mul(&x, &j.x, &zinv2)
	f.Mul(&zinv2, &zinv2, &zinv)
	f.Mul(&y, &j.y, &zinv2)
	return &Point{X: f.ToBig(&x), Y: f.ToBig(&y)}
}

// double sets r = 2r: 3 products and 6 squarings, M = 3X² + Z⁴ for the
// curve's a = 1.
func (g *Group) double(r *jacPoint) {
	f := g.mf
	if f.IsZero(&r.z) || f.IsZero(&r.y) {
		*r = jacPoint{}
		return
	}
	var xx, yy, yyyy, zz, s, m, t mont.Elem
	f.Square(&xx, &r.x)
	f.Square(&yy, &r.y)
	f.Square(&yyyy, &yy)
	f.Square(&zz, &r.z)
	f.Mul(&s, &r.x, &yy)
	f.Double(&s, &s)
	f.Double(&s, &s) // S = 4XY²
	f.Square(&m, &zz)
	f.Add(&m, &m, &xx)
	f.Double(&xx, &xx)
	f.Add(&m, &m, &xx)      // M = 3X² + Z⁴
	f.Mul(&r.z, &r.y, &r.z) // before r.y changes
	f.Double(&r.z, &r.z)    // Z' = 2YZ
	f.Square(&r.x, &m)
	f.Sub(&r.x, &r.x, &s)
	f.Sub(&r.x, &r.x, &s) // X' = M² − 2S
	f.Sub(&t, &s, &r.x)
	f.Mul(&t, &t, &m)
	f.Double(&yyyy, &yyyy)
	f.Double(&yyyy, &yyyy)
	f.Double(&yyyy, &yyyy)
	f.Sub(&r.y, &t, &yyyy) // Y' = M(S − X') − 8Y⁴
}

// addAffine sets r = r + b, or r − b when neg: 8 products and 3 squarings.
func (g *Group) addAffine(r *jacPoint, b *affPoint, neg bool) {
	f := g.mf
	if b.inf {
		return
	}
	by := b.y
	if neg {
		f.Neg(&by, &by)
	}
	if f.IsZero(&r.z) {
		*r = jacPoint{x: b.x, y: by, z: f.One()}
		return
	}
	var zz, u2, s2, h, rr, hh, hhh, v, t mont.Elem
	f.Square(&zz, &r.z)
	f.Mul(&u2, &b.x, &zz)
	f.Mul(&s2, &r.z, &zz)
	f.Mul(&s2, &s2, &by)
	f.Sub(&h, &u2, &r.x)
	f.Sub(&rr, &s2, &r.y)
	if f.IsZero(&h) {
		if f.IsZero(&rr) {
			g.double(r)
		} else {
			*r = jacPoint{}
		}
		return
	}
	f.Square(&hh, &h)
	f.Mul(&hhh, &hh, &h)
	f.Mul(&v, &r.x, &hh)
	f.Mul(&r.z, &r.z, &h) // Z' = Z·H
	f.Square(&r.x, &rr)
	f.Sub(&r.x, &r.x, &hhh)
	f.Sub(&r.x, &r.x, &v)
	f.Sub(&r.x, &r.x, &v) // X' = r² − H³ − 2V
	f.Sub(&t, &v, &r.x)
	f.Mul(&t, &t, &rr)
	f.Mul(&hhh, &hhh, &r.y)
	f.Sub(&r.y, &t, &hhh) // Y' = r(V − X') − Y·H³
}

// normalize converts Jacobian points to affine with one shared field
// inversion over their Z coordinates. out must have len(js) entries.
func (g *Group) normalize(js []jacPoint, out []affPoint) {
	f := g.mf
	zs := make([]mont.Elem, 2*len(js))
	for i := range js {
		zs[i] = js[i].z
	}
	f.InvBatch(zs[:len(js)], zs[len(js):])
	for i := range js {
		zinv := &zs[i]
		if f.IsZero(zinv) {
			out[i] = affPoint{inf: true}
			continue
		}
		var zinv2 mont.Elem
		f.Square(&zinv2, zinv)
		f.Mul(&out[i].x, &js[i].x, &zinv2)
		f.Mul(&zinv2, &zinv2, zinv)
		f.Mul(&out[i].y, &js[i].y, &zinv2)
		out[i].inf = false
	}
}

// msm returns Σ ks[i]·pts[i] in Jacobian form by Straus's interleaving
// over signed windows: per term the table {P, 3P}, the 3P batch-normalised,
// then one doubling chain as long as the longest scalar that adds or
// subtracts one table entry per term every msmWindow+1 bits on average.
// Points at infinity and zero scalars must have been dropped by the
// caller; scalars are taken as they are (a negative one negates its point,
// none is reduced mod q, since InSubgroup and the cofactor clearing
// multiply points that q does not kill).
func (g *Group) msm(pts []*Point, ks []*big.Int) jacPoint {
	n := len(pts)
	ones := make([]affPoint, n)   // P of each term
	threes := make([]affPoint, n) // 3P of each term
	triples := make([]jacPoint, n)
	digits := make([][]int8, n)
	top := 0
	for j, pt := range pts {
		digits[j] = mont.Digits(ks[j], msmWindow, true)
		if len(digits[j]) > top {
			top = len(digits[j])
		}
		ones[j] = g.toAff(pt)
		g.addAffine(&triples[j], &ones[j], false)
		g.double(&triples[j])
		g.addAffine(&triples[j], &ones[j], false)
	}
	g.normalize(triples, threes)
	var acc jacPoint
	for i := top - 1; i >= 0; i-- {
		g.double(&acc)
		for j, dj := range digits {
			if i >= len(dj) || dj[i] == 0 {
				continue
			}
			entry := &ones[j]
			if dj[i] == 3 || dj[i] == -3 {
				entry = &threes[j]
			}
			g.addAffine(&acc, entry, (dj[i] < 0) != (ks[j].Sign() < 0))
		}
	}
	return acc
}
