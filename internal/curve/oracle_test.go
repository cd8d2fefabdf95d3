package curve

import "math/big"

// The math/big Jacobian ladder this package ran on before its kernels moved
// to Montgomery limbs, kept as the oracle the limb ladders are compared
// against (TestScalarMultMatchesBinaryLadder, FuzzScalarMult,
// FuzzSumScalarMult) and as the baseline of BenchmarkScalarMultAblation.

// jacobian is a projective representation (x = X/Z², y = Y/Z³).
type jacobian struct {
	x, y, z *big.Int
}

func (g *Group) toJacobian(p *Point) *jacobian {
	if p.Inf {
		return &jacobian{x: big.NewInt(1), y: big.NewInt(1), z: new(big.Int)}
	}
	return &jacobian{
		x: new(big.Int).Set(p.X),
		y: new(big.Int).Set(p.Y),
		z: big.NewInt(1),
	}
}

func (g *Group) fromJacobian(j *jacobian) *Point {
	if j.z.Sign() == 0 {
		return &Point{Inf: true}
	}
	zinv := new(big.Int).ModInverse(j.z, g.p)
	zinv2 := new(big.Int).Mul(zinv, zinv)
	zinv2.Mod(zinv2, g.p)
	x := new(big.Int).Mul(j.x, zinv2)
	x.Mod(x, g.p)
	zinv3 := zinv2.Mul(zinv2, zinv)
	zinv3.Mod(zinv3, g.p)
	y := new(big.Int).Mul(j.y, zinv3)
	y.Mod(y, g.p)
	return &Point{X: x, Y: y}
}

// jacDouble is the standard Jacobian doubling for y² = x³ + a·x with a = 1
// (M = 3X² + Z⁴).
func (g *Group) jacDouble(j *jacobian) *jacobian {
	if j.z.Sign() == 0 || j.y.Sign() == 0 {
		return &jacobian{x: big.NewInt(1), y: big.NewInt(1), z: new(big.Int)}
	}
	p := g.p
	yy := new(big.Int).Mul(j.y, j.y)
	yy.Mod(yy, p)
	s := new(big.Int).Mul(j.x, yy)
	s.Lsh(s, 2)
	s.Mod(s, p) // S = 4XY²
	xx := new(big.Int).Mul(j.x, j.x)
	xx.Mod(xx, p)
	zz := new(big.Int).Mul(j.z, j.z)
	zz.Mod(zz, p)
	z4 := new(big.Int).Mul(zz, zz)
	z4.Mod(z4, p)
	m := new(big.Int).Mul(xx, big.NewInt(3))
	m.Add(m, z4)
	m.Mod(m, p) // M = 3X² + Z⁴ (a = 1)
	x3 := new(big.Int).Mul(m, m)
	x3.Sub(x3, new(big.Int).Lsh(s, 1))
	x3.Mod(x3, p)
	y4 := new(big.Int).Mul(yy, yy)
	y4.Lsh(y4, 3)
	y4.Mod(y4, p) // 8Y⁴
	y3 := new(big.Int).Sub(s, x3)
	y3.Mul(y3, m)
	y3.Sub(y3, y4)
	y3.Mod(y3, p)
	z3 := new(big.Int).Mul(j.y, j.z)
	z3.Lsh(z3, 1)
	z3.Mod(z3, p)
	return &jacobian{x: x3, y: y3, z: z3}
}

// jacAddMixed adds the affine point b to j (mixed addition).
func (g *Group) jacAddMixed(j *jacobian, b *Point) *jacobian {
	if b.Inf {
		return j
	}
	if j.z.Sign() == 0 {
		return g.toJacobian(b)
	}
	p := g.p
	zz := new(big.Int).Mul(j.z, j.z)
	zz.Mod(zz, p)
	u2 := new(big.Int).Mul(b.X, zz)
	u2.Mod(u2, p)
	zzz := new(big.Int).Mul(zz, j.z)
	zzz.Mod(zzz, p)
	s2 := new(big.Int).Mul(b.Y, zzz)
	s2.Mod(s2, p)
	hh := new(big.Int).Sub(u2, j.x)
	hh.Mod(hh, p)
	r := new(big.Int).Sub(s2, j.y)
	r.Mod(r, p)
	if hh.Sign() == 0 {
		if r.Sign() == 0 {
			return g.jacDouble(j)
		}
		return &jacobian{x: big.NewInt(1), y: big.NewInt(1), z: new(big.Int)}
	}
	h2 := new(big.Int).Mul(hh, hh)
	h2.Mod(h2, p)
	h3 := new(big.Int).Mul(h2, hh)
	h3.Mod(h3, p)
	xh2 := new(big.Int).Mul(j.x, h2)
	xh2.Mod(xh2, p)
	x3 := new(big.Int).Mul(r, r)
	x3.Sub(x3, h3)
	x3.Sub(x3, new(big.Int).Lsh(xh2, 1))
	x3.Mod(x3, p)
	y3 := new(big.Int).Sub(xh2, x3)
	y3.Mul(y3, r)
	yh3 := new(big.Int).Mul(j.y, h3)
	y3.Sub(y3, yh3)
	y3.Mod(y3, p)
	z3 := new(big.Int).Mul(j.z, hh)
	z3.Mod(z3, p)
	return &jacobian{x: x3, y: y3, z: z3}
}

// scalarMultBinary is the classic double-and-add ladder.
func (g *Group) scalarMultBinary(pt *Point, k *big.Int) *Point {
	if pt.Inf || k.Sign() == 0 {
		return &Point{Inf: true}
	}
	base := pt
	kk := k
	if k.Sign() < 0 {
		base = g.Neg(pt)
		kk = new(big.Int).Neg(k)
	}
	acc := &jacobian{x: big.NewInt(1), y: big.NewInt(1), z: new(big.Int)}
	for i := kk.BitLen() - 1; i >= 0; i-- {
		acc = g.jacDouble(acc)
		if kk.Bit(i) == 1 {
			acc = g.jacAddMixed(acc, base)
		}
	}
	return g.fromJacobian(acc)
}
