// Package curve implements the elliptic-curve group G1 used by SecCloud:
// the order-q subgroup of the supersingular curve
//
//	E(Fp): y² = x³ + x,  p ≡ 3 (mod 4),  #E(Fp) = p + 1 = h·q.
//
// Because E is supersingular with embedding degree 2, the distortion map
// φ(x, y) = (−x, i·y) sends G1 into E(Fp2) and turns the Tate pairing into
// the symmetric bilinear map ê : G1 × G1 → GT that the paper assumes.
//
// The exported Point type is affine over math/big coordinates. Every
// scalar multiplication runs on Montgomery limbs in Jacobian coordinates
// (msm.go) and converts at entry and exit; single affine additions stay on
// math/big.
package curve

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"seccloud/internal/ff"
	"seccloud/internal/mont"
	"seccloud/internal/ops"
)

// ErrInvalidPoint reports a point that is not on the curve or not in G1.
var ErrInvalidPoint = errors.New("curve: invalid point")

// Group describes the concrete curve subgroup. A Group is immutable after
// construction and safe for concurrent use.
type Group struct {
	fp  *ff.Ctx
	mf  *mont.Field // the same field as fp, for the limb kernels
	sf  *ff.ScalarField
	p   *big.Int // field prime
	q   *big.Int // subgroup order
	h   *big.Int // cofactor, p + 1 = h·q
	gen *Point   // generator of G1

	counters *ops.Counters // expensive-op accounting, always on
}

// Point is an affine point on E(Fp), plus the point at infinity.
// The zero value is the point at infinity.
type Point struct {
	X, Y *big.Int
	Inf  bool
}

// NewGroup validates the supplied parameters and returns the group.
// gen must be a point of exact order q.
func NewGroup(p, q, h *big.Int, gen *Point) (*Group, error) {
	fp, err := ff.NewCtx(p)
	if err != nil {
		return nil, fmt.Errorf("curve: building field context: %w", err)
	}
	mf, err := mont.NewField(p)
	if err != nil {
		return nil, fmt.Errorf("curve: building field context: %w", err)
	}
	sf, err := ff.NewScalarField(q)
	if err != nil {
		return nil, fmt.Errorf("curve: building scalar field: %w", err)
	}
	// Check p + 1 == h·q.
	ord := new(big.Int).Mul(h, q)
	pp1 := new(big.Int).Add(p, big.NewInt(1))
	if ord.Cmp(pp1) != 0 {
		return nil, errors.New("curve: parameters do not satisfy p+1 = h·q")
	}
	g := &Group{
		fp: fp, mf: mf, sf: sf,
		p:        new(big.Int).Set(p),
		q:        new(big.Int).Set(q),
		h:        new(big.Int).Set(h),
		counters: new(ops.Counters),
	}
	if gen == nil || gen.Inf || !g.IsOnCurve(gen) {
		return nil, fmt.Errorf("curve: generator: %w", ErrInvalidPoint)
	}
	if !g.ScalarMult(gen, q).Inf {
		return nil, errors.New("curve: generator does not have order q")
	}
	g.gen = g.Copy(gen)
	return g, nil
}

// FieldCtx returns the Fp arithmetic context shared with the pairing.
func (g *Group) FieldCtx() *ff.Ctx { return g.fp }

// Counters exposes the group's expensive-operation counters. All parties
// constructed from the same parameter set share them; snapshot around a
// single-threaded section to attribute counts to one party.
func (g *Group) Counters() *ops.Counters { return g.counters }

// Scalars returns the Zq helper shared with the protocol layers.
func (g *Group) Scalars() *ff.ScalarField { return g.sf }

// P returns a copy of the field prime.
func (g *Group) P() *big.Int { return new(big.Int).Set(g.p) }

// Q returns a copy of the subgroup order.
func (g *Group) Q() *big.Int { return new(big.Int).Set(g.q) }

// Cofactor returns a copy of h = (p+1)/q.
func (g *Group) Cofactor() *big.Int { return new(big.Int).Set(g.h) }

// Generator returns a copy of the group generator.
func (g *Group) Generator() *Point { return g.Copy(g.gen) }

// Infinity returns the point at infinity (group identity).
func (g *Group) Infinity() *Point { return &Point{Inf: true} }

// Copy returns a deep copy of pt.
func (g *Group) Copy(pt *Point) *Point {
	if pt.Inf {
		return &Point{Inf: true}
	}
	return &Point{X: new(big.Int).Set(pt.X), Y: new(big.Int).Set(pt.Y)}
}

// Equal reports whether a and b are the same group element.
func (g *Group) Equal(a, b *Point) bool {
	if a.Inf || b.Inf {
		return a.Inf == b.Inf
	}
	return a.X.Cmp(b.X) == 0 && a.Y.Cmp(b.Y) == 0
}

// IsOnCurve reports whether pt satisfies y² = x³ + x over Fp.
func (g *Group) IsOnCurve(pt *Point) bool {
	if pt.Inf {
		return true
	}
	if pt.X == nil || pt.Y == nil || !g.fp.InField(pt.X) || !g.fp.InField(pt.Y) {
		return false
	}
	lhs := new(big.Int).Mul(pt.Y, pt.Y)
	lhs.Mod(lhs, g.p)
	rhs := new(big.Int).Mul(pt.X, pt.X)
	rhs.Mul(rhs, pt.X)
	rhs.Add(rhs, pt.X)
	rhs.Mod(rhs, g.p)
	return lhs.Cmp(rhs) == 0
}

// InSubgroup reports whether pt is on the curve and has order dividing q.
func (g *Group) InSubgroup(pt *Point) bool {
	if pt.Inf {
		return true
	}
	if !g.IsOnCurve(pt) {
		return false
	}
	// Only whether q·pt is the point at infinity matters, which the
	// Jacobian result shows as Z = 0 without an affine conversion.
	g.counters.AddPointMul()
	acc := g.msm([]*Point{pt}, []*big.Int{g.q})
	return g.mf.IsZero(&acc.z)
}

// Neg returns −pt.
func (g *Group) Neg(pt *Point) *Point {
	if pt.Inf {
		return &Point{Inf: true}
	}
	y := new(big.Int).Neg(pt.Y)
	y.Mod(y, g.p)
	return &Point{X: new(big.Int).Set(pt.X), Y: y}
}

// Add returns a + b using affine arithmetic.
func (g *Group) Add(a, b *Point) *Point {
	if a.Inf {
		return g.Copy(b)
	}
	if b.Inf {
		return g.Copy(a)
	}
	if a.X.Cmp(b.X) == 0 {
		ysum := new(big.Int).Add(a.Y, b.Y)
		ysum.Mod(ysum, g.p)
		if ysum.Sign() == 0 {
			return &Point{Inf: true}
		}
		return g.Double(a)
	}
	num := new(big.Int).Sub(b.Y, a.Y)
	den := new(big.Int).Sub(b.X, a.X)
	den.Mod(den, g.p)
	den.ModInverse(den, g.p)
	l := num.Mul(num, den)
	l.Mod(l, g.p)
	x3 := new(big.Int).Mul(l, l)
	x3.Sub(x3, a.X)
	x3.Sub(x3, b.X)
	x3.Mod(x3, g.p)
	y3 := new(big.Int).Sub(a.X, x3)
	y3.Mul(y3, l)
	y3.Sub(y3, a.Y)
	y3.Mod(y3, g.p)
	return &Point{X: x3, Y: y3}
}

// Double returns 2·a using affine arithmetic with the curve term a = 1:
// λ = (3x² + 1) / 2y.
func (g *Group) Double(a *Point) *Point {
	if a.Inf || a.Y.Sign() == 0 {
		return &Point{Inf: true}
	}
	num := new(big.Int).Mul(a.X, a.X)
	num.Mul(num, big.NewInt(3))
	num.Add(num, big.NewInt(1))
	den := new(big.Int).Lsh(a.Y, 1)
	den.ModInverse(den, g.p)
	l := num.Mul(num, den)
	l.Mod(l, g.p)
	x3 := new(big.Int).Mul(l, l)
	x3.Sub(x3, new(big.Int).Lsh(a.X, 1))
	x3.Mod(x3, g.p)
	y3 := new(big.Int).Sub(a.X, x3)
	y3.Mul(y3, l)
	y3.Sub(y3, a.Y)
	y3.Mod(y3, g.p)
	return &Point{X: x3, Y: y3}
}

// Sub returns a - b.
func (g *Group) Sub(a, b *Point) *Point { return g.Add(a, g.Neg(b)) }

// ScalarMult returns k·pt. Negative k is handled as (−k)·(−pt).
func (g *Group) ScalarMult(pt *Point, k *big.Int) *Point {
	if pt.Inf || k.Sign() == 0 {
		return &Point{Inf: true}
	}
	g.counters.AddPointMul()
	acc := g.msm([]*Point{pt}, []*big.Int{k})
	return g.fromJac(&acc)
}

// BaseMult returns k·G for the group generator G.
func (g *Group) BaseMult(k *big.Int) *Point { return g.ScalarMult(g.gen, k) }

// SumScalarMult returns Σ kᵢ·ptᵢ. Slices must have equal length.
//
// The sum is one multi-scalar multiplication (msm.go): the accumulator is
// doubled once per bit of the longest scalar for the whole batch, and each
// term adds one entry of its own small table every few bits. For n points
// with b-bit scalars the cost is b doublings plus about n·(b/4 + 4)
// additions, versus n·b doublings for n separate multiplications. This is
// what makes cross-user aggregate verification cheap: the batch's U_A
// accumulation shares one doubling chain across every tenant's items.
func (g *Group) SumScalarMult(pts []*Point, ks []*big.Int) (*Point, error) {
	if len(pts) != len(ks) {
		return nil, fmt.Errorf("curve: mismatched lengths %d vs %d", len(pts), len(ks))
	}
	bases := make([]*Point, 0, len(pts))
	scalars := make([]*big.Int, 0, len(ks))
	for i, pt := range pts {
		if pt.Inf || ks[i].Sign() == 0 {
			continue
		}
		bases = append(bases, pt)
		scalars = append(scalars, ks[i])
		g.counters.AddPointMul()
	}
	acc := g.msm(bases, scalars)
	return g.fromJac(&acc), nil
}

// RandPoint returns a uniformly random element of G1 together with the
// discrete log k such that the point equals k·G (useful in tests).
func (g *Group) RandPoint(r io.Reader) (*Point, *big.Int, error) {
	k, err := g.sf.Rand(r)
	if err != nil {
		return nil, nil, fmt.Errorf("curve: random point: %w", err)
	}
	return g.BaseMult(k), k, nil
}
