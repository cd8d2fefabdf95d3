package pairing

import (
	"math/big"

	"seccloud/internal/curve"
	"seccloud/internal/ff"
)

// The affine math/big Miller loop and final exponentiation this package ran
// on before its kernels moved to Montgomery limbs, kept as the oracle the
// projective limb loop is compared against (FuzzPair,
// TestPairMatchesAffineOracle). Its counters are not touched.

// oraclePair computes ê(P, Q) the way Params.Pair did.
func (pp *Params) oraclePair(p1, q1 *curve.Point) *GT {
	fp := pp.g1.FieldCtx()
	if p1.Inf || q1.Inf {
		return &GT{pp: pp, v: fp.Fp2One()}
	}
	return &GT{pp: pp, v: pp.oracleFinalExp(pp.affineMiller(p1, q1))}
}

// oraclePairProd multiplies the affine Miller values and exponentiates
// once, the way Params.PairProd did.
func (pp *Params) oraclePairProd(ps, qs []*curve.Point) *GT {
	fp := pp.g1.FieldCtx()
	acc := fp.Fp2One()
	for i := range ps {
		if ps[i].Inf || qs[i].Inf {
			continue
		}
		acc = fp.Fp2Mul(acc, pp.affineMiller(ps[i], qs[i]))
	}
	return &GT{pp: pp, v: pp.oracleFinalExp(acc)}
}

// affineMiller returns the un-exponentiated Miller value f_{q,P}(φ(Q))
// with affine doubling/addition of the accumulator R, one modular
// inversion a step.
func (pp *Params) affineMiller(p1, q1 *curve.Point) *ff.Fp2 {
	fp := pp.g1.FieldCtx()
	p := pp.p
	f := fp.Fp2One()

	// Line evaluation at φ(Q) = (−xQ, i·yQ) for the line through R with
	// slope λ:  l = λ·(xQ + xR) − yR + yQ·i.
	lineVal := func(lambda, xr, yr *big.Int) *ff.Fp2 {
		a := new(big.Int).Add(q1.X, xr)
		a.Mul(a, lambda)
		a.Sub(a, yr)
		a.Mod(a, p)
		return &ff.Fp2{A: a, B: new(big.Int).Set(q1.Y)}
	}

	rx := new(big.Int).Set(p1.X)
	ry := new(big.Int).Set(p1.Y)
	rInf := false
	three := big.NewInt(3)
	one := big.NewInt(1)

	// tangent multiplies in the tangent at R and doubles R.
	tangent := func() {
		// λ = (3x² + 1) / (2y)
		num := new(big.Int).Mul(rx, rx)
		num.Mul(num, three)
		num.Add(num, one)
		den := new(big.Int).Lsh(ry, 1)
		den.ModInverse(den, p)
		lambda := num.Mul(num, den)
		lambda.Mod(lambda, p)
		f = fp.Fp2Mul(f, lineVal(lambda, rx, ry))
		x3 := new(big.Int).Mul(lambda, lambda)
		x3.Sub(x3, new(big.Int).Lsh(rx, 1))
		x3.Mod(x3, p)
		y3 := new(big.Int).Sub(rx, x3)
		y3.Mul(y3, lambda)
		y3.Sub(y3, ry)
		y3.Mod(y3, p)
		rx, ry = x3, y3
	}

	for i := pp.q.BitLen() - 2; i >= 0; i-- {
		f = fp.Fp2Square(f)
		if !rInf {
			if ry.Sign() == 0 {
				// Tangent is vertical: contribution lies in Fp*, ignored.
				rInf = true
			} else {
				tangent()
			}
		}
		if pp.q.Bit(i) == 1 && !rInf {
			switch {
			case rx.Cmp(p1.X) == 0 && ry.Cmp(p1.Y) == 0:
				// Adding equal points: same as a doubling step.
				if ry.Sign() == 0 {
					rInf = true
					continue
				}
				tangent()
			case rx.Cmp(p1.X) == 0:
				// R = −P: chord is vertical, contribution in Fp*, ignored.
				rInf = true
			default:
				// λ = (yP − yR) / (xP − xR)
				num := new(big.Int).Sub(p1.Y, ry)
				den := new(big.Int).Sub(p1.X, rx)
				den.Mod(den, p)
				den.ModInverse(den, p)
				lambda := num.Mul(num, den)
				lambda.Mod(lambda, p)
				f = fp.Fp2Mul(f, lineVal(lambda, rx, ry))
				x3 := new(big.Int).Mul(lambda, lambda)
				x3.Sub(x3, rx)
				x3.Sub(x3, p1.X)
				x3.Mod(x3, p)
				y3 := new(big.Int).Sub(rx, x3)
				y3.Mul(y3, lambda)
				y3.Sub(y3, ry)
				y3.Mod(y3, p)
				rx, ry = x3, y3
			}
		}
	}
	return f
}

// oracleFinalExp raises the Miller value to (p²−1)/q = (p−1)·h: f^(p−1) as
// conj(f)·f⁻¹, then a plain square-and-multiply by the cofactor h on
// math/big products (ff.Fp2Exp itself now runs on limbs).
func (pp *Params) oracleFinalExp(f *ff.Fp2) *ff.Fp2 {
	fp := pp.g1.FieldCtx()
	inv, err := fp.Fp2Inv(f)
	if err != nil {
		return fp.Fp2One()
	}
	u := fp.Fp2Mul(fp.Fp2Conj(f), inv)
	r := fp.Fp2One()
	for i := pp.h.BitLen() - 1; i >= 0; i-- {
		r = fp.Fp2Square(r)
		if pp.h.Bit(i) == 1 {
			r = fp.Fp2Mul(r, u)
		}
	}
	return r
}
