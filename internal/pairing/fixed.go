package pairing

import (
	"math/big"

	"seccloud/internal/mont"
)

// fixedWindow is the window width of a FixedGT table, the twin of
// curve.FixedBase's: one product of Fp2 per window where GT.Exp pays a
// squaring per exponent bit besides. Measured (BenchmarkFixedGT, best of
// three, µs: one exponentiation / building the table) against a GT.Exp of
// 14 µs at InsecureTest256 and 73 µs at SS512:
//
//	w          3          4          5          6
//	test256    5.9 / 35   3.5 / 41   3.2 / 72   2.7 / 119
//	SS512      32 / 138   20 / 194   18 / 311   14 / 526
//
// Either table is built once per (signing key, verifier) beside a cold
// pairing (160 µs, 840 µs); w = 4 as for the points.
const fixedWindow = 4

// FixedGT raises one element of GT to many exponents: a table of the
// powers g^(j·2^(w·i)) for every window i of an exponent and 0 < j ≤
// 2^(w−1) replaces the squaring chain of GT.Exp with one product per
// window. Elements of GT have norm 1, so the inverse a negative digit asks
// for is the table entry's conjugate. Immutable after NewFixedGT and safe
// for concurrent use.
type FixedGT struct {
	pp    *Params
	table []mont.Elem2 // table[i·2^(w−1) + j−1] = g^(j·2^(w·i))
}

// NewFixedGT builds the table for g, which must lie in GT (a pairing
// output does): Exp reduces its exponent modulo q and inverts by
// conjugation.
func (pp *Params) NewFixedGT(g *GT) *FixedGT {
	const half = 1 << (fixedWindow - 1)
	fp := pp.fp
	n := mont.FixedWindows(pp.q.BitLen(), fixedWindow)
	t := &FixedGT{pp: pp, table: make([]mont.Elem2, n*half)}
	var base mont.Elem2
	fp.FromBig(&base.A, g.v.A)
	fp.FromBig(&base.B, g.v.B)
	for i := 0; i < n; i++ {
		row := t.table[i*half : (i+1)*half]
		row[0] = base
		for j := 1; j < half; j++ {
			fp.Mul2(&row[j], &row[j-1], &base)
		}
		fp.Square2(&base, &row[half/2-1]) // g^(2^(w·(i+1))) from the row's g^(2^(w·i+w−2))
		fp.Square2(&base, &base)
	}
	return t
}

// Exp returns g^k, equal to g.Exp(k).
func (t *FixedGT) Exp(k *big.Int) *GT {
	const half = 1 << (fixedWindow - 1)
	fp := t.pp.fp
	if k.Sign() < 0 || k.Cmp(t.pp.q) >= 0 {
		k = new(big.Int).Mod(k, t.pp.q)
	}
	acc := fp.One2()
	for i, d := range mont.FixedDigits(k, fixedWindow, len(t.table)/half) {
		switch {
		case d > 0:
			fp.Mul2(&acc, &acc, &t.table[i*half+int(d)-1])
		case d < 0:
			conj := t.table[i*half-int(d)-1]
			fp.Neg(&conj.B, &conj.B)
			fp.Mul2(&acc, &acc, &conj)
		}
	}
	return t.pp.gtFromLimbs(&acc)
}
