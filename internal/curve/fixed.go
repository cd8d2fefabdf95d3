package curve

import (
	"math/big"

	"seccloud/internal/mont"
)

// fixedWindow is the window width of a FixedBase table: ⌈(|q|+1)/w⌉
// windows of 2^(w−1) affine entries each, and one addition per window per
// multiplication. Measured (BenchmarkFixedBase, best of three to five, µs:
// one multiplication / building the table) against a plain ScalarMult of
// 64 µs at InsecureTest256 and 327 µs at SS512:
//
//	w          3           4           5           6
//	test256    18.9 / 210  12.7 / 246  11.4 / 393  10.6 / 632
//	SS512      102 / 1150  60 / 1236   57 / 1970   52 / 2746
//
// w = 4 pays for its table by the fifth multiplication; each wider window
// saves another tenth of a multiplication for 1.6 times the build and
// twice the memory (41 KB a table at SS512 as it is).
const fixedWindow = 4

// FixedBase multiplies one point of G1 by many scalars: a table of the
// multiples j·2^(w·i)·P for every window i of a scalar and 0 < j ≤ 2^(w−1)
// replaces the doubling chain of ScalarMult with one addition per window.
// Immutable after NewFixedBase and safe for concurrent use. The table
// determines the point: one built from a secret key is as secret as the
// key.
type FixedBase struct {
	g     *Group
	table []affPoint // table[i·2^(w−1) + j−1] = j·2^(w·i)·P
}

// NewFixedBase builds the table for pt, which must lie in G1: Mult reduces
// its scalar modulo q.
func (g *Group) NewFixedBase(pt *Point) *FixedBase {
	fb := &FixedBase{g: g}
	if pt.Inf {
		return fb
	}
	const half = 1 << (fixedWindow - 1)
	n := mont.FixedWindows(g.q.BitLen(), fixedWindow)
	// The window bases 2^(w·i)·P by one doubling chain, made affine
	// together so that the entries above them are mixed additions.
	chain := make([]jacPoint, n)
	base := g.toAff(pt)
	chain[0] = jacPoint{x: base.x, y: base.y, z: g.mf.One()}
	for i := 1; i < n; i++ {
		chain[i] = chain[i-1]
		for j := 0; j < fixedWindow; j++ {
			g.double(&chain[i])
		}
	}
	bases := make([]affPoint, n)
	g.normalize(chain, bases)
	entries := make([]jacPoint, n*half)
	for i := range bases {
		row := entries[i*half : (i+1)*half]
		row[0] = chain[i]
		for j := 1; j < half; j++ {
			row[j] = row[j-1]
			g.addAffine(&row[j], &bases[i], false)
		}
	}
	fb.table = make([]affPoint, len(entries))
	g.normalize(entries, fb.table)
	return fb
}

// Mult returns k·P, equal to ScalarMult(P, k) for P in G1, and counts as
// one point multiplication.
func (fb *FixedBase) Mult(k *big.Int) *Point {
	g := fb.g
	if k.Sign() < 0 || k.Cmp(g.q) >= 0 {
		k = new(big.Int).Mod(k, g.q)
	}
	if fb.table == nil || k.Sign() == 0 {
		return &Point{Inf: true}
	}
	g.counters.AddPointMul()
	const half = 1 << (fixedWindow - 1)
	var acc jacPoint
	for i, d := range mont.FixedDigits(k, fixedWindow, len(fb.table)/half) {
		switch {
		case d > 0:
			g.addAffine(&acc, &fb.table[i*half+int(d)-1], false)
		case d < 0:
			g.addAffine(&acc, &fb.table[i*half-int(d)-1], true)
		}
	}
	return g.fromJac(&acc)
}
