package pairing

import (
	"math/big"
	"testing"

	"seccloud/internal/curve"
)

// fuzzPoint builds a pairing operand from a selector and a small multiple:
// multiples of the generator (G1), of a point with a cofactor component, of
// the rational 2-torsion point (0, 0), or the point at infinity. Point
// arithmetic here is affine math/big (Group.Add), not the limb ladder.
func fuzzPoint(g *curve.Group, bases []*curve.Point, sel, mult uint8) *curve.Point {
	if sel%4 == 3 {
		return g.Infinity()
	}
	pt := g.Infinity()
	for i := 0; i < int(mult%16)+1; i++ {
		pt = g.Add(pt, bases[sel%4])
	}
	return pt
}

// FuzzPair holds the projective limb Miller loop, its precomputed replay
// and the interleaved product to the affine math/big Miller loop, on
// operands in and outside G1: P = Q, P = −Q, 2-torsion, infinity, points
// with a cofactor component. Outputs must agree bit for bit after the
// final exponentiation.
func FuzzPair(f *testing.F) {
	sets := []*Params{katParams(f, "test256"), katParams(f, "ss512")}
	bases := make([][]*curve.Point, len(sets))
	for i, pp := range sets {
		bases[i] = []*curve.Point{pp.G1().Generator(), offSubgroupPoint(f, pp.G1()), {X: big.NewInt(0), Y: big.NewInt(0)}}
	}
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(4), false) // P = Q
	f.Add(uint8(0), uint8(0), uint8(2), uint8(0), uint8(2), true)  // P = −Q
	f.Add(uint8(1), uint8(2), uint8(0), uint8(0), uint8(1), false) // 2-torsion P, at SS512
	f.Add(uint8(0), uint8(0), uint8(0), uint8(2), uint8(1), false) // 2-torsion Q
	f.Add(uint8(0), uint8(1), uint8(6), uint8(1), uint8(3), false) // both off the subgroup
	f.Add(uint8(1), uint8(3), uint8(0), uint8(0), uint8(1), false) // infinity
	f.Fuzz(func(t *testing.T, set, selP, multP, selQ, multQ uint8, negQ bool) {
		pp := sets[set&1]
		g := pp.G1()
		p := fuzzPoint(g, bases[set&1], selP, multP)
		q := fuzzPoint(g, bases[set&1], selQ, multQ)
		if negQ {
			q = g.Neg(q)
		}
		want := pp.oraclePair(p, q)
		if got := pp.Pair(p, q); !got.Equal(want) {
			t.Fatalf("Pair(%v, %v) = %v, affine oracle gives %v", p, q, got, want)
		}
		if got := pp.Precompute(p).Pair(q); !got.Equal(want) {
			t.Fatalf("Precompute(%v).Pair(%v) = %v, affine oracle gives %v", p, q, got, want)
		}
		// The product with a second, fixed pair interleaves two loops whose
		// accumulators finish at different iterations.
		ps, qs := []*curve.Point{p, bases[set&1][0], q}, []*curve.Point{q, bases[set&1][1], p}
		got, err := pp.PairProd(ps, qs)
		if err != nil {
			t.Fatal(err)
		}
		if want := pp.oraclePairProd(ps, qs); !got.Equal(want) {
			t.Fatalf("PairProd over (%v, %v) = %v, affine oracle gives %v", p, q, got, want)
		}
	})
}
