package curve

import (
	"math/big"
	"testing"
)

// FuzzUnmarshalPoint ensures attacker-controlled point encodings never
// panic the decoder, and that anything accepted is genuinely on the curve
// and re-encodes canonically.
func FuzzUnmarshalPoint(f *testing.F) {
	g, err := NewGroup(testP, testQ, testH, &Point{X: testGx, Y: testGy})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(g.MarshalPoint(g.Generator()))
	f.Add(g.MarshalPoint(g.Infinity()))
	f.Add([]byte{})
	f.Add([]byte{0x04})
	f.Fuzz(func(t *testing.T, data []byte) {
		pt, err := g.UnmarshalPoint(data)
		if err != nil {
			return
		}
		if !g.IsOnCurve(pt) {
			t.Fatal("decoder accepted an off-curve point")
		}
		re := g.MarshalPoint(pt)
		pt2, err := g.UnmarshalPoint(re)
		if err != nil {
			t.Fatalf("canonical re-encoding failed to decode: %v", err)
		}
		if !g.Equal(pt, pt2) {
			t.Fatal("re-encoding drifted")
		}
	})
}

// fuzzBases are the points the ladder fuzzers build their operands from, by
// the math/big oracle ladder so the operands do not depend on the code
// under test: the generator (order q), a point with a cofactor component,
// and the rational 2-torsion point, whose doubling is the identity.
func fuzzBases(f *testing.F, g *Group) []*Point {
	return []*Point{g.Generator(), offSubgroupPoint(f, g, 2), {X: big.NewInt(0), Y: big.NewInt(0)}}
}

// fuzzGroups are both parameter sets: 4-limb and 8-limb field kernels.
func fuzzGroups(f *testing.F) ([]*Group, [][]*Point) {
	groups := []*Group{katGroup(f, "test256"), katGroup(f, "ss512")}
	bases := make([][]*Point, len(groups))
	for i, g := range groups {
		bases[i] = fuzzBases(f, g)
	}
	return groups, bases
}

// fuzzScalar reads a signed scalar of up to 66 bytes: wider than p, so
// scalars beyond every modulus are covered.
func fuzzScalar(b []byte, neg bool) *big.Int {
	if len(b) > 66 {
		b = b[:66]
	}
	k := new(big.Int).SetBytes(b)
	if neg {
		k.Neg(k)
	}
	return k
}

// FuzzScalarMult holds the windowed limb ladder to the math/big binary
// ladder, and InSubgroup to a binary ladder by q, on points in and outside
// G1 and scalars of any size and sign.
func FuzzScalarMult(f *testing.F) {
	groups, bases := fuzzGroups(f)
	q := groups[1].Q()
	f.Add(uint8(0), []byte{1}, []byte{0}, false)
	f.Add(uint8(1), []byte{7}, []byte{1}, true)
	f.Add(uint8(2), []byte{1}, []byte{3}, false)
	f.Add(uint8(3), []byte{5}, q.Bytes(), false)
	f.Add(uint8(4), []byte{9, 9}, new(big.Int).Sub(q, big.NewInt(1)).Bytes(), true)
	f.Add(uint8(5), []byte{1}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, false)
	f.Fuzz(func(t *testing.T, sel uint8, kp, kb []byte, neg bool) {
		g := groups[sel&1]
		base := bases[sel&1][int(sel>>1)%3]
		pt := g.scalarMultBinary(base, fuzzScalar(kp, false))
		k := fuzzScalar(kb, neg)
		if got, want := g.ScalarMult(pt, k), g.scalarMultBinary(pt, k); !g.Equal(got, want) {
			t.Fatalf("ScalarMult(%v, %v) disagrees with the binary ladder", pt, k)
		}
		if got, want := g.InSubgroup(pt), g.scalarMultBinary(pt, g.q).Inf; got != want {
			t.Fatalf("InSubgroup(%v) = %v, binary ladder by q says %v", pt, got, want)
		}
	})
}

// FuzzSumScalarMult holds the multi-scalar multiplication to the sum of
// binary-ladder products. data is a sequence of terms: a selector byte
// (parameter set is fixed by the first; base and sign per term), a byte for
// the point's multiple of its base, a length byte and that many scalar
// bytes.
func FuzzSumScalarMult(f *testing.F) {
	groups, bases := fuzzGroups(f)
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 5})
	f.Add([]byte{1, 3, 2, 0xff, 0xff, 0x80, 3, 1, 7, 2, 1, 1, 1})
	f.Add([]byte{0, 4, 1, 9, 0x80, 4, 1, 9})       // k·P + (−k)·P
	f.Add([]byte{0, 0, 1, 9, 2, 1, 0, 4, 2, 1, 3}) // an infinity, a zero scalar
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		set := data[0] & 1
		g := groups[set]
		var pts []*Point
		var ks []*big.Int
		want := g.Infinity()
		for len(data) >= 3 && len(pts) < 40 {
			sel, mult, n := data[0], data[1], int(data[2])
			data = data[3:]
			if n > len(data) {
				n = len(data)
			}
			pt := g.scalarMultBinary(bases[set][int(sel>>1)%3], big.NewInt(int64(mult)))
			k := fuzzScalar(data[:n], sel&0x80 != 0)
			data = data[n:]
			pts, ks = append(pts, pt), append(ks, k)
			want = g.Add(want, g.scalarMultBinary(pt, k))
		}
		got, err := g.SumScalarMult(pts, ks)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Equal(got, want) {
			t.Fatalf("SumScalarMult of %d terms disagrees with the binary ladder", len(pts))
		}
	})
}
