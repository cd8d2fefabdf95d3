package curve

import (
	"encoding/hex"
	"math/big"
	mrand "math/rand"
	"strconv"
	"testing"

	"seccloud/internal/kattest"
)

// The SS512 parameter set, duplicated from package pairing like the
// test256 constants in curve_test.go (importing it would be a cycle).
var (
	ss512P  = mustBig("9dcd7ce9b75c56827987d2cd06c038fce654b15f3d3ab47af8acbcba1119dd614d69b053f14b7b84c1d376f134ab238261cc3c778fa3b94775baff1606d19093")
	ss512Q  = mustBig("d1694ad4e9ac2e91c6f6da19ab35094f14637ae3")
	ss512H  = mustBig("c0e8e77f6380f0311f53e544029d412ceb832d938d90e0a499d2232533a1db5cd6fa04cb987f945093c2ad5c")
	ss512Gx = mustBig("639a29b7c3259352fcfa1120cd5eac0687893b2e565db30bc89018e1f4563a0d677b00ee28a50830e8504b86bfb1b5aa2d4d7c16983ca42a875e3c0d6f36e48b")
	ss512Gy = mustBig("7f418294bc4e549b761d44a8528fd30f9cc656c15168e4f023b9a09ee3081fa60f9318f2ec50bd5e4604c45c23b171ffe018dc726322a57963d96c03ea24dd28")
)

// katGroups builds both parameter sets once per test binary.
var katGroups = map[string]*Group{}

func katGroup(tb testing.TB, set string) *Group {
	tb.Helper()
	if g, ok := katGroups[set]; ok {
		return g
	}
	var g *Group
	var err error
	switch set {
	case "ss512":
		g, err = NewGroup(ss512P, ss512Q, ss512H, &Point{X: ss512Gx, Y: ss512Gy})
	case "test256":
		g, err = NewGroup(testP, testQ, testH, &Point{X: testGx, Y: testGy})
	default:
		tb.Fatalf("unknown parameter set %q", set)
	}
	if err != nil {
		tb.Fatal(err)
	}
	katGroups[set] = g
	return g
}

// offSubgroupPoint returns the on-curve point with the smallest x ≥ from
// that q does not kill: a point with a cofactor component.
func offSubgroupPoint(tb testing.TB, g *Group, from int64) *Point {
	tb.Helper()
	for x := from; x < from+1000; x++ {
		xb := big.NewInt(x)
		rhs := new(big.Int).Mul(xb, xb)
		rhs.Mul(rhs, xb).Add(rhs, xb).Mod(rhs, g.p)
		y, ok := g.fp.Sqrt(rhs)
		if !ok {
			continue
		}
		if pt := (&Point{X: xb, Y: y}); !g.InSubgroup(pt) {
			return pt
		}
	}
	tb.Fatal("no point outside the subgroup found")
	return nil
}

func encPoint(g *Group, pt *Point) string { return hex.EncodeToString(g.MarshalPoint(pt)) }

func decPoint(t *testing.T, g *Group, s string) *Point {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := g.UnmarshalPoint(b)
	if err != nil {
		t.Fatalf("vector point %s: %v", s, err)
	}
	return pt
}

// katEval computes one vector with the package's exported functions.
// Points travel as their MarshalPoint encoding, scalars as signed hex.
func katEval(t *testing.T, kc kattest.Case) []string {
	t.Helper()
	g := katGroup(t, kc.Set)
	switch kc.Op {
	case "scalarmult":
		return []string{encPoint(g, g.ScalarMult(decPoint(t, g, kc.In[0]), mustBig(kc.In[1])))}
	case "sumscalarmult":
		n := len(kc.In) / 2
		pts := make([]*Point, n)
		ks := make([]*big.Int, n)
		for i := range pts {
			pts[i] = decPoint(t, g, kc.In[i])
			ks[i] = mustBig(kc.In[n+i])
		}
		sum, err := g.SumScalarMult(pts, ks)
		if err != nil {
			t.Fatal(err)
		}
		return []string{encPoint(g, sum)}
	case "insubgroup":
		return []string{strconv.FormatBool(g.InSubgroup(decPoint(t, g, kc.In[0])))}
	case "hashtopoint":
		return []string{encPoint(g, g.HashToPoint(kc.In[0], []byte(kc.In[1])))}
	}
	t.Fatalf("unknown op %q", kc.Op)
	return nil
}

func katInputs(t *testing.T) []kattest.Case {
	var out []kattest.Case
	for _, set := range []string{"test256", "ss512"} {
		g := katGroup(t, set)
		rng := mrand.New(mrand.NewSource(int64(len(set))))
		rk := func() *big.Int { return new(big.Int).Rand(rng, g.q) }
		rp := func() *Point { return g.BaseMult(rk()) }
		add := func(op string, in ...string) {
			out = append(out, kattest.Case{Op: op, Set: set, In: in})
		}
		qm1 := new(big.Int).Sub(g.q, big.NewInt(1))
		off := offSubgroupPoint(t, g, 2)
		twoTorsion := &Point{X: big.NewInt(0), Y: big.NewInt(0)}
		points := []*Point{g.Generator(), rp(), rp(), off, twoTorsion, g.Infinity()}
		scalars := []*big.Int{
			big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(-1), big.NewInt(15), big.NewInt(16),
			big.NewInt(17), qm1, g.Q(), new(big.Int).Add(g.q, big.NewInt(1)), new(big.Int).Neg(qm1),
			g.Cofactor(), new(big.Int).Mul(g.q, g.h), rk(), new(big.Int).Neg(rk()),
			new(big.Int).Rsh(rk(), 32), new(big.Int).Lsh(rk(), 70),
		}
		for _, pt := range points {
			add("insubgroup", encPoint(g, pt))
			for _, k := range scalars {
				add("scalarmult", encPoint(g, pt), k.Text(16))
			}
		}
		// Multi-scalar shapes: empty, single, the 33–37-term audit batch
		// with its 64- and 128-bit scalars, repeated and opposite points,
		// zero and negative scalars, infinities, a point off the subgroup.
		for _, n := range []int{0, 1, 2, 8, 35, 48} {
			for _, bits := range []uint{64, 128, 0} {
				var in, ks []string
				for i := 0; i < n; i++ {
					pt, k := rp(), rk()
					if bits != 0 {
						k.Rsh(k, uint(g.q.BitLen())-bits%uint(g.q.BitLen()))
					}
					switch {
					case bits == 0 && i%8 == 3:
						k.Neg(k)
					case bits == 0 && i%8 == 4:
						k.SetInt64(0)
					case bits == 0 && i%8 == 5:
						pt = g.Infinity()
					case bits == 0 && i%8 == 6 && i > 0:
						pt = g.Neg(decPoint(t, g, in[i-1]))
						k = mustBig(ks[i-1])
					case bits == 0 && i == 7:
						pt = off
					}
					in = append(in, encPoint(g, pt))
					ks = append(ks, k.Text(16))
				}
				add("sumscalarmult", append(in, ks...)...)
			}
		}
		for _, msg := range []string{"", "alice", "user:0001", "designated-agency", "cloud-server-1"} {
			add("hashtopoint", "seccloud/H1", msg)
			add("hashtopoint", "", msg)
		}
	}
	return out
}

// TestKnownAnswers holds ScalarMult, SumScalarMult, InSubgroup and
// HashToPoint, with their marshalled bytes, to the values the math/big
// ladders gave at SS512 and test256.
func TestKnownAnswers(t *testing.T) {
	kattest.Check(t, "testdata/kat.json", func() []kattest.Case { return katInputs(t) },
		func(kc kattest.Case) []string { return katEval(t, kc) })
}
