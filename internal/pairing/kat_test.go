package pairing

import (
	"encoding/hex"
	"math/big"
	mrand "math/rand"
	"strconv"
	"testing"

	"seccloud/internal/curve"
	"seccloud/internal/kattest"
)

func katParams(tb testing.TB, set string) *Params {
	tb.Helper()
	pp, err := ByName(set)
	if err != nil {
		tb.Fatal(err)
	}
	return pp
}

// offSubgroupPoint returns the on-curve point with the smallest x ≥ 2 that
// q does not kill: a point with a cofactor component.
func offSubgroupPoint(tb testing.TB, g *curve.Group) *curve.Point {
	tb.Helper()
	p := g.P()
	for x := int64(2); x < 1000; x++ {
		xb := big.NewInt(x)
		rhs := new(big.Int).Mul(xb, xb)
		rhs.Mul(rhs, xb).Add(rhs, xb).Mod(rhs, p)
		y, ok := g.FieldCtx().Sqrt(rhs)
		if !ok {
			continue
		}
		if pt := (&curve.Point{X: xb, Y: y}); !g.InSubgroup(pt) {
			return pt
		}
	}
	tb.Fatal("no point outside the subgroup found")
	return nil
}

func mustHexInt(t *testing.T, s string) *big.Int {
	t.Helper()
	v, ok := new(big.Int).SetString(s, 16)
	if !ok {
		t.Fatalf("bad hex %q", s)
	}
	return v
}

func encPoint(g *curve.Group, pt *curve.Point) string { return hex.EncodeToString(g.MarshalPoint(pt)) }

func decPoint(t *testing.T, g *curve.Group, s string) *curve.Point {
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

func encGT(g *GT) string { return hex.EncodeToString(g.Marshal()) }

func decGT(t *testing.T, pp *Params, s string) *GT {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	g, err := pp.UnmarshalGTUnchecked(b)
	if err != nil {
		t.Fatalf("vector GT %s: %v", s, err)
	}
	return g
}

// katEval computes one vector with the package's exported functions.
// Points and GT elements travel as their marshalled bytes.
func katEval(t *testing.T, kc kattest.Case) []string {
	t.Helper()
	pp := katParams(t, kc.Set)
	g := pp.G1()
	switch kc.Op {
	case "pair":
		return []string{encGT(pp.Pair(decPoint(t, g, kc.In[0]), decPoint(t, g, kc.In[1])))}
	case "precomp":
		return []string{encGT(pp.Precompute(decPoint(t, g, kc.In[0])).Pair(decPoint(t, g, kc.In[1])))}
	case "pairprod":
		n := len(kc.In) / 2
		ps := make([]*curve.Point, n)
		qs := make([]*curve.Point, n)
		for i := range ps {
			ps[i] = decPoint(t, g, kc.In[i])
			qs[i] = decPoint(t, g, kc.In[n+i])
		}
		prod, err := pp.PairProd(ps, qs)
		if err != nil {
			t.Fatal(err)
		}
		return []string{encGT(prod)}
	case "gtexp":
		return []string{encGT(decGT(t, pp, kc.In[0]).Exp(mustHexInt(t, kc.In[1])))}
	case "gtmultiexp":
		n := len(kc.In) / 2
		gs := make([]*GT, n)
		ks := make([]*big.Int, n)
		for i := range gs {
			gs[i] = decGT(t, pp, kc.In[i])
			ks[i] = mustHexInt(t, kc.In[n+i])
		}
		prod, err := pp.MultiExp(gs, ks)
		if err != nil {
			t.Fatal(err)
		}
		return []string{encGT(prod)}
	case "gtinsubgroup":
		return []string{strconv.FormatBool(decGT(t, pp, kc.In[0]).InSubgroup())}
	}
	t.Fatalf("unknown op %q", kc.Op)
	return nil
}

func katInputs(t *testing.T) []kattest.Case {
	var out []kattest.Case
	for _, set := range []string{"test256", "ss512"} {
		pp := katParams(t, set)
		g := pp.G1()
		q := g.Q()
		rng := mrand.New(mrand.NewSource(int64(len(set))))
		rk := func() *big.Int { return new(big.Int).Rand(rng, q) }
		rp := func() *curve.Point { return g.BaseMult(rk()) }
		add := func(op string, in ...string) {
			out = append(out, kattest.Case{Op: op, Set: set, In: in})
		}
		a, b := rp(), rp()
		off := offSubgroupPoint(t, g)
		// h·off lies in G1 but 2·off and off itself do not; (0, 0) is the
		// rational 2-torsion point, whose tangent is vertical.
		twoTorsion := &curve.Point{X: big.NewInt(0), Y: big.NewInt(0)}
		pairs := [][2]*curve.Point{
			{g.Generator(), g.Generator()}, {a, b}, {b, a}, {a, a}, {a, g.Neg(a)},
			{g.Generator(), a}, {a, g.Infinity()}, {g.Infinity(), b}, {g.Infinity(), g.Infinity()},
			{off, a}, {a, off}, {off, off}, {g.Double(off), g.Neg(off)},
			{twoTorsion, a}, {a, twoTorsion}, {twoTorsion, twoTorsion}, {twoTorsion, off},
			{rp(), rp()}, {rp(), rp()},
		}
		for _, pq := range pairs {
			add("pair", encPoint(g, pq[0]), encPoint(g, pq[1]))
			add("precomp", encPoint(g, pq[0]), encPoint(g, pq[1]))
		}
		for _, n := range []int{0, 1, 2, 8} {
			var ps, qs []string
			for i := 0; i < n; i++ {
				ps = append(ps, encPoint(g, rp()))
				qs = append(qs, encPoint(g, rp()))
			}
			add("pairprod", append(ps, qs...)...)
			if n >= 2 {
				// The same product with an infinity on each side and a
				// pair that cancels another: ê(P, Q)·ê(−P, Q) = 1.
				ps[0] = encPoint(g, g.Infinity())
				qs[1] = encPoint(g, g.Infinity())
				if n > 3 {
					ps[3] = encPoint(g, g.Neg(decPoint(t, g, ps[2])))
					qs[3] = qs[2]
				}
				add("pairprod", append(ps, qs...)...)
			}
		}
		add("pairprod", encPoint(g, off), encPoint(g, twoTorsion), encPoint(g, a), encPoint(g, b))

		e := pp.Pair(a, b)
		// A nonzero Fp2 element outside GT, as UnmarshalGTUnchecked admits.
		outside := &GT{pp: pp, v: g.FieldCtx().NewFp2(big.NewInt(3), big.NewInt(5))}
		qm1 := new(big.Int).Sub(q, big.NewInt(1))
		for _, x := range []*GT{e, pp.One(), outside} {
			add("gtinsubgroup", encGT(x))
			for _, k := range []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(-1), qm1, q, new(big.Int).Lsh(q, 3), rk(), new(big.Int).Neg(rk()), new(big.Int).Rsh(rk(), 40)} {
				add("gtexp", encGT(x), k.Text(16))
			}
		}
		for _, n := range []int{0, 1, 2, 33} {
			var gs, ks []string
			for i := 0; i < n; i++ {
				k := rk()
				if i%2 == 1 {
					k.Rsh(k, 32)
				}
				if i == 5 {
					k.Neg(k)
				}
				x := e.Exp(rk())
				if i == 7 {
					x = outside
				}
				gs = append(gs, encGT(x))
				ks = append(ks, k.Text(16))
			}
			add("gtmultiexp", append(gs, ks...)...)
		}
	}
	return out
}

// TestKnownAnswers holds Pair, Precomp.Pair, PairProd and the GT
// exponentiations, with their marshalled bytes, to the values the affine
// math/big Miller loop and ladders gave at SS512 and test256 — degenerate
// arguments (P = ±Q, 2-torsion, points off the subgroup, infinities)
// included, since a verifier may meet them before its membership check.
func TestKnownAnswers(t *testing.T) {
	kattest.Check(t, "testdata/kat.json", func() []kattest.Case { return katInputs(t) },
		func(kc kattest.Case) []string { return katEval(t, kc) })
}
