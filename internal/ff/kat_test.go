package ff

import (
	"math/big"
	mrand "math/rand"
	"testing"

	"seccloud/internal/kattest"
)

var test256P = mustBig("9aa44f7a571142bc66a2eb864139537066b0f3231e6ed327f943df11c8a4cd9f")

// toyP2 is a second toy prime, two limbs wide, so that the limb loops run
// at a width between the one-limb toy and the four-limb test prime.
var toyP2 = mustBig("1000000000000000000000014b") // 2^100 + 331, prime, ≡ 3 (mod 4)

func hexes(vs ...*big.Int) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Text(16)
	}
	return out
}

func unhex(t *testing.T, ss []string) []*big.Int {
	t.Helper()
	out := make([]*big.Int, len(ss))
	for i, s := range ss {
		out[i] = mustBig(s)
	}
	return out
}

// katEval computes one vector with the package's exported functions. Fp2
// operands are consecutive (real, imaginary) pairs; Set is the modulus.
func katEval(t *testing.T, kc kattest.Case) []string {
	t.Helper()
	c := mustCtx(t, mustBig(kc.Set))
	in := unhex(t, kc.In)
	fp2 := func(i int) *Fp2 { return &Fp2{A: in[2*i], B: in[2*i+1]} }
	switch kc.Op {
	case "fp2mul":
		r := c.Fp2Mul(fp2(0), fp2(1))
		return hexes(r.A, r.B)
	case "fp2square":
		r := c.Fp2Square(fp2(0))
		return hexes(r.A, r.B)
	case "fp2inv":
		r, err := c.Fp2Inv(fp2(0))
		if err != nil {
			return []string{"error"}
		}
		return hexes(r.A, r.B)
	case "fp2exp":
		r := c.Fp2Exp(fp2(0), in[2])
		return hexes(r.A, r.B)
	case "fp2multiexp":
		n := len(in) / 3
		xs := make([]*Fp2, n)
		for i := range xs {
			xs[i] = fp2(i)
		}
		r, err := c.Fp2MultiExp(xs, in[2*n:])
		if err != nil {
			return []string{"error"}
		}
		return hexes(r.A, r.B)
	case "sqrt":
		y, ok := c.Sqrt(in[0])
		if !ok {
			return []string{"none"}
		}
		return hexes(y)
	}
	t.Fatalf("unknown op %q", kc.Op)
	return nil
}

// katInputs draws the vectors' operands: fixed edge values first, seeded
// random ones after.
func katInputs() []kattest.Case {
	var out []kattest.Case
	for _, p := range []*big.Int{toyP, toyP2, test256P, bigP} {
		rng := mrand.New(mrand.NewSource(int64(p.BitLen())))
		pm1 := new(big.Int).Sub(p, big.NewInt(1))
		r := func() *big.Int { return new(big.Int).Rand(rng, p) }
		zero, one := big.NewInt(0), big.NewInt(1)
		add := func(op string, in ...*big.Int) {
			out = append(out, kattest.Case{Op: op, Set: p.Text(16), In: hexes(in...)})
		}
		edges := [][2]*big.Int{{zero, zero}, {one, zero}, {zero, one}, {pm1, pm1}, {pm1, zero}, {r(), r()}, {r(), r()}}
		for _, x := range edges {
			add("fp2square", x[0], x[1])
			add("fp2inv", x[0], x[1])
			for _, y := range edges[2:] {
				add("fp2mul", x[0], x[1], y[0], y[1])
			}
			for _, k := range []*big.Int{zero, one, big.NewInt(2), big.NewInt(-3), pm1, p, new(big.Int).Neg(pm1), r(), new(big.Int).Rsh(r(), uint(p.BitLen()/2))} {
				add("fp2exp", x[0], x[1], k)
			}
		}
		for _, n := range []int{0, 1, 2, 5, 33} {
			in := make([]*big.Int, 0, 3*n)
			for i := 0; i < n; i++ {
				in = append(in, r(), r())
			}
			for i := 0; i < n; i++ {
				k := r()
				switch i % 4 {
				case 1:
					k.Rsh(k, uint(p.BitLen()/2))
				case 2:
					k.SetInt64(int64(i) - 2)
				}
				in = append(in, k)
			}
			add("fp2multiexp", in...)
		}
		add("fp2multiexp", r(), r(), big.NewInt(-1))
		for _, a := range []*big.Int{zero, one, pm1, big.NewInt(2), big.NewInt(4), r(), r(), r(), r(), new(big.Int).Add(p, big.NewInt(4))} {
			add("sqrt", a)
		}
	}
	return out
}

// TestKnownAnswers holds every looping field operation to the values the
// math/big implementation gave at SS512, test256 and two toy primes.
func TestKnownAnswers(t *testing.T) {
	kattest.Check(t, "testdata/kat.json", katInputs, func(kc kattest.Case) []string { return katEval(t, kc) })
}
