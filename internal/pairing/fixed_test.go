package pairing

import (
	"math/big"
	mrand "math/rand"
	"testing"
)

func TestFixedGTMatchesExp(t *testing.T) {
	for _, pp := range []*Params{InsecureTest256(), SS512()} {
		t.Run(pp.Name(), func(t *testing.T) {
			g := pp.G1()
			rng := mrand.New(mrand.NewSource(20))
			q, one := g.Q(), big.NewInt(1)
			ks := []*big.Int{
				new(big.Int), one, big.NewInt(2), big.NewInt(-5),
				new(big.Int).Sub(q, one), q, new(big.Int).Add(q, one), new(big.Int).Lsh(q, 64),
				new(big.Int).Sub(new(big.Int).Lsh(one, uint(q.BitLen()-1)), one),
			}
			for i := 0; i < 40; i++ {
				ks = append(ks, new(big.Int).Rand(rng, q))
			}
			p1, _, _ := g.RandPoint(rng)
			p2, _, _ := g.RandPoint(rng)
			for _, base := range []*GT{pp.Pair(p1, p2), pp.Pair(g.Generator(), g.Generator()), pp.One()} {
				table := pp.NewFixedGT(base)
				for _, k := range ks {
					if got, want := table.Exp(k), base.Exp(k); !got.Equal(want) {
						t.Fatalf("FixedGT.Exp(%v) = %v, GT.Exp gives %v", k, got, want)
					}
				}
			}
		})
	}
}

// BenchmarkFixedGT: one exponentiation from the table and building the
// table, with GT.Exp on the same element and exponent beside them.
func BenchmarkFixedGT(b *testing.B) {
	for _, pp := range []*Params{InsecureTest256(), SS512()} {
		g := pp.G1()
		rng := mrand.New(mrand.NewSource(7))
		p1, _, _ := g.RandPoint(rng)
		p2, _, _ := g.RandPoint(rng)
		base := pp.Pair(p1, p2)
		k := new(big.Int).Rand(rng, g.Q())
		table := pp.NewFixedGT(base)
		b.Run(pp.Name()+"/exp", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				table.Exp(k)
			}
		})
		b.Run(pp.Name()+"/build", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pp.NewFixedGT(base)
			}
		})
		b.Run(pp.Name()+"/gt-exp", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				base.Exp(k)
			}
		})
	}
}
