package curve

import (
	"math/big"
	mrand "math/rand"
	"testing"
)

// fixedScalars are the edge scalars every fixed-base table is held to
// ScalarMult on: the identity cases, both sides of the group order, a
// negative scalar, one above q by a word, and random ones below q.
func fixedScalars(q *big.Int, rng *mrand.Rand) []*big.Int {
	one := big.NewInt(1)
	ks := []*big.Int{
		new(big.Int), one, big.NewInt(2), big.NewInt(-5),
		new(big.Int).Sub(q, one), new(big.Int).Set(q), new(big.Int).Add(q, one),
		new(big.Int).Lsh(q, 64),
	}
	for i := 0; i < 40; i++ {
		ks = append(ks, new(big.Int).Rand(rng, q))
	}
	// Every digit at its extremes: windows of all ones and of 1000….
	ks = append(ks, new(big.Int).Sub(new(big.Int).Lsh(one, uint(q.BitLen()-1)), one))
	ks = append(ks, new(big.Int).Div(new(big.Int).Lsh(one, uint(q.BitLen()-1)), big.NewInt(15)))
	return ks
}

func TestFixedBaseMatchesScalarMult(t *testing.T) {
	for _, set := range []string{"test256", "ss512"} {
		t.Run(set, func(t *testing.T) {
			g := katGroup(t, set)
			rng := mrand.New(mrand.NewSource(20))
			for _, pt := range []*Point{g.Generator(), g.BaseMult(new(big.Int).Rand(rng, g.q))} {
				fb := g.NewFixedBase(pt)
				for _, k := range fixedScalars(g.q, rng) {
					before := g.Counters().Snapshot()
					got := fb.Mult(k)
					muls := g.Counters().Snapshot().Sub(before).PointMuls
					want := g.ScalarMult(pt, k)
					if !g.Equal(got, want) {
						t.Fatalf("FixedBase.Mult(%v) = %v, ScalarMult gives %v", k, got, want)
					}
					wantMuls := int64(1) // like ScalarMult: none for a zero scalar
					if want.Inf {
						wantMuls = 0
					}
					if muls != wantMuls {
						t.Fatalf("FixedBase.Mult(%v) counted %d point multiplications, want %d", k, muls, wantMuls)
					}
				}
			}
			if !g.NewFixedBase(g.Infinity()).Mult(big.NewInt(3)).Inf {
				t.Fatal("a table of the point at infinity multiplied to a finite point")
			}
		})
	}
}

// BenchmarkFixedBase is the table beside fixedWindow in fixed.go: one
// multiplication from the table and building the table, with ScalarMult on
// the same point and scalar beside them.
func BenchmarkFixedBase(b *testing.B) {
	for _, set := range []string{"test256", "ss512"} {
		g := katGroup(b, set)
		rng := mrand.New(mrand.NewSource(7))
		pt := g.BaseMult(new(big.Int).Rand(rng, g.q))
		k := new(big.Int).Rand(rng, g.q)
		fb := g.NewFixedBase(pt)
		b.Run(set+"/mult", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fb.Mult(k)
			}
		})
		b.Run(set+"/build", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.NewFixedBase(pt)
			}
		})
		b.Run(set+"/scalar-mult", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.ScalarMult(pt, k)
			}
		})
	}
}
