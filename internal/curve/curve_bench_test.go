package curve

import (
	"crypto/rand"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"
)

func benchGroup(b *testing.B) *Group {
	b.Helper()
	g, err := NewGroup(testP, testQ, testH, &Point{X: testGx, Y: testGy})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkScalarMult(b *testing.B) {
	g := benchGroup(b)
	pt, _, err := g.RandPoint(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	k, err := g.Scalars().Rand(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ScalarMult(pt, k)
	}
}

func BenchmarkAddAffine(b *testing.B) {
	g := benchGroup(b)
	p1, _, _ := g.RandPoint(rand.Reader)
	p2, _, _ := g.RandPoint(rand.Reader)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Add(p1, p2)
	}
}

func BenchmarkHashToPoint(b *testing.B) {
	g := benchGroup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HashToPoint("bench", []byte{byte(i), byte(i >> 8), byte(i >> 16)})
	}
}

func BenchmarkInSubgroup(b *testing.B) {
	g := benchGroup(b)
	pt, _, _ := g.RandPoint(rand.Reader)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !g.InSubgroup(pt) {
			b.Fatal("valid point rejected")
		}
	}
}

func BenchmarkMarshalUnmarshal(b *testing.B) {
	g := benchGroup(b)
	pt, _, _ := g.RandPoint(rand.Reader)
	enc := g.MarshalPoint(pt)
	b.Run("marshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.MarshalPoint(pt)
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := g.UnmarshalPoint(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkScalarMultAblation compares the windowed limb multiplier against
// the math/big binary double-and-add ladder that is now its oracle.
func BenchmarkScalarMultAblation(b *testing.B) {
	g := benchGroup(b)
	pt, _, _ := g.RandPoint(rand.Reader)
	k, _ := g.Scalars().Rand(rand.Reader)
	b.Run("windowed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.ScalarMult(pt, k)
		}
	})
	b.Run("binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.scalarMultBinary(pt, k)
		}
	})
}

// BenchmarkMSMShapes times the multi-scalar multiplication at SS512 on the
// shapes its callers produce, reported per term: a single audit's batch
// (33 signatures with 128-bit randomizers plus two 160-bit signer terms),
// the 64-bit membership combination over the same 33 points, a scheduler
// flush at its 48-signature limit, and one full-width multiplication. The
// table beside msmWindow in msm.go is this benchmark at each window width.
func BenchmarkMSMShapes(b *testing.B) {
	g := katGroup(b, "ss512")
	rng := mrand.New(mrand.NewSource(7))
	shapes := []struct {
		name string
		bits []uint // scalar width of each term
	}{
		{"audit-35x128", append(repeat(128, 33), 160, 160)},
		{"membership-33x64", repeat(64, 33)},
		{"flush-50x128", append(repeat(128, 48), 160, 160)},
		{"single-1x160", []uint{160}},
	}
	for _, sh := range shapes {
		pts := make([]*Point, len(sh.bits))
		ks := make([]*big.Int, len(sh.bits))
		for i, w := range sh.bits {
			pts[i] = g.BaseMult(new(big.Int).Rand(rng, g.q))
			ks[i] = new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), w))
			ks[i].SetBit(ks[i], int(w)-1, 1)
		}
		b.Run(fmt.Sprintf("w=%d/%s", msmWindow, sh.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := g.SumScalarMult(pts, ks); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/float64(len(pts)), "µs/term")
		})
	}
}

func repeat(v uint, n int) []uint {
	out := make([]uint, n)
	for i := range out {
		out[i] = v
	}
	return out
}
