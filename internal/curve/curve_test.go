package curve

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"testing"
)

// Test fixture: the InsecureTest256 parameter set (duplicated here as raw
// constants to avoid an import cycle with the pairing package).
var (
	testP  = mustBig("9aa44f7a571142bc66a2eb864139537066b0f3231e6ed327f943df11c8a4cd9f")
	testQ  = mustBig("cc931f6561341ef365b1adfb")
	testH  = mustBig("c183e32746e5667de807abed1a641989105b16e0")
	testGx = mustBig("69bf6f33d3fdbb2353e673b29c1e0dd95d4a7bfcd92c3f2214db6804737ec073")
	testGy = mustBig("4375a938104e2968b4eac8ca3320da6d73c3859fcf257db21957117ad3e5cc10")
)

func mustBig(hex string) *big.Int {
	v, ok := new(big.Int).SetString(hex, 16)
	if !ok {
		panic("bad hex in test fixture")
	}
	return v
}

func testGroup(t *testing.T) *Group {
	t.Helper()
	g, err := NewGroup(testP, testQ, testH, &Point{X: testGx, Y: testGy})
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	return g
}

func TestNewGroupRejectsBadParams(t *testing.T) {
	gen := &Point{X: testGx, Y: testGy}
	cases := []struct {
		name    string
		p, q, h *big.Int
		gen     *Point
	}{
		{"wrong order product", testP, testQ, big.NewInt(4), gen},
		{"generator off curve", testP, testQ, testH, &Point{X: big.NewInt(1), Y: big.NewInt(1)}},
		{"generator at infinity", testP, testQ, testH, &Point{Inf: true}},
		{"nil generator", testP, testQ, testH, nil},
		{"generator wrong order", testP, testQ, testH, &Point{X: big.NewInt(0), Y: big.NewInt(0)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewGroup(tc.p, tc.q, tc.h, tc.gen); err == nil {
				t.Fatal("NewGroup succeeded, want error")
			}
		})
	}
}

func randScalar(rng *mrand.Rand) *big.Int {
	return new(big.Int).Rand(rng, testQ)
}

func TestGroupLaws(t *testing.T) {
	g := testGroup(t)
	rng := mrand.New(mrand.NewSource(42))
	gen := g.Generator()
	for i := 0; i < 30; i++ {
		a := g.ScalarMult(gen, randScalar(rng))
		b := g.ScalarMult(gen, randScalar(rng))
		c := g.ScalarMult(gen, randScalar(rng))

		if !g.IsOnCurve(a) || !g.InSubgroup(a) {
			t.Fatal("random multiple not in subgroup")
		}
		// Commutativity and associativity.
		if !g.Equal(g.Add(a, b), g.Add(b, a)) {
			t.Fatal("addition not commutative")
		}
		if !g.Equal(g.Add(g.Add(a, b), c), g.Add(a, g.Add(b, c))) {
			t.Fatal("addition not associative")
		}
		// Identity and inverse.
		if !g.Equal(g.Add(a, g.Infinity()), a) {
			t.Fatal("identity fails")
		}
		if !g.Add(a, g.Neg(a)).Inf {
			t.Fatal("inverse fails")
		}
		// Sub is Add(Neg).
		if !g.Equal(g.Sub(a, b), g.Add(a, g.Neg(b))) {
			t.Fatal("Sub inconsistent")
		}
		// Double agrees with Add(self).
		if !g.Equal(g.Double(a), g.Add(a, a)) {
			t.Fatal("Double inconsistent with Add")
		}
	}
}

func TestScalarMultLaws(t *testing.T) {
	g := testGroup(t)
	rng := mrand.New(mrand.NewSource(43))
	gen := g.Generator()
	for i := 0; i < 20; i++ {
		k1 := randScalar(rng)
		k2 := randScalar(rng)
		// (k1+k2)·G == k1·G + k2·G
		lhs := g.BaseMult(new(big.Int).Add(k1, k2))
		rhs := g.Add(g.BaseMult(k1), g.BaseMult(k2))
		if !g.Equal(lhs, rhs) {
			t.Fatal("scalar distributivity fails")
		}
		// k1·(k2·G) == (k1·k2)·G
		lhs = g.ScalarMult(g.BaseMult(k2), k1)
		rhs = g.BaseMult(new(big.Int).Mul(k1, k2))
		if !g.Equal(lhs, rhs) {
			t.Fatal("scalar associativity fails")
		}
		// Negative scalar: (−k)·G == −(k·G)
		if !g.Equal(g.ScalarMult(gen, new(big.Int).Neg(k1)), g.Neg(g.BaseMult(k1))) {
			t.Fatal("negative scalar fails")
		}
	}
	// Edge scalars.
	if !g.BaseMult(big.NewInt(0)).Inf {
		t.Fatal("0·G should be infinity")
	}
	if !g.Equal(g.BaseMult(big.NewInt(1)), gen) {
		t.Fatal("1·G should be G")
	}
	if !g.ScalarMult(gen, g.Q()).Inf {
		t.Fatal("q·G should be infinity")
	}
	if !g.ScalarMult(g.Infinity(), big.NewInt(5)).Inf {
		t.Fatal("k·O should be infinity")
	}
	// Scalars reduce mod q: (q+1)·G == G.
	qp1 := new(big.Int).Add(g.Q(), big.NewInt(1))
	if !g.Equal(g.ScalarMult(gen, qp1), gen) {
		t.Fatal("(q+1)·G should equal G")
	}
}

func TestSumScalarMult(t *testing.T) {
	g := testGroup(t)
	rng := mrand.New(mrand.NewSource(44))
	pts := make([]*Point, 5)
	ks := make([]*big.Int, 5)
	want := g.Infinity()
	for i := range pts {
		pts[i] = g.BaseMult(randScalar(rng))
		ks[i] = randScalar(rng)
		want = g.Add(want, g.ScalarMult(pts[i], ks[i]))
	}
	got, err := g.SumScalarMult(pts, ks)
	if err != nil {
		t.Fatalf("SumScalarMult: %v", err)
	}
	if !g.Equal(got, want) {
		t.Fatal("SumScalarMult mismatch")
	}
	if _, err := g.SumScalarMult(pts, ks[:3]); err == nil {
		t.Fatal("mismatched lengths should error")
	}
}

func TestHashToPoint(t *testing.T) {
	g := testGroup(t)
	seen := make(map[string]bool)
	for _, id := range []string{"alice", "bob", "cloud-server-1", "", "designated-agency"} {
		pt := g.HashToPoint("test", []byte(id))
		if pt.Inf {
			t.Fatalf("HashToPoint(%q) returned infinity", id)
		}
		if !g.InSubgroup(pt) {
			t.Fatalf("HashToPoint(%q) not in subgroup", id)
		}
		// Deterministic.
		pt2 := g.HashToPoint("test", []byte(id))
		if !g.Equal(pt, pt2) {
			t.Fatalf("HashToPoint(%q) not deterministic", id)
		}
		key := string(g.MarshalPoint(pt))
		if seen[key] {
			t.Fatalf("HashToPoint collision on %q", id)
		}
		seen[key] = true
	}
	// Domain separation.
	a := g.HashToPoint("d1", []byte("x"))
	b := g.HashToPoint("d2", []byte("x"))
	if g.Equal(a, b) {
		t.Fatal("domain separation ineffective")
	}
}

func TestMarshalRoundtrip(t *testing.T) {
	g := testGroup(t)
	rng := mrand.New(mrand.NewSource(45))
	for i := 0; i < 20; i++ {
		pt := g.BaseMult(randScalar(rng))
		enc := g.MarshalPoint(pt)
		if len(enc) != g.PointLen() {
			t.Fatalf("encoding length %d, want %d", len(enc), g.PointLen())
		}
		dec, err := g.UnmarshalPoint(enc)
		if err != nil {
			t.Fatalf("UnmarshalPoint: %v", err)
		}
		if !g.Equal(pt, dec) {
			t.Fatal("roundtrip mismatch")
		}
	}
	// Infinity roundtrip.
	enc := g.MarshalPoint(g.Infinity())
	dec, err := g.UnmarshalPoint(enc)
	if err != nil || !dec.Inf {
		t.Fatalf("infinity roundtrip failed: %v", err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	g := testGroup(t)
	valid := g.MarshalPoint(g.Generator())

	short := valid[:len(valid)-1]
	if _, err := g.UnmarshalPoint(short); err == nil {
		t.Fatal("short encoding accepted")
	}

	offCurve := append([]byte(nil), valid...)
	offCurve[10] ^= 0xff
	if _, err := g.UnmarshalPoint(offCurve); err == nil {
		t.Fatal("off-curve point accepted")
	}

	badPrefix := append([]byte(nil), valid...)
	badPrefix[0] = 0x99
	if _, err := g.UnmarshalPoint(badPrefix); err == nil {
		t.Fatal("unknown prefix accepted")
	}

	dirtyInf := g.MarshalPoint(g.Infinity())
	dirtyInf[5] = 1
	if _, err := g.UnmarshalPoint(dirtyInf); err == nil {
		t.Fatal("non-canonical infinity accepted")
	}
}

func TestRandPoint(t *testing.T) {
	g := testGroup(t)
	pt, k, err := g.RandPoint(rand.Reader)
	if err != nil {
		t.Fatalf("RandPoint: %v", err)
	}
	if !g.Equal(pt, g.BaseMult(k)) {
		t.Fatal("returned discrete log does not match point")
	}
	if !g.InSubgroup(pt) {
		t.Fatal("random point outside subgroup")
	}
}

func TestCopyIsDeep(t *testing.T) {
	g := testGroup(t)
	orig := g.Generator()
	cp := g.Copy(orig)
	cp.X.Add(cp.X, big.NewInt(1))
	if orig.X.Cmp(g.Generator().X) != 0 {
		t.Fatal("Copy aliased coordinates")
	}
}

func TestInSubgroupRejectsCofactorPoints(t *testing.T) {
	g := testGroup(t)
	// Find a point of full order p+1 (or at least not killed by q): take a
	// curve point before cofactor clearing. Construct by hashing then
	// checking; HashToPoint clears the cofactor so build one manually.
	fp := g.FieldCtx()
	for x := int64(2); x < 200; x++ {
		xb := big.NewInt(x)
		rhs := new(big.Int).Mul(xb, xb)
		rhs.Mul(rhs, xb)
		rhs.Add(rhs, xb)
		rhs.Mod(rhs, g.P())
		y, ok := fp.Sqrt(rhs)
		if !ok {
			continue
		}
		pt := &Point{X: xb, Y: y}
		if !g.IsOnCurve(pt) {
			t.Fatal("constructed point off curve")
		}
		if !g.InSubgroup(pt) {
			return // found a curve point outside G1, as expected
		}
	}
	t.Skip("no small-x point outside the subgroup found (improbable)")
}

func TestScalarMultMatchesBinaryLadder(t *testing.T) {
	// The windowed multiplier must agree with the classic double-and-add
	// oracle on random scalars and edge cases.
	g := testGroup(t)
	rng := mrand.New(mrand.NewSource(77))
	pt, _, err := g.RandPoint(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	edge := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(15), big.NewInt(16),
		big.NewInt(17), big.NewInt(-5), g.Q(), new(big.Int).Sub(g.Q(), big.NewInt(1)),
	}
	for _, k := range edge {
		if !g.Equal(g.ScalarMult(pt, k), g.scalarMultBinary(pt, k)) {
			t.Fatalf("windowed and binary disagree at k=%v", k)
		}
	}
	for i := 0; i < 30; i++ {
		k := randScalar(rng)
		if !g.Equal(g.ScalarMult(pt, k), g.scalarMultBinary(pt, k)) {
			t.Fatalf("windowed and binary disagree at random k=%v", k)
		}
	}
}

// TestScalarMultAllocs is the exact-count guard on the limb ladder at
// SS512: the math/big ladder allocated 5.9 k times a multiplication, this
// one only for its tables, its digits, one inversion and the result.
func TestScalarMultAllocs(t *testing.T) {
	g := katGroup(t, "ss512")
	rng := mrand.New(mrand.NewSource(78))
	pt := g.BaseMult(new(big.Int).Rand(rng, g.q))
	k := new(big.Int).Rand(rng, g.q)
	if n := testing.AllocsPerRun(10, func() { g.ScalarMult(pt, k) }); n > 60 {
		t.Fatalf("ScalarMult allocates %v times a call, ceiling is 60", n)
	}
}
