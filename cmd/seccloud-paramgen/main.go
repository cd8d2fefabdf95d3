// Command seccloud-paramgen generates pairing parameters for the
// supersingular curve y² = x³ + x used by SecCloud: a subgroup prime q, a
// field prime p = h·q − 1 with p ≡ 3 (mod 4), and a generator of the
// order-q subgroup. The built-in SS512 and InsecureTest256 sets were
// produced by this tool.
//
// Usage:
//
//	seccloud-paramgen -pbits 512 -qbits 160
package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"math/big"
	"os"

	"seccloud/internal/ff"
	"seccloud/internal/mont"
	"seccloud/internal/pairing"
)

func main() {
	pbits := flag.Int("pbits", 512, "field prime size in bits")
	qbits := flag.Int("qbits", 160, "subgroup order size in bits")
	flag.Parse()
	if err := run(*pbits, *qbits); err != nil {
		fmt.Fprintln(os.Stderr, "seccloud-paramgen:", err)
		os.Exit(1)
	}
}

// validateFlags refuses sizes the search could not finish with, before
// the prime search runs: the field arithmetic holds at most mont.MaxBits
// bits, and the cofactor needs room.
func validateFlags(pbits, qbits int) error {
	if pbits > mont.MaxBits {
		return fmt.Errorf("-pbits %d is above the %d-bit limit of the fixed-limb field", pbits, mont.MaxBits)
	}
	if qbits < 16 || pbits-qbits < 16 {
		return fmt.Errorf("need qbits ≥ 16 and pbits−qbits ≥ 16 (got %d/%d)", pbits, qbits)
	}
	return nil
}

func run(pbits, qbits int) error {
	if err := validateFlags(pbits, qbits); err != nil {
		return err
	}
	q, err := rand.Prime(rand.Reader, qbits)
	if err != nil {
		return fmt.Errorf("sampling subgroup prime: %w", err)
	}

	// Find h = 4c with p = h·q − 1 prime and the right size. p ≡ 3 (mod 4)
	// follows from 4 | h and q odd.
	hbits := pbits - qbits
	one := big.NewInt(1)
	var p, h *big.Int
	for {
		c, err := rand.Int(rand.Reader, new(big.Int).Lsh(one, uint(hbits-2)))
		if err != nil {
			return fmt.Errorf("sampling cofactor: %w", err)
		}
		cand := new(big.Int).Lsh(c, 2)
		if cand.BitLen() < hbits-1 {
			continue
		}
		pc := new(big.Int).Mul(cand, q)
		pc.Sub(pc, one)
		if pc.BitLen() != pbits || !pc.ProbablyPrime(64) {
			continue
		}
		p, h = pc, cand
		break
	}

	// Find a generator: lift a small x to a curve point, clear the
	// cofactor, confirm the order. Plain affine arithmetic suffices for a
	// one-off search.
	fp, err := ff.NewCtx(p)
	if err != nil {
		return err
	}
	var gx, gy *big.Int
	for x := int64(2); ; x++ {
		xb := big.NewInt(x)
		rhs := new(big.Int).Mul(xb, xb)
		rhs.Mul(rhs, xb)
		rhs.Add(rhs, xb)
		rhs.Mod(rhs, p)
		y, ok := fp.Sqrt(rhs)
		if !ok {
			continue
		}
		cx, cy, inf := scalarMult(p, xb, y, h)
		if inf {
			continue
		}
		if _, _, isInf := scalarMult(p, cx, cy, q); !isInf {
			continue
		}
		gx, gy = cx, cy
		break
	}

	// Validate end-to-end through the pairing constructor.
	if _, err := pairing.New("generated", p, q, h, gx, gy); err != nil {
		return fmt.Errorf("generated parameters failed validation: %w", err)
	}
	fmt.Printf("q  = %s\n", q.Text(16))
	fmt.Printf("h  = %s\n", h.Text(16))
	fmt.Printf("p  = %s\n", p.Text(16))
	fmt.Printf("gx = %s\n", gx.Text(16))
	fmt.Printf("gy = %s\n", gy.Text(16))
	return nil
}

// scalarMult computes k·(x, y) on y² = x³ + x over Fp in affine
// coordinates, returning (x', y', atInfinity).
func scalarMult(p, x, y, k *big.Int) (*big.Int, *big.Int, bool) {
	rx, ry, rInf := new(big.Int), new(big.Int), true
	ax, ay := new(big.Int).Set(x), new(big.Int).Set(y)
	aInf := false
	for i := 0; i < k.BitLen(); i++ {
		if k.Bit(i) == 1 {
			rx, ry, rInf = addAffine(p, rx, ry, rInf, ax, ay, aInf)
		}
		ax, ay, aInf = addAffine(p, ax, ay, aInf, ax, ay, aInf)
	}
	return rx, ry, rInf
}

// addAffine adds two affine points (with infinity flags) on y² = x³ + x.
func addAffine(p, x1, y1 *big.Int, inf1 bool, x2, y2 *big.Int, inf2 bool) (*big.Int, *big.Int, bool) {
	if inf1 {
		return new(big.Int).Set(x2), new(big.Int).Set(y2), inf2
	}
	if inf2 {
		return new(big.Int).Set(x1), new(big.Int).Set(y1), inf1
	}
	var lambda *big.Int
	if x1.Cmp(x2) == 0 {
		ysum := new(big.Int).Add(y1, y2)
		ysum.Mod(ysum, p)
		if ysum.Sign() == 0 {
			return new(big.Int), new(big.Int), true
		}
		num := new(big.Int).Mul(x1, x1)
		num.Mul(num, big.NewInt(3))
		num.Add(num, big.NewInt(1))
		den := new(big.Int).Lsh(y1, 1)
		den.ModInverse(den, p)
		lambda = num.Mul(num, den)
	} else {
		num := new(big.Int).Sub(y2, y1)
		den := new(big.Int).Sub(x2, x1)
		den.Mod(den, p)
		den.ModInverse(den, p)
		lambda = num.Mul(num, den)
	}
	lambda.Mod(lambda, p)
	x3 := new(big.Int).Mul(lambda, lambda)
	x3.Sub(x3, x1)
	x3.Sub(x3, x2)
	x3.Mod(x3, p)
	y3 := new(big.Int).Sub(x1, x3)
	y3.Mul(y3, lambda)
	y3.Sub(y3, y1)
	y3.Mod(y3, p)
	return x3, y3, false
}
