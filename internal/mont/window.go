package mont

import (
	"math/big"
	"math/bits"
)

// expWindow is the sliding-window width of the field exponentiations:
// 2^(w−1) odd powers in the table, one product per w+1 exponent bits on
// average. Measured at SS512 (best of three, µs) on the three exponent
// shapes the callers have — the 510-bit square-root exponent, a 160-bit GT
// exponent, and an audit's Σ_A of 33 bases with 128-bit exponents:
//
//	w            3     4     5     6
//	Sqrt         92.8  88.7  92.2  107.9
//	Exp2         74.6  76.7  91.6  99.4
//	MultiExp2    659   656   826   1068
//
// (BenchmarkSqrt, BenchmarkExp2, BenchmarkMultiExp2.) The windows are
// unsigned: a signed window needs the inverses of the table entries, which
// in Fp2 cost more than the entries they would save unless the base is
// known to have norm 1, and the one exponentiation where that is known —
// the pairing's final one — has a cheaper ladder of its own.
const expWindow = 4

// Digits recodes |k| for a windowed ladder: one digit per bit position,
// zero or odd, with Σ digits[i]·2^i = |k| and on average one nonzero digit
// per w+1 positions. Unsigned digits lie in (0, 2^w) — a sliding window
// over the bits of k. Signed digits lie in (−2^(w−1), 2^(w−1)) — the
// width-w non-adjacent form, for groups where negation is free. A ladder
// walks the digits from the top, squaring (doubling) once per position and
// multiplying (adding) table[|d|>>1] at each nonzero d. w is at most 7.
func Digits(k *big.Int, w uint, signed bool) []int8 {
	kw := k.Bits()
	n := k.BitLen() + 1 // the last carry of the signed form lands one bit up
	digits := make([]int8, n)
	var carry uint
	for pos := uint(0); pos < uint(n); {
		if window(kw, pos, 1) == carry {
			pos++ // bit and carry sum to 0 or 2: a zero digit, carry kept
			continue
		}
		count := w
		if count > uint(n)-pos {
			count = uint(n) - pos
		}
		word := int(window(kw, pos, count) + carry)
		carry = 0
		if signed && word >= 1<<(w-1) {
			word -= 1 << w
			carry = 1
		}
		digits[pos] = int8(word)
		pos += count
	}
	return digits
}

// window returns the count bits of the magnitude kw from position pos,
// count < 64.
func window(kw []big.Word, pos, count uint) uint {
	const ws = bits.UintSize
	i, off := pos/ws, pos%ws
	var v uint
	if i < uint(len(kw)) {
		v = uint(kw[i]) >> off
		if off+count > ws && i+1 < uint(len(kw)) {
			v |= uint(kw[i+1]) << (ws - off)
		}
	}
	return v & (1<<count - 1)
}

// FixedWindows is the number of width-w windows FixedDigits needs for
// scalars of up to bits bits: one spare bit takes the last carry.
func FixedWindows(bits int, w uint) int { return (bits + int(w)) / int(w) }

// FixedDigits recodes k, 0 ≤ k < 2^(w·n−1), as n signed digits in
// [−2^(w−1), 2^(w−1)] with Σ digits[i]·2^(w·i) = k. Digit i depends on
// window i alone, so a table of the multiples (powers) j·2^(w·i), 0 < j ≤
// 2^(w−1), of one fixed base turns k·base into n additions (products) and
// no doublings (squarings): where negation is free, half a window's values
// serve all of them. w is at most 7.
func FixedDigits(k *big.Int, w uint, n int) []int8 {
	kw := k.Bits()
	digits := make([]int8, n)
	var carry uint
	for i := range digits {
		word := int(window(kw, uint(i)*w, w) + carry)
		carry = 0
		if word > 1<<(w-1) {
			word -= 1 << w
			carry = 1
		}
		digits[i] = int8(word)
	}
	return digits
}
