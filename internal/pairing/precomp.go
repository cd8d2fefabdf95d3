package pairing

import (
	"seccloud/internal/curve"
	"seccloud/internal/mont"
)

// Fixed-argument pairing precomputation.
//
// Every verifier-side pairing in SecCloud has one argument that never
// changes: the DA verifies ê(·, sk_DA) for its whole lifetime (eq. 5/7),
// and everyone verifies public signatures against ê(·, P) and ê(·, Ppub).
// The Miller loop's point arithmetic — the accumulator doublings and
// additions, three quarters of a cold loop's field products — depends only
// on the *first* argument; the second argument enters only through the
// cheap line evaluations. Because the modified Tate pairing on this supersingular
// curve is symmetric (ê(P, Q) = ê(Q, P), see TestSymmetry), we can pin the
// fixed argument into the first slot, record the line coefficients of
// every Miller step once, and replay them against any second argument: the
// same group element at a fraction of the cost.
//
// The recorded lines are those of Params.miller for the fixed point, each
// divided by its own coefficient of y_Q·i — a factor in Fp*, like the ones
// the projective steps already put on them. The Miller value of a replay
// therefore differs from the cold one by an element of Fp*, and the two
// are equal after the final exponentiation: a precomputed pairing is
// bit-identical to the cold one as a GT element, so verifiers using a
// Precomp interoperate with signers using plain Pair.

// precompLine is one recorded line, normalised so that its value at φ(Q)
// is a·x_Q + b + y_Q·i.
type precompLine struct{ a, b mont.Elem }

// precompIter is one Miller-loop iteration: the unconditional squaring is
// implicit; dbl and add index the iteration's doubling and addition lines
// in Precomp.lines, or are −1 when the step contributed none.
type precompIter struct{ dbl, add int }

// Precomp is the reusable Miller-loop state for a fixed pairing argument.
// Immutable after construction and safe for concurrent use.
//
// When the fixed argument is a secret key, the recorded line coefficients
// are key-dependent and must be treated with the same confidentiality as
// the key itself.
type Precomp struct {
	pp    *Params
	fixed *curve.Point // copy of the fixed argument
	iters []precompIter
	lines []precompLine
}

// Precompute runs the Miller loop for the fixed point p once, recording
// every line coefficient. The returned Precomp evaluates ê(p, q) — and by
// symmetry ê(q, p) — for arbitrary q via Precomp.Pair.
func (pp *Params) Precompute(p *curve.Point) *Precomp {
	pc := &Precomp{pp: pp, fixed: pp.g1.Copy(p)}
	if p.Inf {
		return pc
	}
	// The steps are Params.miller's own, run on one pair whose second
	// argument is never looked at.
	m := pp.newMillerPair(p, p)
	var raw []line
	record := func(l line, ok bool) int {
		if !ok {
			return -1
		}
		raw = append(raw, l)
		return len(raw) - 1
	}
	pc.iters = make([]precompIter, 0, pp.q.BitLen()-1)
	for i := pp.q.BitLen() - 2; i >= 0; i-- {
		it := precompIter{dbl: -1, add: -1}
		if !m.r.done {
			it.dbl = record(pp.doubleStep(&m.r))
		}
		if pp.q.Bit(i) == 1 && !m.r.done {
			it.add = record(pp.addStep(&m.r, &m.px, &m.py))
		}
		pc.iters = append(pc.iters, it)
	}
	// One shared inversion divides every line by its c.
	cs := make([]mont.Elem, 2*len(raw))
	for i := range raw {
		cs[i] = raw[i].c
	}
	pp.fp.InvBatch(cs[:len(raw)], cs[len(raw):])
	pc.lines = make([]precompLine, len(raw))
	for i := range raw {
		pp.fp.Mul(&pc.lines[i].a, &raw[i].a, &cs[i])
		pp.fp.Mul(&pc.lines[i].b, &raw[i].b, &cs[i])
	}
	return pc
}

// Params returns the pairing context the precomputation belongs to.
func (pc *Precomp) Params() *Params { return pc.pp }

// Fixed returns a copy of the precomputed argument.
func (pc *Precomp) Fixed() *curve.Point { return pc.pp.g1.Copy(pc.fixed) }

// millerEval replays the recorded lines against φ(q), producing the
// Miller value of Params.miller(fixed, q) up to an element of Fp*.
func (pc *Precomp) millerEval(q *curve.Point) mont.Elem2 {
	pc.pp.g1.Counters().AddMillerLoop()
	fp := pc.pp.fp
	var qx mont.Elem
	var l mont.Elem2
	fp.FromBig(&qx, q.X)
	fp.FromBig(&l.B, q.Y)
	f := fp.One2()
	mul := func(i int) {
		if i < 0 {
			return
		}
		fp.Mul(&l.A, &pc.lines[i].a, &qx)
		fp.Add(&l.A, &l.A, &pc.lines[i].b)
		fp.Mul2(&f, &f, &l)
	}
	for _, it := range pc.iters {
		fp.Square2(&f, &f)
		mul(it.dbl)
		mul(it.add)
	}
	return f
}

// Pair computes ê(fixed, q) = ê(q, fixed) using the precomputed Miller
// state: only the line evaluations and the final exponentiation run per
// call. The result is bit-identical to Params.Pair on the same inputs.
// The caller remains responsible for subgroup membership of untrusted q.
func (pc *Precomp) Pair(q *curve.Point) *GT {
	if pc.fixed.Inf || q.Inf {
		return pc.pp.One()
	}
	f := pc.millerEval(q)
	return pc.pp.finalExp(&f)
}
