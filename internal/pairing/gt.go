package pairing

import (
	"fmt"
	"math/big"

	"seccloud/internal/ff"
	"seccloud/internal/mont"
)

// GT is an element of the order-q target group inside Fp2*. Values are
// immutable: every operation returns a fresh element.
type GT struct {
	pp *Params
	v  *ff.Fp2
}

// One returns the identity of GT.
func (pp *Params) One() *GT {
	return &GT{pp: pp, v: pp.g1.FieldCtx().Fp2One()}
}

// gtFromLimbs converts a kernel's result out to the interchange form.
func (pp *Params) gtFromLimbs(x *mont.Elem2) *GT {
	return &GT{pp: pp, v: &ff.Fp2{A: pp.fp.ToBig(&x.A), B: pp.fp.ToBig(&x.B)}}
}

// IsOne reports whether g is the identity.
func (g *GT) IsOne() bool { return g.pp.g1.FieldCtx().Fp2IsOne(g.v) }

// Equal reports whether g and h are the same element.
func (g *GT) Equal(h *GT) bool { return g.pp.g1.FieldCtx().Fp2Equal(g.v, h.v) }

// Mul returns g·h.
func (g *GT) Mul(h *GT) *GT {
	return &GT{pp: g.pp, v: g.pp.g1.FieldCtx().Fp2Mul(g.v, h.v)}
}

// Inv returns g⁻¹. GT elements have order q, so the inverse is g^(q−1);
// for unitary Fp2 elements this is just conjugation, which is cheap.
func (g *GT) Inv() *GT {
	return &GT{pp: g.pp, v: g.pp.g1.FieldCtx().Fp2Conj(g.v)}
}

// Exp returns g^k with the exponent reduced mod q.
func (g *GT) Exp(k *big.Int) *GT {
	fp := g.pp.g1.FieldCtx()
	kq := new(big.Int).Mod(k, g.pp.q)
	return &GT{pp: g.pp, v: fp.Fp2Exp(g.v, kq)}
}

// MultiExp returns Π gᵢ^kᵢ with exponents reduced mod q, sharing one
// squaring ladder across the whole product (ff.Fp2MultiExp). This is the
// batched analogue of Exp: aggregate verification over n signatures pays
// the ladder's squarings once instead of n times.
func (pp *Params) MultiExp(gs []*GT, ks []*big.Int) (*GT, error) {
	if len(gs) != len(ks) {
		return nil, fmt.Errorf("pairing: mismatched multi-exp lengths %d vs %d", len(gs), len(ks))
	}
	fp := pp.g1.FieldCtx()
	xs := make([]*ff.Fp2, len(gs))
	kq := make([]*big.Int, len(ks))
	for i, g := range gs {
		if g == nil {
			return nil, fmt.Errorf("pairing: nil GT element %d in multi-exp", i)
		}
		xs[i] = g.v
		kq[i] = new(big.Int).Mod(ks[i], pp.q)
	}
	v, err := fp.Fp2MultiExp(xs, kq)
	if err != nil {
		return nil, err
	}
	return &GT{pp: pp, v: v}, nil
}

// Marshal encodes g as two fixed-width big-endian field coordinates.
func (g *GT) Marshal() []byte {
	fb := (g.pp.p.BitLen() + 7) / 8
	out := make([]byte, 2*fb)
	g.v.A.FillBytes(out[:fb])
	g.v.B.FillBytes(out[fb:])
	return out
}

// GTLen returns the byte length of an encoded GT element.
func (pp *Params) GTLen() int {
	fb := (pp.p.BitLen() + 7) / 8
	return 2 * fb
}

// InSubgroup reports whether g lies in the order-q subgroup of Fp2*,
// via one full exponentiation by q.
func (g *GT) InSubgroup() bool {
	fp := g.pp.g1.FieldCtx()
	return fp.Fp2IsOne(fp.Fp2Exp(g.v, g.pp.q))
}

// UnmarshalGT decodes an element produced by GT.Marshal and checks that it
// lies in the order-q subgroup (rejecting arbitrary Fp2 values).
func (pp *Params) UnmarshalGT(data []byte) (*GT, error) {
	g, err := pp.UnmarshalGTUnchecked(data)
	if err != nil {
		return nil, err
	}
	if !g.InSubgroup() {
		return nil, fmt.Errorf("pairing: element not in order-q subgroup")
	}
	return g, nil
}

// UnmarshalGTUnchecked decodes an element produced by GT.Marshal without
// the order-q subgroup exponentiation — only field range and nonzero-ness
// are enforced. It exists for verifiers whose final step compares the
// decoded value for equality against a freshly-computed pairing output:
// the pairing's final exponentiation lands in the order-q subgroup, so a
// decoded value outside it can only make that comparison fail, never
// pass. Callers that use the element any other way (inversion via
// conjugation, reuse as a trusted group element) must call InSubgroup
// themselves or use UnmarshalGT.
func (pp *Params) UnmarshalGTUnchecked(data []byte) (*GT, error) {
	fb := (pp.p.BitLen() + 7) / 8
	if len(data) != 2*fb {
		return nil, fmt.Errorf("pairing: GT encoding has %d bytes, want %d", len(data), 2*fb)
	}
	fp := pp.g1.FieldCtx()
	a := new(big.Int).SetBytes(data[:fb])
	b := new(big.Int).SetBytes(data[fb:])
	if !fp.InField(a) || !fp.InField(b) {
		return nil, fmt.Errorf("pairing: GT coordinates out of field range")
	}
	v := &ff.Fp2{A: a, B: b}
	if fp.Fp2IsZero(v) {
		return nil, fmt.Errorf("pairing: GT element is zero")
	}
	return &GT{pp: pp, v: v}, nil
}

// String renders g for debugging.
func (g *GT) String() string {
	return g.pp.g1.FieldCtx().Fp2String(g.v)
}
