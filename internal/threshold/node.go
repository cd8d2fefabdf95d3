package threshold

import (
	"fmt"
	"io"
	"sync"

	"seccloud/internal/curve"
	"seccloud/internal/ibc"
	"seccloud/internal/wire"
)

// AuditorShare is one share-holder process: a transport.Handler that answers
// PartialRequests with partial designated verifications for its share.
// Safe for concurrent use. It is the network-facing face of a Prover —
// the share itself never leaves the process; only partials (which reveal
// nothing beyond ê(base, share_i)) and their proofs do.
type AuditorShare struct {
	sp     *ibc.SystemParams
	prover *Prover
	random io.Reader

	mu        sync.Mutex
	byzantine bool
}

// NewAuditorShare builds the share-holder node.
func NewAuditorShare(sp *ibc.SystemParams, share *Share, random io.Reader) *AuditorShare {
	return &AuditorShare{sp: sp, prover: NewProver(sp, share), random: random}
}

// Index returns the node's 1-based share index.
func (as *AuditorShare) Index() int { return as.prover.Index() }

// SetByzantine flips the node into (or out of) Byzantine mode: it keeps
// answering, but its partials are corrupted — the T value is multiplied by
// a bogus GT element while the stale proof is left attached, exactly what
// a compromised share-holder trying to flip an audit verdict looks like.
// Simulation/testing hook.
func (as *AuditorShare) SetByzantine(on bool) {
	as.mu.Lock()
	as.byzantine = on
	as.mu.Unlock()
}

// Handle answers a PartialRequest; other message kinds get an
// ErrorResponse. A structurally bad request is refused with a typed error
// — never answered with garbage partials.
func (as *AuditorShare) Handle(m wire.Message) wire.Message {
	req, ok := m.(*wire.PartialRequest)
	if !ok {
		return &wire.ErrorResponse{Code: "bad-request", Msg: fmt.Sprintf("auditor share: unexpected %T", m)}
	}
	if len(req.Bases) == 0 {
		return &wire.PartialResponse{Index: as.Index(), Error: "no bases in partial request"}
	}
	g := as.sp.G1()
	as.mu.Lock()
	byz := as.byzantine
	as.mu.Unlock()
	out := &wire.PartialResponse{Index: as.Index(), Partials: make([]wire.PartialProof, len(req.Bases))}
	for k, raw := range req.Bases {
		base, err := g.UnmarshalPoint(raw)
		if err != nil {
			return &wire.PartialResponse{Index: as.Index(), Error: fmt.Sprintf("base %d: %v", k, err)}
		}
		if !g.InSubgroup(base) {
			return &wire.PartialResponse{Index: as.Index(), Error: fmt.Sprintf("base %d outside G1", k)}
		}
		p, err := as.prover.Partial(base, as.random)
		if err != nil {
			return &wire.PartialResponse{Index: as.Index(), Error: err.Error()}
		}
		if byz {
			// Multiply T by the generator pairing: a well-formed GT
			// element that is NOT ê(base, share_i). The attached proof no
			// longer matches, so the combiner's commitment check must
			// catch and attribute it.
			p.T = p.T.Mul(as.sp.PairWithGenerator(g.Generator()))
		}
		out.Partials[k] = EncodePartialProof(g, p)
	}
	return out
}

// EncodePartialProof marshals a partial for the wire.
func EncodePartialProof(g *curve.Group, p *Partial) wire.PartialProof {
	return wire.PartialProof{
		T:  p.T.Marshal(),
		A1: p.A1.Marshal(),
		A2: p.A2.Marshal(),
		Z:  g.MarshalPoint(p.Z),
	}
}

// DecodePartialProof parses a wire partial for share index. GT elements
// are decoded unchecked here — VerifyPartial performs the subgroup checks
// as part of proof verification, so damage surfaces as an attributable
// verification failure rather than a transport error.
func DecodePartialProof(sp *ibc.SystemParams, index int, pp *wire.PartialProof) (*Partial, error) {
	pr := sp.Pairing()
	t, err := pr.UnmarshalGTUnchecked(pp.T)
	if err != nil {
		return nil, fmt.Errorf("threshold: partial T: %w", err)
	}
	a1, err := pr.UnmarshalGTUnchecked(pp.A1)
	if err != nil {
		return nil, fmt.Errorf("threshold: partial A1: %w", err)
	}
	a2, err := pr.UnmarshalGTUnchecked(pp.A2)
	if err != nil {
		return nil, fmt.Errorf("threshold: partial A2: %w", err)
	}
	z, err := sp.G1().UnmarshalPoint(pp.Z)
	if err != nil {
		return nil, fmt.Errorf("threshold: partial Z: %w", err)
	}
	return &Partial{Index: index, T: t, A1: a1, A2: a2, Z: z}, nil
}
