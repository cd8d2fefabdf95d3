package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"seccloud/internal/core"
	"seccloud/internal/funcs"
	"seccloud/internal/netsim"
	"seccloud/internal/wire"
)

// wireBytes is the frame bytes a client has moved so far, both ways.
func wireBytes(c netsim.Client) int64 {
	st := c.Stats()
	return st.BytesSent + st.BytesRecv
}

// do runs one op of kind k for client c acting on user u and returns its
// sample. Input generation happens before the clock starts and result
// checking after it stops; what is timed is what the user waits for.
func (e *env) do(k opKind, c, u int, rng *rand.Rand) sample {
	switch k {
	case opAudit:
		return e.doAudit(c, u, rng)
	case opJob:
		return e.doJob(c, u, rng)
	case opStore:
		return e.doStore(c)
	default:
		return e.doUpdate(c, u)
	}
}

// timed wraps the measured part of an op: the op span of the traced run,
// the timestamps and the wire-byte delta all share these two boundaries.
func (e *env) timed(k opKind, c, units int, v *verdict, fn func() error) sample {
	s := sample{kind: k, client: c, units: units}
	span := e.tr.startOp(k, e)
	before := wireBytes(e.clients[c])
	s.start = e.now()
	s.err = fn()
	s.end = e.now()
	s.wire = wireBytes(e.clients[c]) - before
	if v != nil {
		s.sampled, s.verified, s.lostRounds = v.sampled, v.verified, v.lostRounds()
	}
	span.end(s)
	return s
}

// doAudit runs one audit of user u's job or stored data. An audit that
// errors, accuses, loses a round or verifies less than it sampled is a
// failed op: the servers here are honest and the link is loopback.
func (e *env) doAudit(c, u int, rng *rand.Rand) sample {
	p := e.users[u]
	var v verdict
	return e.timed(opAudit, c, 1, &v, func() error {
		if e.sp.audit == auditJob {
			r, err := e.agency.AuditJob(e.clients[c], p.deleg, core.AuditConfig{
				SampleSize: e.sp.sample, Rounds: e.sp.rounds, Rng: rng,
				BatchSignatures: true, Workers: 1,
			})
			if err != nil {
				return err
			}
			v = verdict{r.Failures, r.Rounds, r.SampleSize, r.EffectiveSampleSize}
			return v.honest()
		}
		r, err := e.agency.AuditStorage(e.clients[c], p.user.ID(), p.warrant, core.StorageAuditConfig{
			DatasetSize: e.sp.blocks, SampleSize: e.sp.sample, Rounds: e.sp.rounds, Rng: rng,
			BatchSignatures: true, Workers: 1,
		})
		if err != nil {
			return err
		}
		v = verdict{r.Failures, r.Rounds, len(r.Sampled), r.EffectiveSampleSize}
		return v.honest()
	})
}

// verdict is what either audit report says about the server.
type verdict struct {
	failures          []core.AuditFailure
	rounds            []core.RoundRecord
	sampled, verified int
}

func (v verdict) lostRounds() int {
	n := 0
	for _, rr := range v.rounds {
		if rr.Outcome.Lost() {
			n++
		}
	}
	return n
}

// honest is the window invariant: no accusation, no lost round, the full
// sample verified.
func (v verdict) honest() error {
	if len(v.failures) > 0 {
		return fmt.Errorf("false flag on an honest server: index %d, %s: %s",
			v.failures[0].Index, v.failures[0].Check, v.failures[0].Detail)
	}
	for _, rr := range v.rounds {
		if rr.Outcome != core.RoundOK {
			return fmt.Errorf("round outcome %s on a clean link: %s", rr.Outcome, rr.Detail)
		}
	}
	if v.verified < v.sampled {
		return fmt.Errorf("degraded audit: verified %d of %d sampled", v.verified, v.sampled)
	}
	return nil
}

// jobCheckTasks is how many sub-tasks of each job response are
// re-evaluated locally.
const jobCheckTasks = 16

// doJob submits user u's job under a fresh ID, then re-evaluates a seeded
// handful of its sub-tasks against the user's own copy of the data.
func (e *env) doJob(c, u int, rng *rand.Rand) sample {
	p := e.users[u]
	jobID := fmt.Sprintf("job-%d-%08d", u, e.jobSeq.Add(1)) // fixed width: the same bytes on the wire whatever the count
	var resp *wire.ComputeResponse
	s := e.timed(opJob, c, 1, nil, func() (err error) {
		resp, err = p.user.SubmitJob(e.clients[c], jobID, p.job)
		return err
	})
	if s.err == nil {
		s.err = e.checkJobResults(p, resp, rng)
	}
	// Exactly one client sees the count land on the limit and rotates.
	if s.err == nil && e.jobsOnServer.Add(1) == int64(e.sp.jobsPerServer) {
		s.err = e.rotateServer(false)
	}
	return s
}

func (e *env) checkJobResults(p *party, resp *wire.ComputeResponse, rng *rand.Rand) error {
	reg := funcs.NewRegistry()
	for n := 0; n < jobCheckTasks; n++ {
		i := rng.Intn(len(p.job.SubTasks))
		st := p.job.SubTasks[i]
		in := make([][]byte, len(st.Positions))
		for k, pos := range st.Positions {
			in[k] = p.blocks[pos]
		}
		want, err := reg.Eval(st.Spec, in)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, resp.Results[i]) {
			return fmt.Errorf("job result %d differs from local re-evaluation", i)
		}
	}
	return nil
}

// doStore signs and uploads the next reqBlocks blocks of client c's own
// user at increasing positions; the sample is sign → ack.
func (e *env) doStore(c int) sample {
	p := e.users[c]
	ds := p.gen.GenDataset(p.user.ID(), e.sp.reqBlocks, e.sp.blockInts)
	base := uint64(len(p.blocks))
	var req *wire.StoreRequest
	s := e.timed(opStore, c, len(ds.Blocks), nil, func() error {
		req = &wire.StoreRequest{UserID: p.user.ID()}
		for i, b := range ds.Blocks {
			pos := base + uint64(i)
			sig, err := p.user.SignBlock(pos, b, serverID, agencyID)
			if err != nil {
				return err
			}
			req.Positions = append(req.Positions, pos)
			req.Blocks = append(req.Blocks, b)
			req.Sigs = append(req.Sigs, sig)
		}
		return p.user.Store(e.clients[c], req)
	})
	if s.err == nil {
		p.blocks = append(p.blocks, ds.Blocks...)
		p.uploads = append(p.uploads, req)
		for _, b := range ds.Blocks {
			e.userBytes[c] += int64(len(b))
		}
		e.acked[c] += int64(len(ds.Blocks))
	}
	return s
}

// doUpdate replaces one block of user u's initial dataset, cycling through
// its positions.
func (e *env) doUpdate(c, u int) sample {
	p := e.users[u]
	pos := uint64(p.updates % e.sp.blocks)
	p.updates++
	data := p.gen.GenDataset(p.user.ID(), 1, e.sp.blockInts).Blocks[0]
	s := e.timed(opUpdate, c, 1, nil, func() error {
		return p.user.UpdateBlock(e.clients[c], pos, data, serverID, agencyID)
	})
	if s.err == nil {
		p.blocks[pos] = data
	}
	return s
}
