package chaos

import (
	"fmt"
	"slices"
	"strings"

	"seccloud/internal/core"
	"seccloud/internal/obs"
	"seccloud/internal/store"
)

// violationLog collects invariant violations in deterministic order —
// the shrinker compares violation text across runs byte-for-byte, so
// every entry must be a pure function of the schedule and seed. Wrapped
// I/O errors carry the run's (random) temp directory; scrub replaces it
// so two runs of the same schedule emit identical text.
type violationLog struct {
	scrub   string
	counter *obs.CounterVec
	list    []string
}

func (v *violationLog) addf(inv, format string, args ...any) {
	s := fmt.Sprintf("inv=%s "+format, append([]any{inv}, args...)...)
	if v.scrub != "" {
		s = strings.ReplaceAll(s, v.scrub, "$WAL")
	}
	if v.counter != nil {
		v.counter.With(inv).Inc()
	}
	v.list = append(v.list, s)
}

func (v *violationLog) empty() bool { return len(v.list) == 0 }

// checkServing is the per-epoch durability invariant on live state:
// every reachable replica must be serving, at every position, bytes the
// ledger allows — an acked write, an in-flight ambiguous write, or the
// nemesis's own registered rot. Anything else is corruption the system
// invented on its own.
func (c *cluster) checkServing(ep int) {
	positions := allPositions(c.cfg.Blocks)
	for i := 0; i < c.cfg.Servers; i++ {
		if c.crashPending[i] {
			continue // process is dead; recovery is checked at restart and at the end
		}
		blocks, err := c.readState(c.server(i), positions)
		if err != nil {
			c.violations.addf("durability", "epoch %d server %d: state unreadable: %v", ep, i, err)
			continue
		}
		for p, got := range blocks {
			want := c.led.expectedServed(i, uint64(p))
			if !want[string(got)] {
				c.violations.addf("durability",
					"epoch %d server %d pos %d: serving %q, not in acceptable set (%d entries)",
					ep, i, p, truncBytes(got), len(want))
			}
		}
	}
}

// checkRecovery is the end-of-run durability invariant: on healthy
// hardware, a fresh process recovering each server's WAL directory must
// reproduce every acked write. At positions the nemesis tampered, the
// ledgered rot is also acceptable — snapshot compaction persists live
// state, rot included — but rot the ledger doesn't know about, or an
// acked write gone missing, is a violation.
func (c *cluster) checkRecovery() {
	positions := allPositions(c.cfg.Blocks)
	for i := 0; i < c.cfg.Servers; i++ {
		// The chaos is over: the operator fixed the disk. What must NOT
		// need fixing is the data.
		c.disks[i].SetRates(store.FaultFSConfig{})
		c.crashers[i] = &store.Crasher{}
		srv, err := c.newServer(i)
		if err != nil {
			c.violations.addf("durability", "final recovery server %d refused on healthy disk: %v", i, err)
			continue
		}
		if !srv.Recovery().Recovered {
			c.violations.addf("durability", "final recovery server %d recovered nothing", i)
			continue
		}
		blocks, err := c.readState(srv, positions)
		if err != nil {
			c.violations.addf("durability", "final recovery server %d: state unreadable: %v", i, err)
			continue
		}
		for p, got := range blocks {
			want := c.led.acceptable[posKey{i, uint64(p)}]
			ok := want[string(got)]
			if !ok {
				// Ledgered rot may legitimately survive recovery: snapshot
				// compaction persists the server's live state, rot
				// included. What must never survive is rot the ledger
				// doesn't know about — or a missing acked write.
				if rot, tampered := c.led.tamperContent[i][uint64(p)]; tampered && string(got) == string(rot) {
					ok = true
				}
			}
			if !ok {
				c.violations.addf("durability",
					"final recovery server %d pos %d: recovered %q, not in acked set (%d entries)",
					i, p, truncBytes(got), len(want))
			}
		}
	}
}

// checkChain re-verifies the whole evidence trail from its encoded
// bytes: decode, public signature verification, checkpoint verification.
// This is the paper's public-verifiability claim under chaos — whatever
// the network and disks did, every piece of evidence the DA banked must
// still convince a third party.
func (c *cluster) checkChain() {
	for _, e := range c.chain {
		ev, err := core.DecodeEvidence(e.Raw)
		if err != nil {
			c.violations.addf("evidence-chain", "epoch %d primary %d: decode: %v", e.Epoch, e.Primary, err)
			continue
		}
		if err := core.VerifyEvidence(c.scheme, ev); err != nil {
			c.violations.addf("evidence-chain", "epoch %d primary %d: verify: %v", e.Epoch, e.Primary, err)
		}
		if err := core.VerifyCheckpoint(c.scheme, e.Checkpoint); err != nil {
			c.violations.addf("evidence-chain", "epoch %d primary %d: checkpoint: %v", e.Epoch, e.Primary, err)
		}
	}
}

// checkLiveness demands the system actually healed once the nemesis went
// quiet: every server back up, every breaker closed, and the final quiet
// epoch's workload and audits ran clean — no failovers, no lost rounds,
// no degradation, no failed writes. Detection without recovery would be
// a dead system with good paperwork.
func (c *cluster) checkLiveness() {
	for i := 0; i < c.cfg.Servers; i++ {
		if c.crashPending[i] {
			c.violations.addf("liveness", "server %d never recovered after the quiet phase", i)
		}
		if c.killed[i] {
			c.violations.addf("liveness", "server %d still killed after the quiet phase (schedule bug?)", i)
		}
		if st := c.fleet.Health().Breaker(i).State(); st != core.StateClosed {
			c.violations.addf("liveness", "breaker %d still %v after the quiet phase", i, st)
		}
	}
	final := c.cfg.ActiveEpochs + c.cfg.QuietEpochs
	for _, o := range c.outcomes {
		if o.Epoch != final {
			continue
		}
		if o.Err != "" {
			c.violations.addf("liveness", "final epoch audit (primary %d) failed: %s", o.Primary, o.Err)
			continue
		}
		if o.Failovers > 0 || o.LostRounds > 0 || o.Degraded {
			c.violations.addf("liveness",
				"final epoch audit (primary %d) still degraded: failovers=%d lost=%d degraded=%v",
				o.Primary, o.Failovers, o.LostRounds, o.Degraded)
		}
	}
	for _, o := range c.jobOutcomes {
		if o.Epoch == final && o.Degraded {
			c.violations.addf("liveness", "final epoch audit of slot %d's sub-job (server %d) still degraded", o.Slot, o.Server)
		}
	}
	if c.opsFailedFinal > 0 {
		c.violations.addf("liveness", "%d writes or jobs failed in the final quiet epoch", c.opsFailedFinal)
	}
}

// checkAgreement compares the chaos run's fleet and job audit verdicts
// with the fault-free reference replay on identical sampling draws. When the
// chaos audit ran over a clean fleet (no failovers, no lost rounds, all
// breakers closed) it saw exactly what the reference saw, so its verdict
// — validity, accusations, sampled and failing positions — must match
// exactly; a mismatch means weather changed a verdict, which is precisely
// what the audit protocol promises cannot happen. With a quorum step the
// reference audits with the single DA holding the undealt key, so every
// clean audit is also a quorum-against-single-DA cross-check.
func checkAgreement(chaosRun, ref *cluster) {
	if len(chaosRun.outcomes) != len(ref.outcomes) {
		chaosRun.violations.addf("agreement", "outcome count %d vs reference %d",
			len(chaosRun.outcomes), len(ref.outcomes))
		return
	}
	for k, co := range chaosRun.outcomes {
		ro := ref.outcomes[k]
		if co.Epoch != ro.Epoch || co.Primary != ro.Primary {
			chaosRun.violations.addf("agreement", "outcome %d misaligned: (%d,%d) vs (%d,%d)",
				k, co.Epoch, co.Primary, ro.Epoch, ro.Primary)
			return
		}
		if co.Err != "" || ro.Err != "" {
			continue // availability, not agreement; liveness owns the quiet phase
		}
		clean := co.CleanFleet && co.Failovers == 0 && co.LostRounds == 0 && !co.Degraded
		if !clean {
			continue // degraded-path accusations are policed by the false-flag invariant
		}
		if co.Valid != ro.Valid || !sameAccusations(co, ro) ||
			!slices.Equal(co.Sampled, ro.Sampled) || !slices.Equal(co.Failed, ro.Failed) {
			chaosRun.violations.addf("agreement",
				"epoch %d primary %d: chaos verdict (valid=%v accused=%v sampled=%v failed=%v) != reference (valid=%v accused=%v sampled=%v failed=%v)",
				co.Epoch, co.Primary, co.Valid, co.Accused, co.Sampled, co.Failed, ro.Valid, ro.Accused, ro.Sampled, ro.Failed)
		}
	}

	// Job audits: the reference never fails a job, so it audited every
	// slot; a chaos audit of a clean slot must reach its verdict.
	type slot struct{ epoch, slot int }
	refJobs := make(map[slot]jobOutcome, len(ref.jobOutcomes))
	for _, ro := range ref.jobOutcomes {
		refJobs[slot{ro.Epoch, ro.Slot}] = ro
	}
	for _, co := range chaosRun.jobOutcomes {
		ro, ok := refJobs[slot{co.Epoch, co.Slot}]
		if !co.Clean || co.Degraded || !ok {
			continue
		}
		if co.Valid != ro.Valid || !slices.Equal(co.Sampled, ro.Sampled) || !slices.Equal(co.Failed, ro.Failed) {
			chaosRun.violations.addf("agreement",
				"epoch %d job audit of slot %d: chaos (valid=%v sampled=%v failed=%v) != reference (valid=%v sampled=%v failed=%v)",
				co.Epoch, co.Slot, co.Valid, co.Sampled, co.Failed, ro.Valid, ro.Sampled, ro.Failed)
		}
	}
}

func sameAccusations(a, b auditOutcome) bool {
	if len(a.Accused) != len(b.Accused) {
		return false
	}
	for i := range a.Accused {
		if a.Accused[i] != b.Accused[i] || a.Classes[i] != b.Classes[i] {
			return false
		}
	}
	return true
}

// truncBytes renders block bytes for violation messages without dumping
// whole blocks into them.
func truncBytes(b []byte) string {
	if len(b) > 16 {
		b = b[:16]
	}
	return string(b)
}
