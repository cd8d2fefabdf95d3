package chaos

import (
	"context"
	"fmt"

	"seccloud/internal/netsim"
	"seccloud/internal/store"
)

// applyStep executes one nemesis move against the cluster. In reference
// mode only the adversarial steps (tamper, cheat, plant) apply — the
// reference replay faces the same cheaters with none of the weather, and
// with the single DA that holds the key a quorum step deals.
func (c *cluster) applyStep(s Step) error {
	if c.reference {
		switch s.Kind {
		case StepTamper, StepCheat, StepPlant:
		default:
			return nil
		}
	}
	switch s.Kind {
	case StepFaults:
		c.links[s.Target].SetFaults(netsim.FaultConfig{
			Seed:        subSeed(c.cfg.Seed, "link", s.Target, s.Epoch),
			DropRate:    s.Drop,
			CorruptRate: s.Corrupt,
		})
	case StepCalm:
		c.links[s.Target].SetFaults(netsim.FaultConfig{})
	case StepCut:
		c.part.CutOneWay(s.From, s.To)
	case StepHeal:
		c.part.Heal()
	case StepSkew:
		if s.Node == "da" {
			c.daClock.SetSkew(s.Skew)
		} else {
			var idx int
			if _, err := fmt.Sscanf(s.Node, "%d", &idx); err != nil || idx < 0 || idx >= c.cfg.Servers {
				return fmt.Errorf("chaos: skew node %q is neither da nor a server index", s.Node)
			}
			c.clocks[idx].SetSkew(s.Skew)
		}
	case StepCrash:
		point, ok := store.CrashPointByName(s.Point)
		if !ok {
			return fmt.Errorf("chaos: unknown crash point %q", s.Point)
		}
		if !c.crashPending[s.Target] {
			c.crashers[s.Target].Arm(point)
		}
	case StepKill:
		if !c.killed[s.Target] {
			c.killed[s.Target] = true
			c.downs[s.Target].SetDown(true)
		}
	case StepRevive:
		if c.killed[s.Target] {
			c.killed[s.Target] = false
			if !c.crashPending[s.Target] {
				c.downs[s.Target].SetDown(false)
			}
		}
	case StepDisk:
		c.disks[s.Target].SetRates(store.FaultFSConfig{
			SyncErrRate:    s.Sync,
			ShortWriteRate: s.Short,
			ReadRotRate:    s.Rot,
			RenameTornRate: s.Rename,
		})
		c.sickEver[s.Target] = true
	case StepDiskHeal:
		c.disks[s.Target].SetRates(store.FaultFSConfig{})
	case StepRestart:
		if err := c.restart(s.Target); err != nil {
			// Recovery refused (rotting snapshots, wedged WAL …): the
			// server stays down; the boundary loop keeps retrying and
			// liveness complains if it never comes back.
			c.crashPending[s.Target] = true
			c.downs[s.Target].SetDown(true)
		}
	case StepTamper:
		blocks := s.Blocks
		if blocks > tamperReserve {
			blocks = tamperReserve
		}
		srv := c.server(s.Target)
		for b := 0; b < blocks; b++ {
			pos := uint64(c.cfg.Blocks - 1 - b)
			rot := xorA5(c.ds.Blocks[pos])
			if _, ok := srv.TamperBlock(c.user.ID(), pos, rot); !ok {
				return fmt.Errorf("chaos: tamper pos %d on server %d found no block", pos, s.Target)
			}
			c.led.tamper(s.Target, pos, rot)
		}
	case StepCheat:
		p := c.policies[s.Target]
		p.on, p.csc = true, s.CSC
	case StepShed:
		if !c.shedding[s.Target] {
			// Holding every slot of an idle gate always succeeds, and
			// without a queue each later request is refused at once: no
			// real time passes, so the run stays a function of its seed.
			for k := 0; k < admissionSlots; k++ {
				if err := c.gates[s.Target].Acquire(context.Background()); err != nil {
					return fmt.Errorf("chaos: shed %d: %w", s.Target, err)
				}
			}
			c.shedding[s.Target] = true
		}
	case StepHKill:
		c.holders[s.Target-1].SetDown(true)
	case StepHByz:
		c.holders[s.Target-1].setByzantine(true)
	case StepPlant:
		return c.applyPlant(s)
	}
	return nil
}

// endShed gives every held admission slot back at the end of its epoch.
func (c *cluster) endShed() {
	for i, held := range c.shedding {
		if held {
			for k := 0; k < admissionSlots; k++ {
				c.gates[i].Release()
			}
			c.shedding[i] = false
		}
	}
}

// applyPlant breaks an invariant on purpose. Plants are never part of
// generated schedules; they exist so the mutation self-tests can prove
// the invariant engine catches what it claims to catch.
func (c *cluster) applyPlant(s Step) error {
	srv := c.server(s.Target)
	switch s.Plant {
	case PlantFalseFlag:
		// Unregistered rot on every position: audits will accuse the
		// server, the ledger says it is honest — a false flag the engine
		// must refuse to excuse.
		for p := 0; p < c.cfg.Blocks; p++ {
			rot := xorA5(c.ds.Blocks[p])
			if _, ok := srv.TamperBlock(c.user.ID(), uint64(p), rot); !ok {
				return fmt.Errorf("chaos: plant false-flag pos %d on server %d found no block", p, s.Target)
			}
		}
	case PlantLostWrite:
		// Ack a write, then silently revert the stored bytes: the
		// durability invariant ("every acked write survives") must fire.
		content := blockBytes(fmt.Sprintf("planted-%d", s.Epoch))
		if err := c.user.UpdateBlock(c.cspClients[s.Target], 0, content, c.verifiers...); err != nil {
			return fmt.Errorf("chaos: plant lost-write ack failed: %w", err)
		}
		c.led.acked(s.Target, 0, content)
		if !c.reference {
			if _, ok := srv.TamperBlock(c.user.ID(), 0, c.ds.Blocks[0]); !ok {
				return fmt.Errorf("chaos: plant lost-write revert found no block")
			}
		}
	case PlantForgedEvidence:
		// One bit of the next evidence blob flips after signing: decode
		// or public verification must refuse it.
		c.forgeNext[s.Target] = true
	}
	return nil
}

// reapCrashes notices fired crash points: the process is dead, take it
// off the network until the next epoch boundary restarts it.
func (c *cluster) reapCrashes() {
	for i := 0; i < c.cfg.Servers; i++ {
		if c.crashers[i].Fired() && !c.crashPending[i] {
			c.crashPending[i] = true
			c.downs[i].SetDown(true)
		}
	}
}

// restartDead brings crashed servers back at the epoch boundary. A
// failed recovery (disk still sick) leaves the server down for another
// epoch; the liveness invariant has the final word.
func (c *cluster) restartDead() {
	for i := 0; i < c.cfg.Servers; i++ {
		if c.crashPending[i] {
			_ = c.restart(i) // on error crashPending stays set; retried next boundary
		}
	}
}

// runEpochs drives the whole schedule: per epoch, apply the nemesis
// steps, run the client workload, run and audit one job, run one fleet
// audit per primary, then (chaos mode) check the serving-state
// invariant. Epochs beyond ActiveEpochs are the quiet phase the liveness
// invariant measures.
func (c *cluster) runEpochs(sched Schedule) error {
	total := c.cfg.ActiveEpochs + c.cfg.QuietEpochs
	cleanup := c.cfg.ActiveEpochs + 1
	for ep := 1; ep <= total; ep++ {
		for _, p := range c.policies {
			p.reset(ep)
		}
		for _, h := range c.holders {
			h.SetDown(false)
			h.setByzantine(false)
		}
		for _, s := range sched.stepsAt(ep) {
			if err := c.applyStep(s); err != nil {
				return fmt.Errorf("chaos: epoch %d step %s: %w", ep, s, err)
			}
		}
		// Boundary restarts AFTER the steps so a cleanup-epoch diskheal
		// lands before the recovery that needs a readable disk. The
		// cleanup epoch also reboots every server whose disk was ever
		// sick: a wedged WAL (fsyncgate) stays failed by design until a
		// fresh process re-opens it, and "operator replaces the disk and
		// reboots" is the honest model of that repair.
		if !c.reference {
			if ep == cleanup {
				for i := 0; i < c.cfg.Servers; i++ {
					// The nemesis retires: leftover armed crash points must
					// not fire into the healing horizon.
					c.crashers[i].Arm(store.CrashNone)
				}
				for i := 0; i < c.cfg.Servers; i++ {
					if c.sickEver[i] && !c.crashPending[i] {
						if err := c.restart(i); err != nil {
							c.crashPending[i] = true
							c.downs[i].SetDown(true)
						}
					}
				}
			}
			c.restartDead()
		}

		// Client workload: deterministic single-replica updates. The op
		// list (targets, positions, contents, and therefore the user's
		// signing sequence numbers) is identical in the chaos run and the
		// reference replay; only the outcomes differ.
		for k := 0; k < c.cfg.OpsPerEpoch; k++ {
			v := c.opIndex % c.cfg.Servers
			pos := uint64(c.opIndex % (c.cfg.Blocks - tamperReserve))
			content := blockBytes(fmt.Sprintf("e%d-k%d", ep, k))
			err := c.user.UpdateBlock(c.cspClients[v], pos, content, c.verifiers...)
			c.opIndex++
			c.opsTotal++
			if err == nil {
				c.led.acked(v, pos, content)
			} else {
				if c.reference {
					return fmt.Errorf("chaos: reference replay op failed (epoch %d, server %d): %w", ep, v, err)
				}
				// The write may or may not have been applied (lost ack,
				// post-log crash): both contents become acceptable.
				c.led.maybe(v, pos, content)
				c.opsFailed++
				if ep == total {
					c.opsFailedFinal++
				}
			}
			if !c.reference {
				c.reapCrashes()
			}
		}

		if err := c.runJob(ep); err != nil {
			return err
		}

		// One fleet audit per primary: the tampered replica is
		// challenged directly at least once.
		for pi := 0; pi < c.cfg.Servers; pi++ {
			c.outcomes = append(c.outcomes, c.runAudit(ep, pi))
		}

		if !c.reference {
			c.checkServing(ep)
		}
		c.endShed()
	}
	return nil
}
