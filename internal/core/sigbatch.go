package core

import (
	"context"

	"seccloud/internal/dvs"
)

// sigCheck is one pending block-signature verification: the designated
// signature des must verify over msg, and a failure is attributed to the
// sampled index. Both challenge kinds assemble their signature work into
// this one shape so the batch-versus-individual decision lives in exactly
// one place, whether the engine settles it or the scheduler flushes it.
type sigCheck struct {
	index uint64
	msg   []byte
	des   *dvs.Designated
}

// verifySigBatch verifies the pending checks and returns one error slot
// per check, aligned with the input (nil = verified). With batched set, it
// first runs the §VI randomized aggregate equation — one pairing for the
// whole set — and only on aggregate failure falls back to individual
// verification to attribute blame (the error-locating idea of the paper's
// reference [10]). The individual pass fans out across the pool; results
// land in their own slots, so output order is independent of scheduling.
// ctx aborts the individual fan-out; audit deadlines deliberately do NOT
// reach here (see auditRun.settle) — answered rounds always verify in full.
//
// The second return reports whether the per-item fallback ran — callers
// attributing blame across tenants (and the scheduler's fallback counter)
// use it to distinguish "aggregate passed" from "every item re-verified".
//
// In threshold mode the same decision procedure runs through a t-of-n
// quorum of share-holders (see threshold.go): avoid deprioritizes
// share-holders a resumed audit already saw fail, trail (may be nil)
// records the quorum story, and the third return is a TERMINAL error —
// quorum unavailable aborts the audit without a verdict, it never
// attributes per-item blame. Non-threshold verification never errors.
func (a *Agency) verifySigBatch(
	ctx context.Context, checks []sigCheck, batched bool, p *pool,
	avoid []int, trail *ThresholdTrail,
) ([]error, bool, error) {
	if a.thr != nil {
		if trail == nil {
			trail = &ThresholdTrail{}
		}
		return a.verifySigBatchThreshold(ctx, checks, batched, avoid, trail)
	}
	errs := make([]error, len(checks))
	if len(checks) == 0 {
		return errs, false, nil
	}
	if batched {
		batch := make([]dvs.BatchItem, len(checks))
		for i, sc := range checks {
			batch[i] = dvs.NewBatchItem(sc.msg, sc.des)
		}
		if a.scheme.BatchVerifyRandomized(batch, a.key, a.random) == nil {
			return errs, false, nil
		}
	}
	p.forEach(ctx, len(checks), func(i int) {
		errs[i] = a.scheme.Verify(checks[i].des, checks[i].msg, a.key)
	})
	return errs, batched, nil
}
