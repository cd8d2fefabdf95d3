package chaos

import (
	"fmt"
	"math/rand"

	"seccloud/internal/core"
)

// Mobile is the paper's mobile adversary (§III-B, following HAIL [17]),
// "our adversary controls at most b servers for any given epoch", as an
// explicit schedule: in each of epochs 1..epochs it corrupts b of the n
// servers, drawn afresh from seed, and each corrupted server computes
// only a csc fraction of its sub-tasks, guessing the rest. Run replays it
// against a fleet of n and reports job detections and exposure.
func Mobile(seed int64, n, b, epochs int, csc float64) (Schedule, error) {
	if b < 0 || b >= n {
		return nil, fmt.Errorf("chaos: need 0 ≤ b < n, got b=%d n=%d", b, n)
	}
	if epochs < 1 {
		return nil, fmt.Errorf("chaos: need ≥ 1 epoch, got %d", epochs)
	}
	if csc < 0 || csc > 1 {
		return nil, fmt.Errorf("chaos: cheater CSC %v outside [0,1]", csc)
	}
	rng := rand.New(rand.NewSource(seed))
	var sched Schedule
	for ep := 1; ep <= epochs; ep++ {
		for _, i := range core.SampleIndices(rng, n, b) {
			sched = append(sched, Step{Epoch: ep, Kind: StepCheat, Target: int(i), CSC: csc})
		}
	}
	return sched, nil
}
