package transport

import (
	"sync"

	"seccloud/internal/obs"
)

// RetryBudget is a token bucket shared by every Retrier working on one
// audit (or one client): each retry spends a token, each success refunds
// a fraction of one. When the bucket is empty further
// retries are denied, so a correlated failure — a dead replica, an
// overloaded fleet — cannot multiply offered load by MaxAttempts. The
// well-known shape: a 10% refund ratio caps steady-state retry traffic
// at ~10% of successes no matter how many callers share the bucket.
//
// Safe for concurrent use. A nil *RetryBudget never denies, so callers
// can thread an optional budget without nil checks.
type RetryBudget struct {
	mu       sync.Mutex
	tokens   float64
	capacity float64
	ratio    float64
	denied   uint64
	spent    uint64

	obsDenied *obs.Counter
}

// NewRetryBudget returns a bucket holding capacity tokens (minimum 1),
// refunding ratio tokens per success. A ratio of 0.1 is the conventional
// choice.
func NewRetryBudget(capacity, ratio float64) *RetryBudget {
	if capacity < 1 {
		capacity = 1
	}
	if ratio < 0 {
		ratio = 0
	}
	return &RetryBudget{tokens: capacity, capacity: capacity, ratio: ratio}
}

// WithObs counts denials into retry_budget_denied_total on h and returns
// b; a nil hub is a no-op.
func (b *RetryBudget) WithObs(h *obs.Hub) *RetryBudget {
	if h == nil || b == nil {
		return b
	}
	b.obsDenied = h.Counter("retry_budget_denied_total").With()
	return b
}

// Take spends one token; false means the budget is drained and the retry
// must not happen.
func (b *RetryBudget) Take() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	if b.tokens < 1 {
		b.denied++
		b.mu.Unlock()
		if b.obsDenied != nil {
			b.obsDenied.Inc()
		}
		return false
	}
	b.tokens--
	b.spent++
	b.mu.Unlock()
	return true
}

// Credit refunds the success fraction, capped at capacity.
func (b *RetryBudget) Credit() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > b.capacity {
		b.tokens = b.capacity
	}
	b.mu.Unlock()
}

// Denied returns how many retries the budget has refused so far.
func (b *RetryBudget) Denied() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.denied
}

// Spent returns how many retry tokens have been consumed.
func (b *RetryBudget) Spent() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.spent
}
