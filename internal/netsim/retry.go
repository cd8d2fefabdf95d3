package netsim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"seccloud/internal/wire"
)

// Error taxonomy. A failed round trip is either *transport* (the message
// may never have reached an honest peer — retry it) or *terminal* (the
// peer answered and the answer is the problem — retrying cannot help, and
// for audits the failure is evidence, not noise).

// TransportError wraps a retryable transport-layer failure: socket
// errors, timeouts, injected faults, corrupted frames.
type TransportError struct {
	// Op names the failing operation ("dial", "write", "read", …).
	Op string
	// Timeout marks deadline-induced failures.
	Timeout bool
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *TransportError) Error() string {
	return fmt.Sprintf("netsim: transport %s: %v", e.Op, e.Err)
}

// Unwrap exposes the cause.
func (e *TransportError) Unwrap() error { return e.Err }

// transportErr wraps err unless it already carries taxonomy information.
func transportErr(op string, err error) error {
	var te *TransportError
	var fe *FaultError
	if errors.As(err, &te) || errors.As(err, &fe) {
		return err
	}
	timeout := errors.Is(err, context.DeadlineExceeded)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		timeout = true
	}
	return &TransportError{Op: op, Timeout: timeout, Err: err}
}

// IsRetryable reports whether err is a transport-layer failure that a
// retry might fix. Terminal protocol errors (a decoded but invalid
// response, a refused challenge) are not retryable.
func IsRetryable(err error) bool {
	var te *TransportError
	if errors.As(err, &te) {
		return true
	}
	var fe *FaultError
	if errors.As(err, &fe) {
		return true
	}
	// Frame-level damage (truncated/corrupted bytes) means the link, not
	// the peer's logic, failed: a resend gets a fresh encoding.
	if errors.Is(err, wire.ErrCorrupt) || errors.Is(err, wire.ErrTruncated) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// IsTimeout reports whether err is a deadline-induced transport failure.
func IsTimeout(err error) bool {
	var te *TransportError
	if errors.As(err, &te) && te.Timeout {
		return true
	}
	return errors.Is(err, context.DeadlineExceeded)
}

// ExhaustedError reports that a Retrier ran out of attempts. It unwraps
// to the last attempt's error, so taxonomy checks (IsRetryable,
// IsTimeout) still classify the underlying failure.
type ExhaustedError struct {
	// Attempts is how many times the operation ran.
	Attempts int
	// BudgetDenied marks exhaustion caused by a drained RetryBudget
	// rather than by MaxAttempts: further attempts were available but the
	// shared budget refused to amplify load.
	BudgetDenied bool
	// Err is the final attempt's error.
	Err error
}

// Error implements error.
func (e *ExhaustedError) Error() string {
	if e.BudgetDenied {
		return fmt.Sprintf("netsim: retry budget drained after %d attempts: %v", e.Attempts, e.Err)
	}
	return fmt.Sprintf("netsim: %d attempts exhausted: %v", e.Attempts, e.Err)
}

// Unwrap exposes the last error.
func (e *ExhaustedError) Unwrap() error { return e.Err }

// Retrier runs an operation with capped exponential backoff and
// deterministic jitter, retrying only transport-class failures. The zero
// value is not useful; use NewRetrier or fill the fields explicitly.
type Retrier struct {
	// MaxAttempts is the total number of tries (first attempt included);
	// values < 1 mean 1.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt.
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth.
	MaxDelay time.Duration
	// Multiplier is the backoff growth factor; values < 1 mean 2.
	Multiplier float64
	// Jitter spreads each backoff by ±Jitter fraction (e.g. 0.2 → ±20%).
	Jitter float64
	// Seed drives the jitter PRNG (deterministic; 0 means seed 1).
	Seed int64
	// AttemptTimeout bounds each individual attempt's context; 0 leaves
	// the parent deadline in charge.
	AttemptTimeout time.Duration
	// Sleep waits between attempts; nil uses a real timer that honors ctx.
	// Tests inject a fake clock here — unit tests never time.Sleep.
	Sleep func(ctx context.Context, d time.Duration) error
	// OnRetry, if set, observes each scheduled retry.
	OnRetry func(attempt int, err error, backoff time.Duration)
	// Budget, if set, is consulted before every retry (never before the
	// first attempt). A drained budget stops the retry loop with a
	// budget-denied ExhaustedError even when MaxAttempts remain, and
	// successes refund it — the token bucket that keeps correlated
	// failures from multiplying offered load.
	Budget *RetryBudget

	jitterOnce sync.Once
	jitterMu   sync.Mutex
	jitterRng  *rand.Rand
}

// NewRetrier returns a Retrier with production defaults: 4 attempts,
// 50ms base backoff doubling to a 2s cap, ±20% jitter.
func NewRetrier(seed int64) *Retrier {
	return &Retrier{
		MaxAttempts: 4,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		Multiplier:  2,
		Jitter:      0.2,
		Seed:        seed,
	}
}

// WithBudget returns a copy of the retry policy drawing from budget b.
// The clone gets a fresh jitter stream (same seed) and leaves the original
// untouched, so one template Retrier can fan out per-audit budgets. The
// struct cannot be copied wholesale — it embeds a sync.Once and Mutex —
// hence the field-by-field clone.
func (r *Retrier) WithBudget(b *RetryBudget) *Retrier {
	if r == nil {
		return nil
	}
	return &Retrier{
		MaxAttempts:    r.MaxAttempts,
		BaseDelay:      r.BaseDelay,
		MaxDelay:       r.MaxDelay,
		Multiplier:     r.Multiplier,
		Jitter:         r.Jitter,
		Seed:           r.Seed,
		AttemptTimeout: r.AttemptTimeout,
		Sleep:          r.Sleep,
		OnRetry:        r.OnRetry,
		Budget:         b,
	}
}

// attempts normalizes MaxAttempts.
func (r *Retrier) attempts() int {
	if r == nil || r.MaxAttempts < 1 {
		return 1
	}
	return r.MaxAttempts
}

// backoff computes the jittered delay before attempt n+1 (n ≥ 1).
func (r *Retrier) backoff(n int) time.Duration {
	d := float64(r.BaseDelay)
	mult := r.Multiplier
	if mult < 1 {
		mult = 2
	}
	for i := 1; i < n; i++ {
		d *= mult
		if r.MaxDelay > 0 && d >= float64(r.MaxDelay) {
			d = float64(r.MaxDelay)
			break
		}
	}
	if r.MaxDelay > 0 && d > float64(r.MaxDelay) {
		d = float64(r.MaxDelay)
	}
	if r.Jitter > 0 && d > 0 {
		r.jitterOnce.Do(func() {
			seed := r.Seed
			if seed == 0 {
				seed = 1
			}
			r.jitterRng = rand.New(rand.NewSource(seed))
		})
		r.jitterMu.Lock()
		u := r.jitterRng.Float64()
		r.jitterMu.Unlock()
		d *= 1 + r.Jitter*(2*u-1)
	}
	return time.Duration(d)
}

// sleep waits d or returns early when ctx ends.
func (r *Retrier) sleep(ctx context.Context, d time.Duration) error {
	if r.Sleep != nil {
		return r.Sleep(ctx, d)
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Do runs op until it succeeds, returns a terminal error, exhausts
// MaxAttempts, or ctx ends. Exhaustion returns an *ExhaustedError
// wrapping the last transport failure.
func (r *Retrier) Do(ctx context.Context, op func(ctx context.Context) error) error {
	max := r.attempts()
	var lastErr error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return &ExhaustedError{Attempts: attempt - 1, Err: lastErr}
			}
			return transportErr("retry", err)
		}
		attemptCtx, cancel := ctx, context.CancelFunc(nil)
		if r != nil && r.AttemptTimeout > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, r.AttemptTimeout)
		}
		err := op(attemptCtx)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			if r != nil {
				r.Budget.Credit()
			}
			return nil
		}
		if !IsRetryable(err) {
			return err
		}
		lastErr = err
		if attempt >= max {
			return &ExhaustedError{Attempts: attempt, Err: lastErr}
		}
		if r != nil && !r.Budget.Take() {
			return &ExhaustedError{Attempts: attempt, BudgetDenied: true, Err: lastErr}
		}
		backoff := r.backoff(attempt)
		if r.OnRetry != nil {
			r.OnRetry(attempt, err, backoff)
		}
		if serr := r.sleep(ctx, backoff); serr != nil {
			return &ExhaustedError{Attempts: attempt, Err: lastErr}
		}
	}
}

// RoundTrip performs client.RoundTripContext under the retry policy.
func (r *Retrier) RoundTrip(ctx context.Context, client Client, m wire.Message) (wire.Message, error) {
	var resp wire.Message
	err := r.Do(ctx, func(ctx context.Context) error {
		var err error
		resp, err = client.RoundTripContext(ctx, m)
		return err
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// RetryClient decorates a Client with a Retrier so transport-oblivious
// callers (the CSP scheduler, the user upload path) transparently survive
// lossy links. Terminal errors pass through untouched.
type RetryClient struct {
	inner   Client
	retrier *Retrier
}

var _ Client = (*RetryClient)(nil)

// NewRetryClient wraps inner; a nil retrier means NewRetrier(1).
func NewRetryClient(inner Client, retrier *Retrier) *RetryClient {
	if retrier == nil {
		retrier = NewRetrier(1)
	}
	return &RetryClient{inner: inner, retrier: retrier}
}

// RoundTripContext retries inner.RoundTripContext.
func (c *RetryClient) RoundTripContext(ctx context.Context, m wire.Message) (wire.Message, error) {
	return c.retrier.RoundTrip(ctx, c.inner, m)
}

// Stats returns the inner link's counters.
func (c *RetryClient) Stats() StatsSnapshot { return c.inner.Stats() }

// Close closes the inner client.
func (c *RetryClient) Close() error { return c.inner.Close() }
