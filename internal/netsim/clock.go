package netsim

import (
	"sync/atomic"
	"time"
)

// Clock is a wall clock with injectable, bounded skew — the nemesis's
// handle on a node's notion of "now". Production code should take a
// `func() time.Time` and be handed a Clock's Now, which reads the real
// clock plus the currently configured offset; with zero skew it is
// exactly time.Now. Skew is atomic, so the nemesis can slew a node
// mid-operation without synchronizing with it.
type Clock struct {
	skew atomic.Int64 // nanoseconds added to the real clock
}

// NewClock returns an unskewed clock.
func NewClock() *Clock { return &Clock{} }

// Now returns the skewed current time.
func (c *Clock) Now() time.Time {
	if c == nil {
		return time.Now()
	}
	return time.Now().Add(time.Duration(c.skew.Load()))
}

// SetSkew sets the clock's offset from real time (positive = fast).
func (c *Clock) SetSkew(d time.Duration) { c.skew.Store(int64(d)) }
