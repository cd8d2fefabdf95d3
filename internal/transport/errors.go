package transport

import (
	"context"
	"errors"
	"fmt"
	"net"

	"seccloud/internal/wire"
)

// Error taxonomy. A failed round trip is either *transport* (the message
// may never have reached an honest peer — retry it) or *terminal* (the
// peer answered and the answer is the problem — retrying cannot help, and
// for audits the failure is evidence, not noise).
//
// The messages keep the "netsim:" prefix they had when this taxonomy
// lived in the simulator package: audit failure details quote them, and
// the recorded golden evidence and chaos output pin that text.

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

// Wrap classifies err as a transport failure of op, timeout-marked when
// it is a deadline or reports Timeout() (a socket deadline); an error
// that already carries taxonomy information is returned as it is.
func Wrap(op string, err error) error {
	var te *TransportError
	var fe *FaultError
	if errors.As(err, &te) || errors.As(err, &fe) {
		return err
	}
	timeout := errors.Is(err, context.DeadlineExceeded)
	var to interface{ Timeout() bool }
	if errors.As(err, &to) && to.Timeout() {
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

// FaultKind labels one network fault, injected by the simulator or met
// on a real link.
type FaultKind int

// The injectable fault classes.
const (
	// FaultDrop loses the message entirely (the peer never sees it).
	FaultDrop FaultKind = iota + 1
	// FaultDelay adds extra latency to the message.
	FaultDelay
	// FaultDuplicate delivers the message twice (a retransmit the peer
	// cannot distinguish from a fresh request).
	FaultDuplicate
	// FaultCorrupt flips bytes in the encoded frame.
	FaultCorrupt
	// FaultDisconnect tears the connection down mid-exchange.
	FaultDisconnect
	// FaultPartition blocks the message at a network partition: the two
	// endpoints are in groups that currently cannot reach each other in
	// this direction (partitions are directional; see Partition).
	FaultPartition
)

// String renders the fault class.
func (k FaultKind) String() string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultDuplicate:
		return "duplicate"
	case FaultCorrupt:
		return "corrupt"
	case FaultDisconnect:
		return "disconnect"
	case FaultPartition:
		return "partition"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// FaultError reports a round trip lost to an injected (or real) network
// fault. It is retryable: the failure says nothing about the peer's
// honesty, only about the link.
type FaultError struct {
	// Kind is the fault class.
	Kind FaultKind
	// Op names the message leg ("request", "response", …).
	Op string
	// Err is the underlying error, if the fault surfaced through one.
	Err error
}

// Error implements error.
func (e *FaultError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("netsim: %s fault on %s: %v", e.Kind, e.Op, e.Err)
	}
	return fmt.Sprintf("netsim: %s fault on %s", e.Kind, e.Op)
}

// Unwrap exposes the underlying error.
func (e *FaultError) Unwrap() error { return e.Err }
