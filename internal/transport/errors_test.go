package transport

import (
	"context"
	"errors"
	"os"
	"testing"
)

// TestWrapClassifies: Wrap marks deadlines and socket timeouts as
// timeouts, leaves other failures retryable but not timeouts, and passes
// an error that already carries taxonomy information through unchanged.
func TestWrapClassifies(t *testing.T) {
	fault := &FaultError{Kind: FaultDrop, Op: "request"}
	cases := []struct {
		name    string
		err     error
		timeout bool
	}{
		{"deadline", context.DeadlineExceeded, true},
		{"socket deadline", os.ErrDeadlineExceeded, true},
		{"cancel", context.Canceled, false},
		{"reset", errors.New("connection reset by peer"), false},
	}
	for _, tc := range cases {
		err := Wrap("read", tc.err)
		var te *TransportError
		if !errors.As(err, &te) || te.Op != "read" || !errors.Is(err, tc.err) {
			t.Fatalf("%s: Wrap = %#v, want a read TransportError around the cause", tc.name, err)
		}
		if !IsRetryable(err) || IsTimeout(err) != tc.timeout {
			t.Fatalf("%s: retryable=%t timeout=%t, want true/%t", tc.name, IsRetryable(err), IsTimeout(err), tc.timeout)
		}
	}
	if got := Wrap("read", fault); got != error(fault) {
		t.Fatalf("Wrap re-wrapped a FaultError: %v", got)
	}
	if te := (&TransportError{Op: "dial", Err: fault}); Wrap("read", te) != error(te) {
		t.Fatal("Wrap re-wrapped a TransportError")
	}
}
