package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"seccloud/internal/pairing"
)

// captureStdout runs f with os.Stdout redirected into a pipe and returns
// what it printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	rd, wr, err := os.Pipe()
	if err != nil {
		t.Fatalf("Pipe: %v", err)
	}
	out := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(rd)
		out <- b
	}()
	orig := os.Stdout
	os.Stdout = wr
	runErr := f()
	os.Stdout = orig
	_ = wr.Close()
	printed := <-out
	_ = rd.Close()
	if runErr != nil {
		t.Fatalf("experiment failed: %v", runErr)
	}
	return string(printed)
}

// TestCSVLinesCarryExperimentTag: with -csv every line an experiment
// prints, header included, is a CSV row led by that experiment's tag, so
// the output of `-exp all -csv` can be split by its first column.
func TestCSVLinesCarryExperimentTag(t *testing.T) {
	r := &runner{pp: pairing.InsecureTest256(), csv: true, iters: 1, trials: 1}
	for _, tc := range []struct {
		tag string
		run func() error
	}{
		{"fig4", r.fig4},
		{"optimalt", r.optimalT},
		{"epochs", r.epochs},
	} {
		out := captureStdout(t, tc.run)
		rows := 0
		for _, line := range strings.Split(out, "\n") {
			if line == "" {
				continue
			}
			rows++
			if !strings.HasPrefix(line, tc.tag+",") {
				t.Errorf("%s: line %q does not start with %q", tc.tag, line, tc.tag+",")
			}
		}
		if rows == 0 {
			t.Errorf("%s: printed nothing", tc.tag)
		}
	}
}
