package main

import (
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name         string
		pbits, qbits int
		wantErr      string // empty = accepted
	}{
		{name: "defaults", pbits: 512, qbits: 160},
		{name: "test set", pbits: 256, qbits: 96},
		{name: "smallest", pbits: 32, qbits: 16},
		{name: "field above the limb limit", pbits: 513, qbits: 160,
			wantErr: "-pbits 513 is above the 512-bit limit"},
		{name: "field far above the limb limit", pbits: 1024, qbits: 160,
			wantErr: "above the 512-bit limit"},
		{name: "subgroup too small", pbits: 256, qbits: 8,
			wantErr: "need qbits ≥ 16"},
		{name: "no room for the cofactor", pbits: 160, qbits: 150,
			wantErr: "pbits−qbits ≥ 16"},
		{name: "negative sizes", pbits: -1, qbits: -1,
			wantErr: "need qbits ≥ 16"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.pbits, tc.qbits)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("validateFlags(%d, %d) = %v, want accepted", tc.pbits, tc.qbits, err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("validateFlags(%d, %d) = %v, want error containing %q", tc.pbits, tc.qbits, err, tc.wantErr)
			case err != nil && strings.Contains(err.Error(), "\n"):
				t.Fatalf("error is not one line: %q", err)
			}
		})
	}
}

// TestRunRefusesBeforeSearching: an oversized field fails at once, not
// after the prime search.
func TestRunRefusesBeforeSearching(t *testing.T) {
	if err := run(2048, 160); err == nil || !strings.Contains(err.Error(), "512-bit limit") {
		t.Fatalf("run(2048, 160) = %v, want the limb-limit error", err)
	}
}

// TestRunGeneratesValidParameters drives the whole search at a small size;
// run validates its output through pairing.New.
func TestRunGeneratesValidParameters(t *testing.T) {
	if err := run(64, 24); err != nil {
		t.Fatal(err)
	}
}
