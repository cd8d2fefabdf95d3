// Package kattest holds the known-answer-vector harness the ff, curve and
// pairing tests share: a JSON file of (operation, inputs, outputs) records,
// recomputed from the stored inputs and compared on every run.
//
// The vectors under those packages' testdata/ were generated from the
// math/big implementation that preceded the Montgomery-limb kernels and are
// the oracle the rewrite is held to. Every recorded value is a function of
// canonical field elements, so -update-kat is for adding vectors, never for
// accepting a changed output.
package kattest

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update-kat", false, "rewrite the known-answer file from the current implementation")

// Case is one vector. Set names the parameter set or modulus, In and Out
// are operation-specific strings (hexadecimal integers or encodings).
type Case struct {
	Op  string   `json:"op"`
	Set string   `json:"set"`
	In  []string `json:"in"`
	Out []string `json:"out"`
}

// Check recomputes every vector in path with eval and fails on the first
// output that differs. With -update-kat it first rewrites path from the
// inputs gen draws.
func Check(t *testing.T, path string, gen func() []Case, eval func(Case) []string) {
	t.Helper()
	if *update {
		write(t, path, gen(), eval)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cases []Case
	if err := json.Unmarshal(data, &cases); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(cases) == 0 {
		t.Fatalf("%s holds no vectors", path)
	}
	for i, kc := range cases {
		if got := eval(kc); !reflect.DeepEqual(got, kc.Out) {
			t.Fatalf("%s vector %d (%s on %s, in %v):\n got %v\nwant %v", path, i, kc.Op, kc.Set, kc.In, got, kc.Out)
		}
	}
}

// write stores one vector per line, so a diff of the file names the vector.
func write(t *testing.T, path string, cases []Case, eval func(Case) []string) {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i := range cases {
		cases[i].Out = eval(cases[i])
		line, err := json.Marshal(cases[i])
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		if i < len(cases)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
