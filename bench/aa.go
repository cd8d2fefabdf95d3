package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// manifest is the part of BENCHMARK.json the harness itself reads: the
// bounds and directions the A/A comparison is held to live there and
// nowhere else.
type manifest struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &m, nil
}

// aaRuns is how many runs of each workload make one side of the A/A
// comparison. One is not enough on a shared machine: single runs of one
// build differ by more than a quarter on some timings.
const aaRuns = 3

// runAA runs every workload aaRuns times for each of two sides on this
// build, alternating the sides so that a drift of the machine falls on
// both, and fails if the medians of any end-to-end metric are further
// apart than its bound: identical code must agree with itself before a
// difference between two commits can mean anything. Every run is a
// process of its own, as the driver's are, so that peak memory and heap
// state start fresh.
func runAA(seed int64, seconds int, outDir string) int {
	mf, err := readManifest(filepath.Join("..", "BENCHMARK.json")) // the program runs from bench/
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: -aa needs the bounds in BENCHMARK.json: %v\n", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: -aa: %v\n", err)
		return 1
	}
	// values[side][workload][metric] are the runs' readings.
	var values [2]map[string]map[string][]float64
	for side := range values {
		values[side] = make(map[string]map[string][]float64)
	}
	for rep := 0; rep < aaRuns; rep++ {
		for side := range values {
			for _, sp := range specs {
				cmd := exec.Command(exe, "-workload", sp.name, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", strconv.Itoa(seconds), "-trace", "0", "-out", outDir)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s (side %d, run %d): %v\n%s", sp.name, side+1, rep+1, err, out)
					return 1
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var res struct {
					Correct bool              `json:"correct"`
					Metrics map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: %s (side %d, run %d): no correct result: %v\n", sp.name, side+1, rep+1, err)
					return 1
				}
				if values[side][sp.name] == nil {
					values[side][sp.name] = make(map[string][]float64)
				}
				for name, m := range res.Metrics {
					values[side][sp.name][name] = append(values[side][sp.name][name], m.Value)
				}
				fmt.Printf("side %d run %d %s: done\n", side+1, rep+1, sp.name)
			}
		}
	}
	ok := true
	fmt.Printf("\nmedians of %d runs a side, seed %d, %d s\n", aaRuns, seed, seconds)
	fmt.Printf("%-26s %-26s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "ratio", "bound")
	for _, sp := range specs {
		for _, m := range mf.EndToEnd {
			a, b := median(values[0][sp.name][m.Name]), median(values[1][sp.name][m.Name])
			verdict := ""
			if r := b / a; r > 1+m.Bound || r < 1-m.Bound {
				verdict = "  OUT OF BOUND"
				ok = false
			}
			fmt.Printf("%-26s %-26s %14.4f %14.4f %8.4f %6.1f%%%s\n", sp.name, m.Name, a, b, b/a, 100*m.Bound, verdict)
		}
	}
	if !ok {
		fmt.Println("A/A: FAILED — the same build disagrees with itself by more than a bound")
		return 1
	}
	fmt.Println("A/A: every end-to-end metric within its bound")
	return 0
}
