// Command bench is the repository's one end-to-end benchmark. It hosts the
// listener cmd/seccloudd runs (daemon.Listen on 127.0.0.1:0, plaintext —
// host loopback, not a real link) in this process, drives it through
// daemon.NewTCPTransport(...).Dial with the public core.User and
// core.Agency calls from two closed-loop client goroutines, and prints
// every metric by name with its unit.
//
//	go run -C bench . -workload <name> -seed <n> -seconds <s> -trace <0|1>
//	go run -C bench . -aa [-seed <n>] [-seconds <s>]
//
// The package is a module of its own (go.mod here takes the repository
// from the directory above), so it runs from its own directory.
//
// With -trace 0 the end-to-end metrics are measured with no tracing code
// on the path; -trace 1 reruns the workload with one client under the
// harness's own span decorators and reports the per-layer metrics. The
// last line of standard output is one JSON object with the result. See
// README.md in this directory for the workloads, the metrics and how they
// are expected to move each other.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "seed for identities, datasets, jobs and every audit's challenge RNG")
		seconds  = flag.Int("seconds", 15, "seconds of measurement per run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
		aa       = flag.Bool("aa", false, "run every workload three times a side on this build and hold the medians to the bounds in BENCHMARK.json")
		outDir   = flag.String("out", "out", "directory for WAL scratch and span files")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	if *aa {
		return runAA(*seed, *seconds, *outDir)
	}
	h := newHarness(*outDir)
	sp, err := specByName(*workload)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v (have: %s)\n", err, strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := h.runOne(sp, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
		return 1
	}
	if err := printResult(res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
		return 1
	}
	if !res.correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

func (h *harness) runOne(sp *spec, seed int64, seconds int, traced bool) (*result, error) {
	line := envLine(sp)
	fmt.Printf("env: %s\n", line)
	fmt.Printf("workload: %s seed=%d seconds=%d trace=%v clients=2 (closed loop)\n", sp.name, seed, seconds, traced)
	total := time.Duration(seconds) * time.Second
	if traced {
		return h.runTraced(sp, seed, total, line)
	}
	return h.runWorkload(sp, seed, total)
}

// envLine is the run environment every output carries.
func envLine(sp *spec) string {
	return fmt.Sprintf("git=%s %s nproc=%d GOMAXPROCS=%d params=%s loopback, plaintext, server in-process",
		gitSHA(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), sp.params)
}

// gitSHA finds the commit this binary was built from: the build's VCS
// stamp when there is one, else the checkout's HEAD, else "unknown" (the
// benchmark also runs from plain source trees).
func gitSHA() string {
	gitDir := filepath.Join("..", ".git") // the program runs from bench/
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		data, err := os.ReadFile(filepath.Join(gitDir, name))
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(data))
	}
	return ref
}

// printResult prints the check notes, every metric by name with its unit
// and sample count, and the result object as the last line.
func printResult(res *result) error {
	for _, n := range res.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(res.metrics))
	for name := range res.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.metrics[name]
		fmt.Printf("metric %-40s %16.6f %-6s n=%d\n", name, m.Value, m.Unit, m.n)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, res.metrics}
	data, err := json.Marshal(out)
	if err != nil {
		// A NaN reached a metric: a measurement is missing.
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Println(string(data))
	return nil
}
