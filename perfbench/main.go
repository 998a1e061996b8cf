// Command perfbench is the layer-ladder benchmark of the SPE stack. It runs
// one named workload from a seeded input stream through the public
// functions of the snvmm packages, checks every output against its own
// model, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// telemetry and tracing detached. With -trace 1 a separate run records
// spans around every request, replays a sample of the workload one layer
// at a time (prng, xbar, poe, core.block, core.specu, core.batch/pool,
// sim) and prints the per-layer metrics. Build and run it with run.sh:
//
//	bash perfbench/run.sh --workload p8-serial-hot --seed 7 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory the traced run writes its spans to")
	setupOnly := fs.Bool("setup-only", false, "set the workload up once, print the seconds it took and exit")
	corrupt := fs.Int("inject-corruption", 0, "self-test: corrupt every Nth read before it is checked (0 = off)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q; the workloads are:\n", *name)
		for _, w := range workloads {
			fmt.Fprintf(stderr, "  %-18s %s\n", w.name, w.why)
		}
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	if *setupOnly {
		s, err := setUp(w, *seed, newChecker(0))
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: set-up: %v\n", err)
			return 1
		}
		s.close()
		fmt.Fprintf(stdout, "%.9f\n", s.seconds)
		return 0
	}

	host := hostInfo()
	printJSONLine(stdout, "host", host)
	chk := newChecker(*corrupt)
	var metrics map[string]metric
	var err error
	if *traced == 1 {
		metrics, err = tracedRun(w, *seed, *seconds, chk, *out, stdout)
		if err == nil {
			err = checkNames(metrics, perLayer)
		}
	} else {
		metrics, err = timedRun(w, *seed, *seconds, chk, stdout)
		if err == nil {
			err = checkNames(metrics, endToEnd)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, msg := range chk.failures {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", msg)
	}
	names := make([]string, 0, len(metrics))
	for n, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is not finite\n", n)
			return 1
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "metric %-28s %.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	fmt.Fprintf(stdout, "failed_frac %.6g (%d of %d attempted)\n", chk.failedFrac(), chk.failed, chk.attempted)
	rep := report{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: metrics}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// printJSONLine prints "label: {json}" — the run's context lines that
// precede the result.
func printJSONLine(w io.Writer, label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(w, "%s: %v\n", label, err)
		return
	}
	fmt.Fprintf(w, "%s: %s\n", label, b)
}
