// Command perfbench is the repository benchmark. It drives one named
// workload through the layers' public functions — sim, simnet, core,
// sched, madmpi, trace, replay and queue — checks every output, and
// prints one JSON result line:
//
//	perfbench --workload ring-composite --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured on
// untraced runs as medians over warmed in-process repetitions. With
// --trace 1 it reports the per-layer metrics, measured from outside on
// traced, strategy-wrapped and plain runs of the same inputs. See
// README.md for the metrics, the workloads and the limits of
// outside-in measurement.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet accumulates named metrics with their units.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 10, "wall-clock seconds to measure for")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %v)\n", *name, workloadNames())
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	cfg := config{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), scale: fullScale}
	var res *result
	var err error
	if *traced == 1 {
		res, err = layerRun(wl, cfg)
	} else {
		res, err = endToEnd(wl, cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// config is one invocation's settings.
type config struct {
	seed   uint64
	budget time.Duration
	scale  scale
	// corrupt damages the first payload sent in every run: the
	// negative control of the checks.
	corrupt bool
	// minReps and maxReps bound the measured repetitions; zero means
	// the defaults.
	minReps, maxReps int
}

var workloads = map[string]workload{}

func register(w workload) { workloads[w.name] = w }

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
