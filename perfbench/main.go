// Command perfbench is the repository's end-to-end benchmark. It drives
// the library's public surface — uba.Consensus, the uba.OrderingCluster
// handle and chaos.RunCampaign — in a timed closed loop, checks every
// result, and prints the end-to-end metrics. With -trace 1 it instead
// rebuilds each workload from the layers' public constructors, times the
// calls into each layer from outside, verifies that the rebuilt run
// reproduces the facade's run exactly, and prints the per-layer split.
//
// Usage (from the repository root; run.py builds and runs this):
//
//	python3 perfbench/run.py --workload consensus-n128 --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md beside this file
// documents the workloads, every metric and the layer table.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// defaultSeed is the workload seed used when -seed is not given. Gain
// claims are re-checked on heldOutSeed, which no tuning run uses.
const (
	defaultSeed = 1
	heldOutSeed = 9001
)

// sizes fixes the shape of every workload. The benchmark runs at
// fullSizes; the smoke test runs the same code at tiny sizes.
type sizes struct {
	consensusG, consensusF int // uba.Consensus correct / Byzantine nodes
	orderingG, orderingF   int // OrderingCluster founders / silent Byzantine founders
	sessionOps             int // ordering ops per cluster session
	joinEvery, leaveAfter  int // ordering churn: a Join every joinEvery ops, its Leave leaveAfter ops later
	campaignSeeds          int // RunCampaign seeds per arena
	campaignRounds         int // RunCampaign MaxRounds per cell
	setupReps              int // set-ups per run; setup_s is their median
}

var fullSizes = sizes{
	consensusG: 86, consensusF: 42,
	orderingG: 22, orderingF: 10,
	sessionOps: 400, joinEvery: 40, leaveAfter: 20,
	campaignSeeds: 8, campaignRounds: 400,
	setupReps: 3,
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	jobs     int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the arguments, runs the benchmark and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := bench(opts, fullSizes, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintln(stderr, "perfbench: FAILED", f)
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts options
	var trace int
	fs.StringVar(&opts.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	fs.Int64Var(&opts.seed, "seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed for gain claims: %d)", heldOutSeed))
	fs.Float64Var(&opts.seconds, "seconds", 15, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from the traced replicas")
	fs.IntVar(&opts.jobs, "jobs", 0, "campaign jobs (0 = nproc); more than nproc is refused")
	if err := fs.Parse(args); err != nil {
		return opts, err
	}
	if fs.NArg() > 0 {
		return opts, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if findWorkload(opts.workload) == nil {
		return opts, fmt.Errorf("unknown workload %q (want one of %v)", opts.workload, workloadNames())
	}
	if trace != 0 && trace != 1 {
		return opts, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	opts.trace = trace == 1
	if opts.seconds < 0 {
		return opts, fmt.Errorf("-seconds must be non-negative, got %g", opts.seconds)
	}
	return opts, nil
}

// checkJobs resolves the campaign job count: 0 means nproc, and more
// jobs than the host has cores is refused, so no result is ever recorded
// on an oversubscribed host.
func checkJobs(jobs int) (int, error) {
	nproc := runtime.NumCPU()
	switch {
	case jobs == 0:
		return nproc, nil
	case jobs < 0 || jobs > nproc:
		return 0, fmt.Errorf("-jobs %d outside [1, nproc=%d]", jobs, nproc)
	}
	return jobs, nil
}

// metric is one reported number.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int // how many measurements the value summarizes
}

// result is what one run measured.
type result struct {
	metrics   []metric
	attempted int
	failures  []string // one labelled line per failed op
}

// bench runs one workload in the mode opts selects.
func bench(opts options, sz sizes, log io.Writer) (*result, error) {
	jobs, err := checkJobs(opts.jobs)
	if err != nil {
		return nil, err
	}
	opts.jobs = jobs
	printMeta(log, opts)
	if opts.trace {
		return measureLayers(opts, sz)
	}
	return measureEndToEnd(opts, sz)
}

// printMeta records the host and configuration every result belongs to.
func printMeta(w io.Writer, opts options) {
	meta := map[string]any{
		"workload":   opts.workload,
		"seed":       opts.seed,
		"seconds":    opts.seconds,
		"trace":      opts.trace,
		"jobs":       opts.jobs,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
	b, _ := json.Marshal(map[string]any{"meta": meta})
	fmt.Fprintln(w, string(b))
}

// printResult writes a readable table (with sample counts) and then the
// result object as the last line.
func printResult(w io.Writer, res *result) error {
	if len(res.metrics) == 0 {
		return errors.New("no metrics measured")
	}
	for _, m := range res.metrics {
		fmt.Fprintf(w, "%-32s %16.6g %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   len(res.failures) == 0,
		Attempted: res.attempted,
		Failed:    len(res.failures),
		Metrics:   map[string]value{},
	}
	for _, m := range res.metrics {
		out.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
