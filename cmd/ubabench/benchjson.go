package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"

	"uba/internal/simnet"
	"uba/internal/trace"
)

// benchSizes are the system sizes the full-round micro-benchmarks
// sweep; n=256 is the size the perf acceptance gate tracks. The sizes
// past 2048 exist because of the sparse delivery path: a broadcast is
// materialized once per round in a shared block instead of once per
// receiver, so rounds stay near-linear where the dense engine was
// quadratic in both time and memory.
var benchSizes = []int{32, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}

// phaseSizes are the sizes the phase-split (step-only / route-only)
// benchmarks sweep. The split attributes round time to the half that
// spends it: step is the worker-pool dispatch + Step calls, route is
// block-sort + dedup + arena sizing + sharded delivery. n=4096 extends
// the split into the territory where the sparse delivery path carries
// the round, and is the larger of the two sizes the zero-alloc gate
// (internal/simnet alloc_gate_test.go) certifies at runtime.
var phaseSizes = []int{256, 512, 1024, 4096}

// engineBenchResult is one benchmark measurement in BENCH_simnet.json.
type engineBenchResult struct {
	// Name mirrors the `go test -bench` benchmark name.
	Name string `json:"name"`
	// Runner is the row's worker axis: "workers=1" for single-simulation
	// rows pinned to the inline cap-1 pipeline, "default" for rows at the
	// default cap (GOMAXPROCS capped at n), and "campaign" for
	// multi-simulation rows.
	Runner string `json:"runner"`
	// Phase is "step" or "route" for the phase-split benchmarks and
	// empty for full-round rows (whose names stay stable across
	// baseline generations).
	Phase string `json:"phase,omitempty"`
	// N is the system size; one op is one full round (n broadcasts,
	// n² deliveries), one phase of it, or — for campaign rows — a
	// campaignChunk-round advance of every concurrent simulation.
	N int `json:"n"`
	// Jobs is the number of concurrent simulations for campaign rows and
	// 0 for single-simulation rows.
	Jobs int `json:"jobs,omitempty"`
	// Procs is a fixed GOMAXPROCS the row was measured under, or 0 for
	// rows that use the host's setting (the file-level GOMAXPROCS).
	Procs int `json:"procs,omitempty"`
	// Plan is "idle" for rows measured with a fault plan attached but
	// never live (the plan-presence cost of a healthy round), empty for
	// plan-free rows.
	Plan string `json:"plan,omitempty"`
	// Observer is "nop" for rows measured with nopObserver attached
	// (the price of the round-boundary observer dispatch), empty for
	// unobserved rows.
	Observer    string  `json:"observer,omitempty"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// engineBenchFile is the schema of BENCH_simnet.json, the committed
// perf-trajectory baseline for the simnet round engine.
type engineBenchFile struct {
	Description string              `json:"description"`
	GoVersion   string              `json:"go_version"`
	GOMAXPROCS  int                 `json:"gomaxprocs"`
	Benchmarks  []engineBenchResult `json:"benchmarks"`
}

// benchSpec names one benchmark and knows how to run its loop body.
type benchSpec struct {
	name     string
	runner   string // worker-axis label, see engineBenchResult.Runner
	phase    string // "" for full-round specs
	n        int
	jobs     int    // concurrent simulations, 0 = single-simulation spec
	procs    int    // fixed GOMAXPROCS, 0 = host setting
	plan     string // "idle" for plan-presence rows, "" for plan-free rows
	observer string // "nop" for observed rows, "" for unobserved rows
	bench    func(b *testing.B)
}

// Worker-axis labels: cap-1 rows carry a "workers=1/" name segment;
// default-cap rows carry none.
const (
	inlineRunner  = "workers=1"
	defaultRunner = "default"
)

// runners is the worker axis every single-simulation sweep covers.
var runners = []string{inlineRunner, defaultRunner}

// runnerWorkers maps a worker-axis label to its Config.Workers value
// and its name segment.
func runnerWorkers(runner string) (workers int, segment string) {
	if runner == inlineRunner {
		return 1, inlineRunner + "/"
	}
	return 0, ""
}

// roundSpec measures full rounds (step + route) via RunRound.
func roundSpec(runner string, n int) benchSpec {
	workers, seg := runnerWorkers(runner)
	return benchSpec{
		name:   fmt.Sprintf("RoundEngine/%sn=%d", seg, n),
		runner: runner,
		n:      n,
		bench: func(b *testing.B) {
			net, _, err := simnet.NewBroadcastBench(n, b.N+2, workers)
			if err != nil {
				b.Fatal(err)
			}
			defer net.Close()
			// One warm-up round sizes the shared broadcast block and
			// scratch buffers outside the timed region, so
			// low-iteration runs measure the steady-state per-round
			// cost, not a one-time page-in.
			if err := net.RunRound(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := net.RunRound(); err != nil {
					b.Fatal(err)
				}
			}
		},
	}
}

// phaseSpec measures one half of a round in isolation via RoundPhases.
func phaseSpec(phase, runner string, n int) benchSpec {
	return planPhaseSpec(phase, runner, n, false)
}

// nopObserver implements simnet.RoundObserver, RoundStatsObserver and
// DeliveryObserver and ignores every call. It never ranges over the
// Deliveries view, so it prices the round-boundary dispatch alone —
// what every facade run pays for its always-attached complexity oracle.
type nopObserver struct{}

func (nopObserver) ObserveRound(int, []trace.Event)               {}
func (nopObserver) ObserveRoundStats(int, simnet.RoundAccounting) {}
func (nopObserver) ObserveDeliveries(int, simnet.Deliveries)      {}

// observedRouteSpec is the route-phase row with nopObserver attached: every op also runs the round-boundary dispatch — the
// Deliveries view, ObserveRound, ObserveRoundStats — that every facade
// run pays for its always-attached complexity oracle. The observer
// never ranges over the view, so paired with the unobserved row of the
// same shape the ratio is the whole price of attaching an observer
// that reads no deliveries (perf-smoke gates it; see maxObservedRatio).
func observedRouteSpec(runner string, n int) benchSpec {
	spec := phaseSpec("route", runner, n)
	spec.name += "/observed"
	spec.observer = "nop"
	workers, _ := runnerWorkers(runner)
	spec.bench = func(b *testing.B) {
		rp, err := simnet.NewRoundPhases(n, workers)
		if err != nil {
			b.Fatal(err)
		}
		defer rp.Close()
		rp.SetObserver(nopObserver{})
		rp.RouteOnly() // warm-up, as in planPhaseSpec
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rp.RouteOnly()
		}
	}
	return spec
}

// planPhaseSpec is phaseSpec with an optional idle fault plan attached:
// the plan schedules no events, so the row measures what plan
// *presence* costs the phase — the route path's fault-aware branches
// against the identical workload. Paired with the plan-free row of the
// same shape, the delta is the whole price of Config.FaultPlan on a
// healthy network (the zero-alloc gate pins its allocation half to 0).
func planPhaseSpec(phase, runner string, n int, idlePlan bool) benchSpec {
	workers, seg := runnerWorkers(runner)
	name := fmt.Sprintf("RoundEngine/%s/%sn=%d", phase, seg, n)
	var plan *simnet.FaultPlan
	planLabel := ""
	if idlePlan {
		name += "/plan=idle"
		plan = &simnet.FaultPlan{Seed: 1}
		planLabel = "idle"
	}
	return benchSpec{
		name:   name,
		runner: runner,
		phase:  phase,
		n:      n,
		plan:   planLabel,
		bench: func(b *testing.B) {
			rp, err := simnet.NewRoundPhasesPlan(n, workers, plan)
			if err != nil {
				b.Fatal(err)
			}
			defer rp.Close()
			op := func() error {
				switch phase {
				case "step":
					return rp.StepOnly()
				case "route":
					rp.RouteOnly()
					return nil
				default:
					return fmt.Errorf("unknown phase %q", phase)
				}
			}
			// Warm-up: the first route pass sizes the delivery
			// buffers; keep that outside the timed region (see
			// roundSpec).
			if err := op(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
		},
	}
}

// campaignChunk is the rounds-per-op granularity of the campaign
// benchmark, matching BenchmarkCampaign in internal/simnet so the
// committed rows and the in-package benchmark report the same op.
const campaignChunk = 4

// campaignSpec measures aggregate campaign throughput: jobs independent
// single-worker simulations of size n multiplexed over one bounded
// scheduler (simnet.CampaignBench). One op advances every simulation by
// campaignChunk rounds, so with a fixed n the jobs ladder shows how
// much concurrency the worker budget converts into throughput — and on
// a one-core budget it certifies the scheduler's admission overhead,
// since ns/op should then scale with jobs and nothing more.
func campaignSpec(jobs, n int) benchSpec {
	return benchSpec{
		name:   fmt.Sprintf("Campaign/jobs=%d/n=%d", jobs, n),
		runner: "campaign",
		n:      n,
		jobs:   jobs,
		bench: func(b *testing.B) {
			cb, err := simnet.NewCampaignBench(jobs, n)
			if err != nil {
				b.Fatal(err)
			}
			defer cb.Close()
			// Warm-up op: sizes every network's round buffers and the
			// campaign phase's completion channel (see roundSpec).
			if err := cb.RunChunk(campaignChunk); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cb.RunChunk(campaignChunk); err != nil {
					b.Fatal(err)
				}
			}
		},
	}
}

// procsSpec pins GOMAXPROCS for the duration of one spec, so the
// committed baseline carries a fixed-parallelism row that does not
// depend on the core count of whichever machine regenerated it.
func procsSpec(spec benchSpec, procs int) benchSpec {
	inner := spec.bench
	spec.name = fmt.Sprintf("%s/procs=%d", spec.name, procs)
	spec.procs = procs
	spec.bench = func(b *testing.B) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		inner(b)
	}
	return spec
}

// allSpecs is the full `make bench-json` sweep: round benchmarks over
// benchSizes, then the phase split over phaseSizes, at both worker-axis
// points (with plan=idle route rows re-measuring the zero-alloc-gate
// sizes under an attached-but-idle fault plan, and observed route rows
// at n=4096 pricing an attached no-op observer), plus a procs=1
// default-cap row at the two sizes the zero-alloc gate certifies: at
// one proc the default cap is 1, so it pins the default configuration
// of a one-core host regardless of the regenerating machine. The
// campaign matrix — jobs
// {1,2,4,8} × procs {1,4,8} at the perf-gate size — tracks how the
// shared scheduler converts worker budget into aggregate
// multi-simulation throughput.
func allSpecs() []benchSpec {
	var specs []benchSpec
	for _, runner := range runners {
		for _, n := range benchSizes {
			specs = append(specs, roundSpec(runner, n))
		}
	}
	for _, phase := range []string{"step", "route"} {
		for _, runner := range runners {
			for _, n := range phaseSizes {
				specs = append(specs, phaseSpec(phase, runner, n))
			}
		}
	}
	// Plan-presence rows: the route phase with an idle fault plan
	// attached, paired with the plan-free rows above (see planPhaseSpec).
	for _, runner := range runners {
		for _, n := range []int{1024, 4096} {
			specs = append(specs, planPhaseSpec("route", runner, n, true))
		}
	}
	for _, runner := range runners {
		specs = append(specs, observedRouteSpec(runner, 4096))
	}
	for _, n := range []int{1024, 4096} {
		specs = append(specs, procsSpec(roundSpec(defaultRunner, n), 1))
	}
	for _, jobs := range []int{1, 2, 4, 8} {
		for _, procs := range []int{1, 4, 8} {
			specs = append(specs, procsSpec(campaignSpec(jobs, 256), procs))
		}
	}
	return specs
}

// measure runs one spec under testing.Benchmark and packages the result.
func measure(spec benchSpec) (engineBenchResult, error) {
	res := testing.Benchmark(spec.bench)
	if res.N == 0 {
		return engineBenchResult{}, fmt.Errorf("benchmark %s failed", spec.name)
	}
	return engineBenchResult{
		Name:        spec.name,
		Runner:      spec.runner,
		Phase:       spec.phase,
		N:           spec.n,
		Jobs:        spec.jobs,
		Procs:       spec.procs,
		Plan:        spec.plan,
		Observer:    spec.observer,
		Iterations:  res.N,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}, nil
}

// runBenchJSON executes the round-engine benchmark sweep (every node
// broadcasts every round — the n²-deliveries-per-round load of the
// paper's protocols) and writes the results as JSON. This is the
// `make bench-json` entry point.
func runBenchJSON(outPath string, progress io.Writer) error {
	file := engineBenchFile{
		Description: "simnet round-engine micro-benchmarks (broadcast-heavy: one op = one round, n sends, n^2 deliveries; step/route rows isolate one phase; campaign rows advance `jobs` concurrent simulations by 4 rounds per op through the shared scheduler); regenerate with `make bench-json`",
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
	for _, spec := range allSpecs() {
		r, err := measure(spec)
		if err != nil {
			return err
		}
		file.Benchmarks = append(file.Benchmarks, r)
		fmt.Fprintf(progress, "%-40s %12.0f ns/op %8d allocs/op %10d B/op\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(outPath, data, 0o644)
}
