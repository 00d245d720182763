package simnet

import (
	"fmt"
	"testing"
)

// benchNs are the system sizes the full-round benchmarks sweep. The
// paper's protocols are Ω(n²)-message by design, so the top sizes are
// where the route/delivery half dominates and the sharded engine earns
// its keep.
var benchNs = []int{32, 128, 256, 512, 1024, 2048}

// phaseNs are the sizes the step-vs-route phase-split benchmarks sweep
// (n=256 is the size the CI perf smoke tracks).
var phaseNs = []int{256, 512, 1024}

// workerCaps is the worker axis every round benchmark sweeps: the
// inline cap-1 pipeline ("workers=1/…") and the default cap, GOMAXPROCS
// capped at the live process count (no prefix). BENCH_simnet.json rows
// carry the same labels.
var workerCaps = []struct {
	prefix  string
	workers int
}{{"workers=1/", 1}, {"", 0}}

// BenchmarkRoundEngine is the canonical broadcast-heavy hot-path bench:
// every node broadcasts every round, so one op is one round with n sends
// and n² deliveries through dedup, routing, and traffic accounting, at
// each worker cap. `make bench-json` runs the same workload via
// cmd/ubabench and records the trajectory in BENCH_simnet.json.
func BenchmarkRoundEngine(b *testing.B) {
	for _, wc := range workerCaps {
		for _, n := range benchNs {
			b.Run(fmt.Sprintf("%sn=%d", wc.prefix, n), func(b *testing.B) {
				benchRounds(b, n, wc.workers)
			})
		}
	}
}

// BenchmarkRoundEngineSparse is the scaling showcase for the shared
// broadcast block: broadcast-heavy rounds at sizes where the former
// per-receiver materialization (n² Received values per round) was
// prohibitive. One op is still one full round — n sends, n² logical
// deliveries — but materialized storage is O(n), so the top sizes run
// in near-linear time. `make bench-sparse` runs this subset under a
// wall-clock budget and CI uploads the output as an artifact.
func BenchmarkRoundEngineSparse(b *testing.B) {
	for _, wc := range workerCaps {
		for _, n := range []int{4096, 8192} {
			b.Run(fmt.Sprintf("%sn=%d", wc.prefix, n), func(b *testing.B) {
				benchRounds(b, n, wc.workers)
			})
		}
	}
}

func benchRounds(b *testing.B, n, workers int) {
	net, _, err := NewBroadcastBench(n, b.N+2, workers)
	if err != nil {
		b.Fatal(err)
	}
	defer net.Close()
	// One warm-up round sizes the shared broadcast block, the unicast
	// arena, and the per-sender scratch outside the timed region, so
	// low-iteration runs measure the steady-state per-round cost, not a
	// one-time page-in.
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
}

// BenchmarkStepPhase measures only the step half of a round (process
// state machines plus the node-order merge), isolating it from routing.
func BenchmarkStepPhase(b *testing.B) {
	benchPhase(b, (*RoundPhases).StepOnly)
}

// BenchmarkRoutePhase measures only the routing/delivery half: block
// sort, dedup, arena sizing, sharded fan-out, accounting.
func BenchmarkRoutePhase(b *testing.B) {
	benchPhase(b, func(rp *RoundPhases) error { rp.RouteOnly(); return nil })
}

// campaignChunk is how many rounds each simulation advances per
// campaign benchmark op: enough that dispatch cost amortizes the way it
// does in a real campaign cell, small enough that one op stays cheap.
const campaignChunk = 4

// BenchmarkCampaign measures aggregate campaign throughput: jobs
// independent single-worker simulations multiplexed over one bounded
// scheduler. One op advances every simulation by campaignChunk rounds,
// so rows with the same n are directly comparable — jobs× the rounds
// for (ideally) the same wall time, up to the worker budget. `make
// bench-json` records the jobs × GOMAXPROCS matrix in BENCH_simnet.json.
func BenchmarkCampaign(b *testing.B) {
	for _, jobs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("jobs=%d/n=256", jobs), func(b *testing.B) {
			cb, err := NewCampaignBench(jobs, 256)
			if err != nil {
				b.Fatal(err)
			}
			defer cb.Close()
			// Warm-up op: sizes every network's round buffers and the
			// campaign phase's completion channel (see benchRounds).
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
		})
	}
}

func benchPhase(b *testing.B, op func(*RoundPhases) error) {
	for _, wc := range workerCaps {
		for _, n := range phaseNs {
			b.Run(fmt.Sprintf("%sn=%d", wc.prefix, n), func(b *testing.B) {
				benchPhaseAt(b, n, wc.workers, op)
			})
		}
	}
}

func benchPhaseAt(b *testing.B, n, workers int, op func(*RoundPhases) error) {
	rp, err := NewRoundPhases(n, workers)
	if err != nil {
		b.Fatal(err)
	}
	defer rp.Close()
	// Warm-up: the first route pass sizes the delivery buffers; keep
	// that outside the timed region (see benchRounds).
	if err := op(rp); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(rp); err != nil {
			b.Fatal(err)
		}
	}
}
