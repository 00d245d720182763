package uba_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"uba"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/trace"
	"uba/internal/wire"
)

// runnerOutcome captures everything observable about one protocol run:
// the message-level transcript, the traffic report, and the protocol's
// own result. Every worker cap must reproduce all three byte-for-byte
// from the inline cap-1 pipeline — this is the guard on the sharded
// dispatch and digest-dedup paths of the round engine.
type runnerOutcome struct {
	events []trace.Event
	report trace.Report
	result any
}

// facadeCaps is the worker-cap sweep of the facade-level equivalence
// tests: the facade has no runner setting, so each run sets GOMAXPROCS,
// which with at least seven live nodes is exactly the network's default
// cap. The first entry is the inline baseline.
var facadeCaps = []int{1, 2, 3, 5}

// atProcs runs f with GOMAXPROCS set to procs. It changes process-wide
// state, so its callers must not be parallel tests.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

func runOnce(t *testing.T, protocol string, adv uba.Adversary, procs int) (out runnerOutcome) {
	t.Helper()
	atProcs(procs, func() { out = runFacade(t, protocol, adv) })
	return out
}

func runFacade(t *testing.T, protocol string, adv uba.Adversary) runnerOutcome {
	t.Helper()
	procs := runtime.GOMAXPROCS(0)
	log := trace.NewEventLog(500_000)
	cfg := uba.Config{
		Correct:   7,
		Byzantine: 2,
		Adversary: adv,
		Seed:      42,
		EventLog:  log,
	}
	var result any
	var report trace.Report
	switch protocol {
	case "consensus":
		inputs := []float64{0, 1, 0, 1, 0, 1, 0}
		res, err := uba.Consensus(cfg, inputs)
		if err != nil {
			t.Fatalf("%s/%s procs=%d: %v", protocol, adv, procs, err)
		}
		report = res.Report
		res.Report = trace.Report{}
		result = *res
	case "broadcast":
		res, err := uba.ReliableBroadcast(cfg, []byte("equivalence-body"), 10)
		if err != nil {
			t.Fatalf("%s/%s procs=%d: %v", protocol, adv, procs, err)
		}
		report = res.Report
		res.Report = trace.Report{}
		result = *res
	case "rotor":
		res, err := uba.Rotor(cfg)
		if err != nil {
			t.Fatalf("%s/%s procs=%d: %v", protocol, adv, procs, err)
		}
		report = res.Report
		res.Report = trace.Report{}
		result = *res
	default:
		t.Fatalf("unknown protocol %q", protocol)
	}
	if log.Dropped() > 0 {
		t.Fatalf("%s/%s procs=%d: transcript truncated (%d dropped)",
			protocol, adv, procs, log.Dropped())
	}
	return runnerOutcome{events: log.Events(), report: report, result: result}
}

// TestRunnerEquivalenceAcrossAdversaries runs every adversary strategy
// against consensus, reliable broadcast, and the rotor-coordinator at
// worker caps {1, 2, 3, 5} with a shared seed and asserts byte-identical
// transcripts (every delivery: round, from, to, kind, size, broadcast
// flag, in order), identical Report totals and per-round breakdowns, and
// identical protocol results. The top cap is run twice so a
// worker-scheduling dependence — which could agree with the inline run
// on one lucky schedule — fails the matrix directly. The engine-level
// matrix with forced multi-worker shard counts lives in
// internal/simnet/determinism_test.go. Caps are set through GOMAXPROCS,
// so neither the test nor its subtests run in parallel.
func TestRunnerEquivalenceAcrossAdversaries(t *testing.T) {
	adversaries := []uba.Adversary{
		uba.AdversaryNone, uba.AdversarySilent, uba.AdversaryCrash,
		uba.AdversarySplit, uba.AdversaryGhost, uba.AdversaryNoise,
	}
	for _, protocol := range []string{"consensus", "broadcast", "rotor"} {
		for _, adv := range adversaries {
			t.Run(fmt.Sprintf("%s/%s", protocol, adv), func(t *testing.T) {
				base := runOnce(t, protocol, adv, facadeCaps[0])
				if len(base.events) == 0 {
					t.Fatal("inline run recorded no deliveries; transcript comparison is vacuous")
				}
				sweep := append(slices.Clone(facadeCaps[1:]), facadeCaps[len(facadeCaps)-1])
				for _, procs := range sweep {
					got := runOnce(t, protocol, adv, procs)
					label := fmt.Sprintf("procs=%d", procs)
					if !slices.Equal(base.events, got.events) {
						i := 0
						for i < len(base.events) && i < len(got.events) && base.events[i] == got.events[i] {
							i++
						}
						t.Fatalf("%s: transcripts diverge at event %d of %d/%d:\n  inline: %+v\n  pooled: %+v",
							label, i, len(base.events), len(got.events), at(base.events, i), at(got.events, i))
					}
					if !reflect.DeepEqual(base.report, got.report) {
						t.Fatalf("%s: reports differ:\n  inline: %v\n  pooled: %v", label, base.report, got.report)
					}
					if !reflect.DeepEqual(base.result, got.result) {
						t.Fatalf("%s: protocol results differ:\n  inline: %+v\n  pooled: %+v",
							label, base.result, got.result)
					}
				}
			})
		}
	}
}

func at(events []trace.Event, i int) any {
	if i < len(events) {
		return events[i]
	}
	return "<past end>"
}

// crashingChatter is a chatter process whose Step panics in a chosen
// round, after queueing a send the containment layer must discard.
type crashingChatter struct {
	simnet.ChatterProcess
	Round int
}

func (c *crashingChatter) Step(env *simnet.RoundEnv) {
	if env.Round == c.Round {
		env.Broadcast(wire.Event{Round: uint64(env.Round), Body: []byte("boom")})
		panic("injected crash")
	}
	c.ChatterProcess.Step(env)
}

// runCrashWorkload runs twelve chatter processes, four of which panic in
// staggered rounds, at the given worker cap (1 = inline), and returns
// the transcript and crash records.
func runCrashWorkload(t *testing.T, workers int) ([]trace.Event, []simnet.CrashRecord) {
	t.Helper()
	log := trace.NewEventLog(500_000)
	net := simnet.New(simnet.Config{
		MaxRounds: 20,
		EventLog:  log,
		Workers:   workers,
	})
	defer net.Close()
	rng := rand.New(rand.NewSource(7))
	nodeIDs := ids.Sparse(rng, 12)
	for i, id := range nodeIDs {
		var p simnet.Process = &simnet.ChatterProcess{Ident: id}
		if i%3 == 0 {
			p = &crashingChatter{ChatterProcess: simnet.ChatterProcess{Ident: id}, Round: 2 + i/3}
		}
		if err := net.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Run(func(n *simnet.Network) bool { return n.Round() >= 8 }); err != nil {
		t.Fatal(err)
	}
	if log.Dropped() > 0 {
		t.Fatalf("transcript truncated (%d dropped)", log.Dropped())
	}
	return log.Events(), net.Crashes()
}

// TestCrashEquivalenceAcrossWorkerCounts asserts that contained Step
// panics are deterministic: the full transcript — including every
// NodeCrashed event — and the crash records are identical between the
// inline cap-1 pipeline and caps 2, 3 and 5.
func TestCrashEquivalenceAcrossWorkerCounts(t *testing.T) {
	t.Parallel()
	baseEvents, baseCrashes := runCrashWorkload(t, 1)
	crashed := 0
	for _, e := range baseEvents {
		if e.Kind == trace.KindNodeCrashed {
			crashed++
		}
	}
	if crashed != 4 {
		t.Fatalf("%d NodeCrashed events, want 4", crashed)
	}
	if len(baseCrashes) != 4 {
		t.Fatalf("%d crash records, want 4: %+v", len(baseCrashes), baseCrashes)
	}
	for _, workers := range []int{2, 3, 5} {
		events, crashes := runCrashWorkload(t, workers)
		if !slices.Equal(baseEvents, events) {
			i := 0
			for i < len(baseEvents) && i < len(events) && baseEvents[i] == events[i] {
				i++
			}
			t.Fatalf("workers=%d: transcripts diverge at event %d of %d/%d:\n  inline: %+v\n  pooled: %+v",
				workers, i, len(baseEvents), len(events), at(baseEvents, i), at(events, i))
		}
		if !reflect.DeepEqual(baseCrashes, crashes) {
			t.Fatalf("workers=%d: crash records differ:\n  inline: %+v\n  pooled: %+v",
				workers, baseCrashes, crashes)
		}
	}
}
