package uba

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"uba/internal/simnet"
	"uba/internal/trace"
)

// atProcs runs f with GOMAXPROCS set to procs. The facade has no runner
// setting, so this is how a facade test picks a network's default
// worker cap (GOMAXPROCS capped at the live node count). It changes
// process-wide state, so its callers must not be parallel tests.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	if _, err := Consensus(Config{Correct: 0}, nil); err == nil {
		t.Fatal("zero correct nodes accepted")
	}
	if _, err := Consensus(Config{Correct: 3, Byzantine: -1}, []float64{1, 2, 3}); err == nil {
		t.Fatal("negative byzantine accepted")
	}
	if _, err := Consensus(Config{Correct: 3}, []float64{1}); err == nil {
		t.Fatal("input count mismatch accepted")
	}
}

func TestConfigHelpers(t *testing.T) {
	t.Parallel()
	cfg := Config{Correct: 7, Byzantine: 2}
	if cfg.N() != 9 || !cfg.Resilient() {
		t.Fatalf("N=%d Resilient=%v", cfg.N(), cfg.Resilient())
	}
	if (Config{Correct: 4, Byzantine: 2}).Resilient() {
		t.Fatal("n=6, f=2 reported resilient")
	}
}

func TestParseAdversaryRoundTrip(t *testing.T) {
	t.Parallel()
	for _, a := range []Adversary{
		AdversaryNone, AdversarySilent, AdversaryCrash,
		AdversarySplit, AdversaryGhost, AdversaryNoise,
	} {
		got, err := ParseAdversary(a.String())
		if err != nil || got != a {
			t.Fatalf("ParseAdversary(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseAdversary("bogus"); err == nil {
		t.Fatal("bogus adversary parsed")
	}
}

func TestConsensusFacade(t *testing.T) {
	t.Parallel()
	for _, adv := range []Adversary{AdversarySilent, AdversarySplit, AdversaryNoise, AdversaryCrash} {
		adv := adv
		t.Run(adv.String(), func(t *testing.T) {
			t.Parallel()
			res, err := Consensus(Config{
				Correct: 7, Byzantine: 2, Adversary: adv, Seed: 42,
			}, []float64{0, 1, 0, 1, 0, 1, 0})
			if err != nil {
				t.Fatal(err)
			}
			if res.Decision != 0 && res.Decision != 1 {
				t.Fatalf("decision %v not a correct input", res.Decision)
			}
			if res.Rounds <= 0 || res.Report.Deliveries == 0 {
				t.Fatalf("suspicious result: %+v", res)
			}
		})
	}
}

func TestConsensusUnanimityFastPath(t *testing.T) {
	t.Parallel()
	res, err := Consensus(Config{Correct: 10, Byzantine: 3, Seed: 1},
		[]float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != 5 || res.Rounds != 7 {
		t.Fatalf("unanimous: decision %v in %d rounds, want 5 in 7", res.Decision, res.Rounds)
	}
}

func TestReliableBroadcastFacade(t *testing.T) {
	t.Parallel()
	res, err := ReliableBroadcast(Config{Correct: 7, Byzantine: 2, Seed: 3}, []byte("m"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAccepted {
		t.Fatal("not all nodes accepted")
	}
	for i, round := range res.AcceptRounds {
		if round != 3 {
			t.Fatalf("node %d accepted in round %d, want 3", i, round)
		}
	}
}

func TestRotorFacade(t *testing.T) {
	t.Parallel()
	res, err := Rotor(Config{Correct: 8, Byzantine: 2, Adversary: AdversaryGhost, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.GoodRound == 0 {
		t.Fatal("no good round observed")
	}
	if res.Rounds > 4*10 {
		t.Fatalf("rotor ran %d rounds for n=10", res.Rounds)
	}
	if len(res.Coordinators) == 0 {
		t.Fatal("no coordinator history")
	}
}

func TestApproximateAgreementFacade(t *testing.T) {
	t.Parallel()
	inputs := []float64{0, 10, 20, 30, 40, 50, 60}
	res, err := ApproximateAgreement(Config{
		Correct: 7, Byzantine: 2, Adversary: AdversarySplit, Seed: 5,
	}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputLo < res.InputLo || res.OutputHi > res.InputHi {
		t.Fatalf("outputs escaped input range: %+v", res)
	}
	if res.RangeRatio() > 0.5+1e-9 {
		t.Fatalf("range ratio %v > 0.5", res.RangeRatio())
	}
}

func TestIteratedApproximateAgreementFacade(t *testing.T) {
	t.Parallel()
	inputs := []float64{0, 32, 64, 96, 128, 100, 4}
	res, err := IteratedApproximateAgreement(Config{
		Correct: 7, Byzantine: 2, Adversary: AdversarySplit, Seed: 6,
	}, inputs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RangePerRound) != 8 {
		t.Fatalf("tracked %d rounds, want 8", len(res.RangePerRound))
	}
	prev := 128.0
	for i, r := range res.RangePerRound {
		if r > prev/2+1e-9 {
			t.Fatalf("round %d: range %v did not halve from %v", i, r, prev)
		}
		prev = r
	}
}

func TestParallelConsensusFacade(t *testing.T) {
	t.Parallel()
	inputs := make([][]Pair, 7)
	for i := range inputs {
		inputs[i] = []Pair{{Instance: 1, Value: 10}, {Instance: 2, Value: 20}}
	}
	// Node 0 additionally proposes a pair the others do not know.
	inputs[0] = append(inputs[0], Pair{Instance: 3, Value: 30})
	res, err := ParallelConsensus(Config{Correct: 7, Byzantine: 2, Seed: 8}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decided) < 2 {
		t.Fatalf("decided %v, want at least the two common pairs", res.Decided)
	}
	if res.Decided[0].Instance != 1 || res.Decided[0].Value != 10 {
		t.Fatalf("first pair %+v", res.Decided[0])
	}
	if res.Decided[1].Instance != 2 || res.Decided[1].Value != 20 {
		t.Fatalf("second pair %+v", res.Decided[1])
	}
}

func TestRenamingFacade(t *testing.T) {
	t.Parallel()
	res, err := Renaming(Config{Correct: 9, Byzantine: 2, Adversary: AdversaryGhost, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 9 {
		t.Fatalf("%d names, want 9", len(res.Names))
	}
	seen := make(map[int]bool)
	for _, name := range res.Names {
		if name < 1 || name > res.SetSize {
			t.Fatalf("name %d outside 1..%d", name, res.SetSize)
		}
		if seen[name] {
			t.Fatalf("duplicate name %d", name)
		}
		seen[name] = true
	}
}

func TestTerminatingBroadcastFacade(t *testing.T) {
	t.Parallel()
	res, err := TerminatingBroadcast(Config{Correct: 7, Byzantine: 2, Seed: 13}, []byte("payload"), true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered || string(res.Body) != "payload" {
		t.Fatalf("result %+v", res)
	}
	// Faulty (silent) source: common "nothing delivered".
	res, err = TerminatingBroadcast(Config{Correct: 7, Byzantine: 2, Seed: 14}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered {
		t.Fatal("delivered from a silent source")
	}
}

func TestOrderingClusterFacade(t *testing.T) {
	t.Parallel()
	oc, err := NewOrderingCluster(Config{Correct: 5, Byzantine: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	members := oc.Members()
	if len(members) != 5 {
		t.Fatalf("%d members, want 5", len(members))
	}
	for i, m := range members {
		if err := oc.SubmitEvent(m, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := oc.RunRounds(70); err != nil {
		t.Fatal(err)
	}
	chain, err := oc.Chain(members[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 5 {
		t.Fatalf("chain %v, want the 5 submitted events", chain)
	}
	for _, other := range members[1:] {
		oChain, err := oc.Chain(other)
		if err != nil {
			t.Fatal(err)
		}
		for i := range oChain {
			if i < len(chain) && oChain[i] != chain[i] {
				t.Fatalf("chains diverge at %d", i)
			}
		}
	}
	if _, err := oc.Chain(12345); err == nil {
		t.Fatal("unknown member accepted")
	}
	if err := oc.SubmitEvent(12345, 1); err == nil {
		t.Fatal("unknown member accepted")
	}
}

// A closed OrderingCluster refuses further rounds with ErrClosed rather
// than stepping its nodes over inbox views into recycled scratch, and
// the refusal leaves the chains it already finalized readable.
func TestOrderingClusterRunRoundsAfterClose(t *testing.T) {
	t.Parallel()
	oc, err := NewOrderingCluster(Config{Correct: 4, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	m := oc.Members()[0]
	if err := oc.SubmitEvent(m, 1); err != nil {
		t.Fatal(err)
	}
	if err := oc.RunRounds(40); err != nil {
		t.Fatal(err)
	}
	before, err := oc.Chain(m)
	if err != nil {
		t.Fatal(err)
	}
	oc.Close()
	oc.Close() // idempotent
	if err := oc.RunRounds(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("RunRounds after Close = %v, want ErrClosed", err)
	}
	if err := oc.net.RunRound(); !errors.Is(err, simnet.ErrClosed) {
		t.Fatalf("network RunRound after Close = %v, want simnet.ErrClosed", err)
	}
	after, err := oc.Chain(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 || fmt.Sprint(before) != fmt.Sprint(after) {
		t.Fatalf("chain changed across a rejected round: %v -> %v", before, after)
	}
}

func TestOrderingClusterJoinLeave(t *testing.T) {
	t.Parallel()
	oc, err := NewOrderingCluster(Config{Correct: 5, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if err := oc.RunRounds(3); err != nil {
		t.Fatal(err)
	}
	joiner, err := oc.Join()
	if err != nil {
		t.Fatal(err)
	}
	if err := oc.RunRounds(5); err != nil {
		t.Fatal(err)
	}
	r, err := oc.Round(joiner)
	if err != nil || r == 0 {
		t.Fatalf("joiner round %d, err %v", r, err)
	}
	if err := oc.SubmitEvent(joiner, 3.5); err != nil {
		t.Fatal(err)
	}
	if err := oc.RunRounds(60); err != nil {
		t.Fatal(err)
	}
	founder := oc.Members()[0]
	chain, err := oc.Chain(founder)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range chain {
		if e.Submitter == joiner && e.Value == 3.5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("joiner's event not ordered: %v", chain)
	}
	if err := oc.Leave(joiner); err != nil {
		t.Fatal(err)
	}
	if err := oc.RunRounds(40); err != nil {
		t.Fatal(err)
	}
}

func TestImpossibilityDemoFacade(t *testing.T) {
	t.Parallel()
	tests := []struct {
		model TimingModel
		agree bool
	}{
		{TimingSynchronous, true},
		{TimingSemiSync, false},
		{TimingAsync, false},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.model.String(), func(t *testing.T) {
			t.Parallel()
			res, err := ImpossibilityDemo(tt.model, 4, 21)
			if err != nil {
				t.Fatal(err)
			}
			if res.Agreement != tt.agree {
				t.Fatalf("%v: agreement = %v, want %v", tt.model, res.Agreement, tt.agree)
			}
			if len(res.Decisions) != 8 {
				t.Fatalf("%d decisions, want 8", len(res.Decisions))
			}
		})
	}
	if _, err := ImpossibilityDemo(TimingAsync, 0, 1); err == nil {
		t.Fatal("zero nodes per side accepted")
	}
	if _, err := ImpossibilityDemo(TimingModel(99), 3, 1); err == nil {
		t.Fatal("bogus timing model accepted")
	}
}

// Determinism across the facade: identical configs yield identical
// decisions, rounds, and traffic.
func TestFacadeDeterminism(t *testing.T) {
	t.Parallel()
	run := func() string {
		res, err := Consensus(Config{
			Correct: 7, Byzantine: 2, Adversary: AdversarySplit, Seed: 33,
		}, []float64{0, 1, 1, 0, 1, 0, 0})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v/%d/%d/%d", res.Decision, res.Rounds,
			res.Report.Deliveries, res.Report.Bytes)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic facade run: %s vs %s", a, b)
	}
}

// Worker caps {2, 3, 5} agree with the inline cap-1 pipeline through the
// facade too. Caps are set through GOMAXPROCS, so the test is serial.
func TestFacadeRunnerEquivalence(t *testing.T) {
	inputs := []float64{3, 4, 3, 4, 3, 4, 4}
	run := func(procs int) (res *ConsensusResult) {
		atProcs(procs, func() {
			var err error
			res, err = Consensus(Config{Correct: 7, Byzantine: 2, Adversary: AdversarySplit, Seed: 40}, inputs)
			if err != nil {
				t.Fatal(err)
			}
		})
		return res
	}
	base := run(1)
	for _, procs := range []int{2, 3, 5} {
		got := run(procs)
		if base.Decision != got.Decision || base.Rounds != got.Rounds || base.Report.Deliveries != got.Report.Deliveries {
			t.Fatalf("procs=%d differs from the inline run: %+v vs %+v", procs, got, base)
		}
	}
}

func TestImpossibilityVictimSweep(t *testing.T) {
	t.Parallel()
	for _, victim := range []VictimProtocol{VictimWaitMajority, VictimWaitMin, VictimDeadlineMajority} {
		victim := victim
		t.Run(victim.String(), func(t *testing.T) {
			t.Parallel()
			adv, err := ImpossibilityDemoAgainst(TimingAsync, victim, 4, 3)
			if err != nil {
				t.Fatal(err)
			}
			if adv.Agreement {
				t.Fatalf("%v agreed under the async partition", victim)
			}
			ctl, err := ImpossibilityDemoAgainst(TimingSynchronous, victim, 4, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !ctl.Agreement {
				t.Fatalf("%v disagreed under the synchronous control", victim)
			}
		})
	}
	if _, err := ImpossibilityDemoAgainst(TimingAsync, VictimProtocol(99), 3, 1); err == nil {
		t.Fatal("bogus victim accepted")
	}
}

func TestFacadeEventLogTranscript(t *testing.T) {
	t.Parallel()
	log := trace.NewEventLog(10_000)
	_, err := Consensus(Config{
		Correct: 4, Byzantine: 1, Seed: 2, EventLog: log,
	}, []float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	events := log.Events()
	if len(events) == 0 {
		t.Fatal("no transcript recorded")
	}
	kinds := make(map[string]bool)
	for _, e := range events {
		kinds[e.Kind] = true
	}
	for _, want := range []string{"init", "idecho", "input", "prefer", "strongprefer"} {
		if !kinds[want] {
			t.Fatalf("transcript missing kind %q; kinds: %v", want, kinds)
		}
	}
}
