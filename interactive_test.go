package uba

import (
	"fmt"
	"testing"
)

func TestInteractiveConsistencyFaultFree(t *testing.T) {
	t.Parallel()
	inputs := []float64{10, 20, 30, 40, 50}
	res, err := InteractiveConsistency(Config{Correct: 5, Seed: 2}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vector) != 5 {
		t.Fatalf("vector has %d entries, want 5: %v", len(res.Vector), res.Vector)
	}
	values := make(map[float64]bool)
	for _, e := range res.Vector {
		values[e.Value] = true
	}
	for _, x := range inputs {
		if !values[x] {
			t.Fatalf("input %v missing from vector %v", x, res.Vector)
		}
	}
	// One EarlyConsensus instance per node, all in parallel: unanimous
	// holders decide in the first phase.
	if res.Rounds != 7 {
		t.Fatalf("vector agreed in %d rounds, want 7", res.Rounds)
	}
}

func TestInteractiveConsistencyUnderAdversaries(t *testing.T) {
	t.Parallel()
	for _, adv := range []Adversary{AdversarySilent, AdversarySplit, AdversaryNoise} {
		adv := adv
		t.Run(adv.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 4; seed++ {
				inputs := []float64{1, 2, 3, 4, 5, 6, 7}
				res, err := InteractiveConsistency(Config{
					Correct: 7, Byzantine: 2, Adversary: adv, Seed: seed,
				}, inputs)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				// At least the 7 correct entries; possibly byzantine
				// entries too, but agreed (checked inside).
				if len(res.Vector) < 7 {
					t.Fatalf("seed %d: vector %v too small", seed, res.Vector)
				}
			}
		})
	}
}

func TestInteractiveConsistencyInputMismatch(t *testing.T) {
	t.Parallel()
	if _, err := InteractiveConsistency(Config{Correct: 3}, []float64{1}); err == nil {
		t.Fatal("input count mismatch accepted")
	}
}

// The vector is identical regardless of which node reports it — probed by
// re-running at worker caps {2, 3, 5} and comparing with the inline
// cap-1 run. Caps are set through GOMAXPROCS, so the test is serial.
func TestInteractiveConsistencyDeterminism(t *testing.T) {
	inputs := []float64{5, 6, 7, 8, 9, 10, 11}
	run := func(procs int) (out string) {
		atProcs(procs, func() {
			res, err := InteractiveConsistency(Config{
				Correct: 7, Byzantine: 2, Adversary: AdversarySplit, Seed: 9,
			}, inputs)
			if err != nil {
				t.Fatal(err)
			}
			out = fmt.Sprintf("%v/%d", res.Vector, res.Rounds)
		})
		return out
	}
	base := run(1)
	for _, procs := range []int{2, 3, 5} {
		if got := run(procs); got != base {
			t.Fatalf("procs=%d disagrees with the inline run:\n%s\n%s", procs, got, base)
		}
	}
}
