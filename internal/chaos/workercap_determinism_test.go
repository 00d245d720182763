package chaos

import (
	"encoding/json"
	"runtime"
	"testing"

	"uba/internal/simnet"
)

// corruptBroadcast is a broadcast-arena scenario under a live link
// corruption rule: corrupted rbmessage copies can carry a flipped
// claimed source, which the unforgeability oracle reads through the
// engine's Deliveries view — the verdict depends on every delivered
// copy, so it is the sharpest cross-cap check of the lazy view.
func corruptBroadcast(seed int64) Scenario {
	return Scenario{
		Arena:     ArenaBroadcast,
		Correct:   7,
		Seed:      seed,
		MaxRounds: 12,
		Slots:     []SlotSpec{{Strategy: StrategySilent}, {Strategy: StrategySilent}},
		Faults: &simnet.FaultPlan{Seed: seed, Events: []simnet.FaultEvent{
			{Round: 1, Kind: simnet.FaultCorrupt, Rate: 0.6},
			{Round: 1, Kind: simnet.FaultReorder, Rate: 0.5},
		}},
	}
}

// TestVerdictsIdenticalAcrossWorkerCaps runs scenarios whose oracles
// fire — the unforgeability oracle under link corruption, and the
// planted earlydecide disagreement — at GOMAXPROCS {1, 2, 3, 5}, which
// with nine nodes is each network's worker cap, and requires the
// outcome (rounds and Suite violations) and the shrunk repro file to be
// byte-identical to the inline cap-1 run. It changes GOMAXPROCS, so it
// must not run in parallel with other tests.
func TestVerdictsIdenticalAcrossWorkerCaps(t *testing.T) {
	scenarios := map[string]Scenario{
		"broadcast-corrupt/seed=1": corruptBroadcast(1),
		"broadcast-corrupt/seed=2": corruptBroadcast(2),
		"earlydecide": {
			Arena: ArenaConsensus, Correct: 7, Seed: 3, MaxRounds: 30, Twin: TwinEarlyDecide,
			Slots: []SlotSpec{{Strategy: StrategySplitVoter}, {Strategy: StrategySilent}},
		},
	}
	fired := 0
	for name, s := range scenarios {
		var want string
		for _, procs := range []int{1, 2, 3, 5} {
			got := verdictBytes(t, s, procs)
			if procs == 1 {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("%s: verdict at GOMAXPROCS=%d differs from the inline run:\n got: %s\nwant: %s", name, procs, got, want)
			}
		}
		var v struct{ Outcome Outcome }
		if err := json.Unmarshal([]byte(want), &v); err != nil {
			t.Fatal(err)
		}
		if len(v.Outcome.Violations) > 0 {
			fired++
		}
	}
	if fired < 2 {
		t.Fatalf("only %d of %d scenarios fired; the sweep must compare real verdicts", fired, len(scenarios))
	}
}

// verdictBytes runs s at the given GOMAXPROCS and returns its outcome
// and, if an oracle fired, the encoded shrunk repro of the first
// violation, as one JSON document.
func verdictBytes(t *testing.T, s Scenario, procs int) string {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	out, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	var repro []byte
	if len(out.Violations) > 0 {
		r, ok := Shrink(s, out.Violations[0].Oracle, 60)
		if !ok {
			t.Fatalf("GOMAXPROCS=%d: shrink could not confirm %+v", procs, out.Violations[0])
		}
		if repro, err = EncodeRepro(r); err != nil {
			t.Fatal(err)
		}
	}
	b, err := json.Marshal(struct {
		Outcome *Outcome
		Repro   json.RawMessage `json:",omitempty"`
	}{out, repro})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
