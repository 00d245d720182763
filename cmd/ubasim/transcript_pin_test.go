package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"uba"
	"uba/internal/core/consensus"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/trace"
	"uba/internal/wire"
)

// pinnedTranscripts are the SHA-256 digests of message transcripts
// whose bytes must never change under an engine refactor: the
// receiver-major delivery order, the position of engine events in a
// round's record, and every rendered field are part of the contract.
// A legitimate behaviour change (a protocol fix, a new trace field)
// updates a digest deliberately, in the same change, with the reason.
var pinnedTranscripts = map[string]string{
	"consensus": "a24d485119a9d9554b1b28013366f937c04fe7bd5abbbf2609f1adff399a519b",
	"rb":        "98f2b14967a723945b3b9c8541c3ad3f87b16f744f8e076b98207baaeb446046",
	"rotor":     "bec3512fe75635f6012bd26423125f14d2cc42745e31d16f52f780d5b404315c",
	"renaming":  "e91dde31d73651457015b41aecdf4344c491e3f6720c994c6884980e52e340c3",
	"ordering":  "39434e18639c10c0e6d37bdbd72c77773199b6c436a72b4ed65bbac19ccc48a9",
	"faultplan": "8a13c5c8085ac40d2ea1b6e5b35eee9bf70e581482a0c1bb8d76b044a53080f8",
}

// transcriptSources produce the pinned outputs. The first four are the
// ubasim -trace CLI verbatim; ordering drives a long-lived
// OrderingCluster with a join and a leave (the dynamic-membership
// path), and faultplan runs consensus nodes under live link
// drop/duplicate/corrupt/reorder rules plus a plan crash and recover —
// neither has a ubasim flag, so they render the transcript the way
// ubasim -trace does.
var transcriptSources = map[string]func(io.Writer) error{
	"consensus": cliTranscript("-protocol", "consensus", "-g", "9", "-f", "3", "-adversary", "split", "-seed", "7", "-trace", "99"),
	"rb":        cliTranscript("-protocol", "rb", "-g", "7", "-f", "2", "-adversary", "noise", "-seed", "5", "-trace", "99"),
	"rotor":     cliTranscript("-protocol", "rotor", "-g", "9", "-f", "3", "-adversary", "ghost", "-seed", "7", "-trace", "99"),
	"renaming":  cliTranscript("-protocol", "renaming", "-g", "9", "-f", "2", "-adversary", "ghost", "-seed", "3", "-trace", "99"),
	"ordering":  orderingTranscript,
	"faultplan": faultPlanTranscript,
}

func cliTranscript(args ...string) func(io.Writer) error {
	return func(w io.Writer) error { return run(args, w) }
}

// orderingTranscript runs a 5-founder ordering cluster (one silent
// Byzantine member) for 40 rounds: submissions every third round, a
// join at round 10, and the joiner leaving at round 30.
func orderingTranscript(w io.Writer) error {
	log := trace.NewEventLog(0)
	oc, err := uba.NewOrderingCluster(uba.Config{Correct: 5, Byzantine: 1, Seed: 42, EventLog: log})
	if err != nil {
		return err
	}
	members := oc.Members()
	var joiner uint64
	for r := 1; r <= 40; r++ {
		if r%3 == 0 {
			if err := oc.SubmitEvent(members[r%len(members)], float64(r)); err != nil {
				return err
			}
		}
		switch r {
		case 10:
			if joiner, err = oc.Join(); err != nil {
				return err
			}
		case 30:
			if err := oc.Leave(joiner); err != nil {
				return err
			}
		}
		if err := oc.RunRounds(1); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "traffic: %v\n--- transcript ---\n", oc.Report())
	return log.Render(w, 0)
}

// faultPlanTranscript runs seven consensus nodes for 14 rounds under a
// fault plan whose link rules are live from round 1 and which crashes
// one node at round 3 and revives it at round 7. The plan is fixed, so
// every drop, duplicate, corrupted copy and shuffle is reproduced
// exactly on every run and every worker cap.
func faultPlanTranscript(w io.Writer) error {
	nodeIDs := ids.Sparse(rand.New(rand.NewSource(5)), 7)
	victim := uint64(nodeIDs[6])
	plan := &simnet.FaultPlan{Seed: 11, Events: []simnet.FaultEvent{
		{Round: 1, Kind: simnet.FaultDrop, Rate: 0.1},
		{Round: 1, Kind: simnet.FaultDuplicate, Rate: 0.1},
		{Round: 1, Kind: simnet.FaultCorrupt, Rate: 0.1},
		{Round: 1, Kind: simnet.FaultReorder, Rate: 0.5},
		{Round: 3, Kind: simnet.FaultCrash, Node: victim},
		{Round: 7, Kind: simnet.FaultRecover, Node: victim},
	}}
	log := trace.NewEventLog(0)
	col := &trace.Collector{}
	net := simnet.New(simnet.Config{EventLog: log, Collector: col, FaultPlan: plan})
	defer net.Close()
	for i, id := range nodeIDs {
		if err := net.Add(consensus.New(id, wire.V(float64(i%2)))); err != nil {
			return err
		}
	}
	for r := 0; r < 14; r++ {
		if err := net.RunRound(); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "traffic: %v\n--- transcript ---\n", col.Report())
	return log.Render(w, 0)
}

// TestPinnedTranscripts recomputes every pinned transcript and compares
// its digest. "Byte-identical transcripts" is otherwise a claim nobody
// checks across commits; this makes it a failing test.
func TestPinnedTranscripts(t *testing.T) {
	t.Parallel()
	for name, src := range transcriptSources {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if err := src(&buf); err != nil {
				t.Fatalf("%s: %v\n%s", name, err, buf.String())
			}
			sum := sha256.Sum256(buf.Bytes())
			got := hex.EncodeToString(sum[:])
			if want := pinnedTranscripts[name]; got != want {
				t.Errorf("%s transcript digest = %s, want %s (%d bytes of output)", name, got, want, buf.Len())
			}
		})
	}
}
