package rotor

import (
	"fmt"
	"math/rand"
	"testing"

	"uba/internal/adversary"
	"uba/internal/census"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// opinionOf fixes each node's opinion to a function of its id so tests can
// verify whose opinion was accepted.
func opinionOf(id ids.ID) wire.Value { return wire.V(float64(id % 1000003)) }

type runResult struct {
	nodes  []*Node
	rounds int
}

// runRotor builds and runs a rotor network: nCorrect correct nodes and the
// Byzantine processes produced by mkByz (given the byz ids and directory).
func runRotor(t *testing.T, seed int64, nCorrect, nByz int,
	mkByz func(byzIDs []ids.ID, dir *adversary.Directory) []simnet.Process) runResult {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	all := ids.Sparse(rng, nCorrect+nByz)
	correctIDs := all[:nCorrect]
	byzIDs := all[nCorrect:]
	dir := adversary.NewDirectory(all, byzIDs)

	net := simnet.New(simnet.Config{MaxRounds: 30*(nCorrect+nByz) + 100})
	nodes := make([]*Node, 0, nCorrect)
	for _, id := range correctIDs {
		node := New(id, opinionOf(id))
		nodes = append(nodes, node)
		if err := net.Add(node); err != nil {
			t.Fatal(err)
		}
	}
	if mkByz != nil {
		for _, p := range mkByz(byzIDs, dir) {
			if err := net.AddByzantine(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	rounds, err := net.Run(simnet.AllDone(correctIDs))
	if err != nil {
		t.Fatalf("rotor did not terminate: %v", err)
	}
	return runResult{nodes: nodes, rounds: rounds}
}

// isCorrect reports whether id belongs to the run's correct nodes.
func (r runResult) isCorrect(id ids.ID) bool {
	for _, n := range r.nodes {
		if n.ID() == id {
			return true
		}
	}
	return false
}

// hasGoodRound verifies the heart of Theorem 2: a round in which every
// correct node accepted the opinion of one common, correct coordinator.
func (r runResult) hasGoodRound() (int, bool) {
	if len(r.nodes) == 0 {
		return 0, false
	}
	for _, a := range r.nodes[0].AcceptedOpinions() {
		if !r.isCorrect(a.From) {
			continue
		}
		if !a.X.Equal(opinionOf(a.From)) {
			continue
		}
		common := true
		for _, other := range r.nodes[1:] {
			found := false
			for _, b := range other.AcceptedOpinions() {
				if b.Round == a.Round && b.From == a.From && b.X.Equal(a.X) {
					found = true
					break
				}
			}
			if !found {
				common = false
				break
			}
		}
		if common {
			return a.Round, true
		}
	}
	return 0, false
}

func TestRotorNoFaults(t *testing.T) {
	t.Parallel()
	for _, n := range []int{4, 7, 13} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			res := runRotor(t, int64(n), n, 0, nil)
			// All correct nodes become candidates; with a stable
			// candidate set of size n, reselection happens at loop
			// round n, i.e. termination within n + 3 network rounds.
			if res.rounds > n+3 {
				t.Fatalf("terminated after %d rounds, want ≤ %d", res.rounds, n+3)
			}
			for _, node := range res.nodes {
				if got := node.Candidates().Len(); got != n {
					t.Fatalf("node %v has %d candidates, want %d", node.ID(), got, n)
				}
			}
			if _, ok := res.hasGoodRound(); !ok {
				t.Fatal("no good round observed")
			}
		})
	}
}

func TestRotorCommonCoordinatorEachRoundNoFaults(t *testing.T) {
	t.Parallel()
	res := runRotor(t, 99, 9, 0, nil)
	// With identical candidate sets everywhere, every loop round must
	// select the same coordinator at every node.
	base := res.nodes[0].Selections()
	for _, node := range res.nodes[1:] {
		sels := node.Selections()
		if len(sels) != len(base) {
			t.Fatalf("node %v ran %d loop rounds, node %v ran %d",
				node.ID(), len(sels), res.nodes[0].ID(), len(base))
		}
		for r := range sels {
			if sels[r].Coordinator != base[r].Coordinator {
				t.Fatalf("loop round %d: %v selected %v, %v selected %v",
					r, node.ID(), sels[r].Coordinator, res.nodes[0].ID(), base[r].Coordinator)
			}
		}
	}
}

func TestRotorWithSilentByzantine(t *testing.T) {
	t.Parallel()
	mkByz := func(byzIDs []ids.ID, _ *adversary.Directory) []simnet.Process {
		out := make([]simnet.Process, len(byzIDs))
		for i, id := range byzIDs {
			out[i] = adversary.NewSilent(id)
		}
		return out
	}
	for _, tc := range []struct{ g, f int }{{7, 2}, {10, 3}, {4, 1}} {
		tc := tc
		t.Run(fmt.Sprintf("g=%d_f=%d", tc.g, tc.f), func(t *testing.T) {
			t.Parallel()
			res := runRotor(t, int64(tc.g*100+tc.f), tc.g, tc.f, mkByz)
			if _, ok := res.hasGoodRound(); !ok {
				t.Fatal("no good round with silent Byzantine nodes")
			}
			n := tc.g + tc.f
			if res.rounds > 2*n+5 {
				t.Fatalf("termination took %d rounds for n=%d", res.rounds, n)
			}
		})
	}
}

func TestRotorWithGhostCandidates(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			g, f := 10, 3
			ghostRNG := rand.New(rand.NewSource(seed + 1000))
			ghosts := ids.Sparse(ghostRNG, 20)
			mkByz := func(byzIDs []ids.ID, dir *adversary.Directory) []simnet.Process {
				out := make([]simnet.Process, len(byzIDs))
				for i, id := range byzIDs {
					out[i] = adversary.NewGhostCandidate(id, dir, ghosts)
				}
				return out
			}
			res := runRotor(t, seed, g, f, mkByz)
			round, ok := res.hasGoodRound()
			if !ok {
				t.Fatal("ghost-candidate adversary prevented the good round")
			}
			if round == 0 {
				t.Fatal("good round reported as 0")
			}
			// O(n) termination must survive the attack. The ghost
			// attack can stretch C_v by up to 2f entries and delay
			// via non-silent rounds; 4n is a generous linear bound.
			n := g + f
			if res.rounds > 4*n {
				t.Fatalf("termination took %d rounds (> 4n = %d)", res.rounds, 4*n)
			}
		})
	}
}

// Candidate relay: if one correct node adds p to C_v at loop round r, all
// correct nodes have p in their candidate set by loop round r+1 (Lemma 3).
// We verify the weaker, directly observable consequence: final candidate
// sets of all correct nodes agree on which *correct* ids they contain, and
// every correct id is present.
func TestRotorCandidateSetsCoverCorrectNodes(t *testing.T) {
	t.Parallel()
	ghostRNG := rand.New(rand.NewSource(7))
	ghosts := ids.Sparse(ghostRNG, 10)
	mkByz := func(byzIDs []ids.ID, dir *adversary.Directory) []simnet.Process {
		out := make([]simnet.Process, len(byzIDs))
		for i, id := range byzIDs {
			out[i] = adversary.NewGhostCandidate(id, dir, ghosts)
		}
		return out
	}
	res := runRotor(t, 42, 8, 2, mkByz)
	for _, node := range res.nodes {
		cand := node.Candidates()
		for _, other := range res.nodes {
			if !cand.Contains(other.ID()) {
				t.Fatalf("node %v's candidates miss correct node %v",
					node.ID(), other.ID())
			}
		}
	}
}

// Coordinator selections are identical at worker caps {2, 3, 5} and on
// the inline cap-1 pipeline.
func TestRotorDeterministicAcrossRunners(t *testing.T) {
	t.Parallel()
	run := func(workers int) [][]Selection {
		rng := rand.New(rand.NewSource(17))
		all := ids.Sparse(rng, 9)
		dir := adversary.NewDirectory(all, all[7:])
		net := simnet.New(simnet.Config{MaxRounds: 500, Workers: workers})
		defer net.Close()
		nodes := make([]*Node, 0, 7)
		for _, id := range all[:7] {
			node := New(id, opinionOf(id))
			nodes = append(nodes, node)
			if err := net.Add(node); err != nil {
				t.Fatal(err)
			}
		}
		ghosts := ids.Sparse(rand.New(rand.NewSource(18)), 6)
		for _, id := range all[7:] {
			if err := net.AddByzantine(adversary.NewGhostCandidate(id, dir, ghosts)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := net.Run(simnet.AllDone(all[:7])); err != nil {
			t.Fatal(err)
		}
		out := make([][]Selection, len(nodes))
		for i, n := range nodes {
			out[i] = n.Selections()
		}
		return out
	}
	base := run(1)
	for _, workers := range []int{2, 3, 5} {
		got := run(workers)
		for i := range base {
			if len(base[i]) != len(got[i]) {
				t.Fatalf("workers=%d node %d: %d vs %d loop rounds", workers, i, len(base[i]), len(got[i]))
			}
			for r := range base[i] {
				if base[i][r].Coordinator != got[i][r].Coordinator {
					t.Fatalf("workers=%d node %d loop round %d: %v vs %v",
						workers, i, r, base[i][r].Coordinator, got[i][r].Coordinator)
				}
			}
		}
	}
}

// The core used standalone must tolerate an empty candidate set (possible
// only under pathological adversarial init) without selecting anyone.
func TestCoreEmptyCandidateSet(t *testing.T) {
	t.Parallel()
	core := NewCore(1, 0)
	var emitted []wire.Payload
	sel := core.LoopRound(0, wire.V(1), func(p wire.Payload) { emitted = append(emitted, p) })
	if sel.Coordinator != ids.None || sel.Terminated {
		t.Fatalf("selection from empty candidates: %+v", sel)
	}
	if len(emitted) != 0 {
		t.Fatalf("emitted %d payloads from empty core", len(emitted))
	}
}

func TestCoreSeedCandidates(t *testing.T) {
	t.Parallel()
	core := NewCore(5, 3)
	core.SeedCandidates(ids.NewSet(5, 9, 2))
	var emitted []wire.Payload
	sel := core.LoopRound(3, wire.V(7), func(p wire.Payload) { emitted = append(emitted, p) })
	if sel.Coordinator != 2 {
		t.Fatalf("first coordinator = %v, want smallest id 2", sel.Coordinator)
	}
	sel = core.LoopRound(3, wire.V(7), nil)
	if sel.Coordinator != 5 {
		t.Fatalf("second coordinator = %v, want 5", sel.Coordinator)
	}
	// Node 5 is self: it must have broadcast its opinion with the
	// instance tag when selected.
	foundOpinion := false
	for _, p := range emitted {
		if op, ok := p.(wire.Opinion); ok {
			t.Fatalf("opinion emitted too early: %+v", op)
		}
	}
	var emitted2 []wire.Payload
	_ = foundOpinion
	core2 := NewCore(2, 3)
	core2.SeedCandidates(ids.NewSet(5, 9, 2))
	sel = core2.LoopRound(3, wire.V(7), func(p wire.Payload) { emitted2 = append(emitted2, p) })
	if sel.Coordinator != 2 {
		t.Fatalf("coordinator = %v", sel.Coordinator)
	}
	if len(emitted2) != 1 {
		t.Fatalf("self-coordinator emitted %d payloads, want 1 opinion", len(emitted2))
	}
	op, ok := emitted2[0].(wire.Opinion)
	if !ok || op.Instance != 3 || !op.X.Equal(wire.V(7)) {
		t.Fatalf("opinion = %+v", emitted2[0])
	}
}

func TestCoreTerminatesOnReselection(t *testing.T) {
	t.Parallel()
	core := NewCore(1, 0)
	core.SeedCandidates(ids.NewSet(10, 20))
	if sel := core.LoopRound(2, wire.V(0), nil); sel.Coordinator != 10 || sel.Terminated {
		t.Fatalf("round 0: %+v", sel)
	}
	if sel := core.LoopRound(2, wire.V(0), nil); sel.Coordinator != 20 || sel.Terminated {
		t.Fatalf("round 1: %+v", sel)
	}
	sel := core.LoopRound(2, wire.V(0), nil)
	if !sel.Terminated || sel.Coordinator != 10 {
		t.Fatalf("round 2 should reselect 10 and terminate: %+v", sel)
	}
	if !core.Terminated() {
		t.Fatal("core not terminated")
	}
	if sel := core.LoopRound(2, wire.V(0), nil); !sel.Terminated {
		t.Fatal("terminated core ran another round")
	}
}

func TestCoreOpinionAcceptance(t *testing.T) {
	t.Parallel()
	core := NewCore(1, 0)
	core.SeedCandidates(ids.NewSet(10, 20))
	sel := core.LoopRound(2, wire.V(0), nil) // selects 10
	if sel.Coordinator != 10 {
		t.Fatalf("selected %v", sel.Coordinator)
	}
	// Opinion arrives from 10 (and a fake one from 20, which was not
	// the previous coordinator and must be ignored).
	core.NoteInbox(simnet.InboxOf(
		simnet.Received{From: 10, Payload: wire.Opinion{X: wire.V(3.5)}},
		simnet.Received{From: 20, Payload: wire.Opinion{X: wire.V(9)}},
	), nil)
	sel = core.LoopRound(2, wire.V(0), nil)
	if !sel.OpinionOK || !sel.Opinion.Equal(wire.V(3.5)) || sel.PrevCoordinator != 10 {
		t.Fatalf("opinion acceptance: %+v", sel)
	}
}

func TestCoreFiltersByInstanceAndSender(t *testing.T) {
	t.Parallel()
	core := NewCore(1, 7)
	// Echo with wrong instance must be ignored; echo from filtered
	// sender must be ignored.
	members := census.FrozenOf(ids.NewSet(2, 3))
	core.NoteInbox(simnet.InboxOf(
		simnet.Received{From: 2, Payload: wire.IDEcho{Instance: 7, Candidate: 100}},
		simnet.Received{From: 3, Payload: wire.IDEcho{Instance: 8, Candidate: 100}},
		simnet.Received{From: 66, Payload: wire.IDEcho{Instance: 7, Candidate: 100}},
	), &members)
	// nv = 3: one valid echo passes n_v/3 (1 ≥ 1) but not 2n_v/3.
	var emitted []wire.Payload
	core.LoopRound(3, wire.V(0), func(p wire.Payload) { emitted = append(emitted, p) })
	if core.Candidates().Len() != 0 {
		t.Fatal("candidate added from under-threshold echoes")
	}
	if len(emitted) != 1 {
		t.Fatalf("emitted %d payloads, want 1 relay echo", len(emitted))
	}
	echo, ok := emitted[0].(wire.IDEcho)
	if !ok || echo.Instance != 7 || echo.Candidate != 100 {
		t.Fatalf("relay echo = %+v", emitted[0])
	}
}
