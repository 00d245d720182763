package ordering

import (
	"math/rand"
	"testing"

	"uba/internal/ids"
	"uba/internal/simnet"
)

// TestBoundedExecutionHistory is the bounded-history gate: the executions
// a node holds, and what a round allocates, must not grow with the length
// of the run. At |S| = 9 (seven correct founders, two silent Byzantine
// members) every correct node submits an event every round for 2,000
// rounds. No node may ever hold more unfinalized executions than fit in
// the finality horizon plus one five-round consensus phase, and a round
// at round 1,600 must allocate within 10% of a round at round 100.
func TestBoundedExecutionHistory(t *testing.T) {
	const (
		members = 9
		correct = 7
		phase   = 5
		// Executions r' with 2(r − r') ≤ 5|S| + 4 are inside the horizon.
		horizon = (5*members+4)/2 + 1
		maxHeld = horizon + phase
	)
	all := ids.Sparse(rand.New(rand.NewSource(1)), members)
	snapshot := ids.NewSet(all...)
	net := simnet.New(simnet.Config{MaxRounds: 2100, Workers: 1})
	nodes := make([]*Node, 0, correct)
	for _, id := range all[:correct] {
		node, err := NewFounder(id, snapshot)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
		if err := net.Add(node); err != nil {
			t.Fatal(err)
		}
	}
	rounds, held := 0, 0
	round := func() {
		rounds++
		for i, n := range nodes {
			n.SubmitEvent(float64(rounds*correct + i))
		}
		if err := net.RunRound(); err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes {
			held = max(held, len(n.runs))
		}
	}
	runUntil := func(r int) {
		for rounds < r {
			round()
		}
	}
	allocsAt := func(r int) float64 {
		runUntil(r)
		return testing.AllocsPerRun(20, round)
	}
	early := allocsAt(100)
	late := allocsAt(1600)
	runUntil(2000)

	if held > maxHeld {
		t.Errorf("a node held %d unfinalized executions, want at most %d (horizon %d + one phase)",
			held, maxHeld, horizon)
	}
	if chain := nodes[0].Chain(); len(chain) < 1900*correct {
		t.Errorf("chain has %d entries after 2000 rounds of %d submitters", len(chain), correct)
	}
	if late > early*1.1 || late < early*0.9 {
		t.Errorf("allocs per round drifted with history: %.1f at round 100, %.1f at round 1600", early, late)
	}
	t.Logf("max unfinalized executions %d (bound %d); allocs per round %.1f at 100, %.1f at 1600",
		held, maxHeld, early, late)
}
