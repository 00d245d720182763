package ordering

import (
	"math/rand"
	"testing"

	"uba/internal/ids"
	"uba/internal/simnet"
)

// Chains are append-only: the chain observed at any round is a prefix of
// the chain observed at every later round (finality is irrevocable).
func TestChainIsAppendOnly(t *testing.T) {
	t.Parallel()
	c, founders, _ := newCluster(t, 51, 5, 0)
	node := c.nodes[founders[0]]
	var prev []ChainEntry
	for r := 0; r < 100; r++ {
		if r%2 == 0 {
			node.SubmitEvent(float64(r))
		}
		c.run(1)
		cur := node.Chain()
		if len(cur) < len(prev) {
			t.Fatalf("round %d: chain shrank from %d to %d", r, len(prev), len(cur))
		}
		for i := range prev {
			if cur[i] != prev[i] {
				t.Fatalf("round %d: finalized entry %d changed from %v to %v",
					r, i, prev[i], cur[i])
			}
		}
		prev = cur
	}
	if len(prev) == 0 {
		t.Fatal("nothing ever finalized")
	}
}

// Several nodes join at the same time; all complete the handshake, align
// rounds, and their submissions get ordered.
func TestSimultaneousJoiners(t *testing.T) {
	t.Parallel()
	c, founders, _ := newCluster(t, 53, 5, 0)
	c.run(3)
	joinerIDs := []ids.ID{777001, 777002, 777003}
	joiners := make([]*Node, 0, len(joinerIDs))
	for _, id := range joinerIDs {
		node, err := NewJoiner(id)
		if err != nil {
			t.Fatal(err)
		}
		joiners = append(joiners, node)
		if err := c.net.Add(node); err != nil {
			t.Fatal(err)
		}
		c.nodes[id] = node
	}
	c.run(5)
	founderRound := c.nodes[founders[0]].Round()
	for _, j := range joiners {
		if j.Round() != founderRound {
			t.Fatalf("joiner %v at round %d, founders at %d", j.ID(), j.Round(), founderRound)
		}
	}
	for i, j := range joiners {
		j.SubmitEvent(float64(9000 + i))
	}
	c.run(90)
	chain := c.nodes[founders[0]].Chain()
	found := 0
	for _, e := range chain {
		if e.Value >= 9000 && e.Value < 9003 {
			found++
		}
	}
	if found != len(joiners) {
		t.Fatalf("%d joiner events ordered, want %d; chain %v", found, len(joiners), chain)
	}
	// All correct nodes still agree.
	checkChainPrefix(t, c.correctNodes())
}

// Multiple leaves in quick succession: the survivors keep finalizing as
// long as the n > 3f invariant holds among them.
func TestCascadingLeaves(t *testing.T) {
	t.Parallel()
	c, founders, _ := newCluster(t, 59, 8, 0)
	for i, id := range founders {
		c.nodes[id].SubmitEvent(float64(i))
	}
	c.run(10)
	c.nodes[founders[0]].Leave()
	c.run(2)
	c.nodes[founders[1]].Leave()
	c.run(100)
	if !c.nodes[founders[0]].Done() || !c.nodes[founders[1]].Done() {
		t.Fatal("leavers did not wind down")
	}
	survivors := c.correctNodes()[2:]
	chain := checkChainPrefix(t, survivors)
	if len(chain) == 0 {
		t.Fatal("survivors finalized nothing")
	}
	for _, node := range survivors {
		members := node.Members()
		if members.Contains(founders[0]) || members.Contains(founders[1]) {
			t.Fatalf("node %v still lists a leaver", node.ID())
		}
	}
}

// Worker caps {2, 3, 5} produce the same chains as the inline cap-1
// pipeline for the dynamic ordering protocol too.
func TestOrderingRunnersAgree(t *testing.T) {
	t.Parallel()
	run := func(workers int) []ChainEntry {
		rng := rand.New(rand.NewSource(61))
		all := ids.Sparse(rng, 6)
		members := ids.NewSet(all...)
		net := simnet.New(simnet.Config{MaxRounds: 5000, Workers: workers})
		defer net.Close()
		nodes := make([]*Node, 0, 5)
		for _, id := range all[:5] {
			node, err := NewFounder(id, members)
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, node)
			if err := net.Add(node); err != nil {
				t.Fatal(err)
			}
		}
		if err := net.AddByzantine(&equivocatingSubmitter{id: all[5], targets: all[:5]}); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 80; r++ {
			if r%3 == 0 {
				nodes[r%5].SubmitEvent(float64(r))
			}
			if err := net.RunRound(); err != nil {
				t.Fatal(err)
			}
		}
		return nodes[0].Chain()
	}
	base := run(1)
	if len(base) == 0 {
		t.Fatal("empty chains")
	}
	for _, workers := range []int{2, 3, 5} {
		got := run(workers)
		if len(base) != len(got) {
			t.Fatalf("workers=%d: chain lengths differ: %d vs %d", workers, len(base), len(got))
		}
		for i := range base {
			if base[i] != got[i] {
				t.Fatalf("workers=%d: chains diverge at %d: %v vs %v", workers, i, base[i], got[i])
			}
		}
	}
}
