package ordering

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"uba/internal/ids"
	"uba/internal/simnet"
)

// history records every execution a node ever held, by round, so the
// from-scratch chain derivation can still see the executions Step has
// released.
type history map[uint64]*run

// record adds the node's current unfinalized executions.
func (h history) record(n *Node) {
	for _, rn := range n.runs {
		h[rn.round] = rn
	}
}

// rederive is the from-scratch chain derivation Step's incremental
// finalization replaced: walk the executions from FirstRound while each
// exists, has terminated and is past the horizon r − r' > 5|S|/2 + 2, and
// concatenate their outputs.
func rederive(n *Node, h history) ([]ChainEntry, uint64) {
	final := func(rn *run) bool {
		return rn.node.Done() && 2*(n.r-rn.round) > uint64(5*rn.members+4)
	}
	var lastFinal uint64
	for round := n.firstRun; ; round++ {
		rn, ok := h[round]
		if !ok || !final(rn) {
			break
		}
		lastFinal = round
	}
	if lastFinal == 0 {
		return nil, 0
	}
	var chain []ChainEntry
	for round := n.firstRun; round <= lastFinal; round++ {
		for _, pair := range h[round].node.Outputs() {
			chain = append(chain, ChainEntry{
				Round:     round,
				Submitter: ids.ID(pair.Instance & uint64(maxID)),
				Value:     pair.X.X,
			})
		}
	}
	return chain, lastFinal
}

// checkRederivation fails the test when the node's chain or finality
// horizon differs from the from-scratch derivation over h.
func checkRederivation(t *testing.T, when string, n *Node, h history) {
	t.Helper()
	want, wantThrough := rederive(n, h)
	if got := n.FinalizedThrough(); got != wantThrough {
		t.Fatalf("%s: node %v FinalizedThrough = %d, rederived %d", when, n.ID(), got, wantThrough)
	}
	if got := n.Chain(); !slices.Equal(got, want) {
		t.Fatalf("%s: node %v chain diverges from rederivation:\n got %v\nwant %v", when, n.ID(), got, want)
	}
}

// churnCluster runs founders (two of them silent Byzantine, one
// equivocating), two joiners and two leavers, every correct member
// submitting events, and hands each correct node to check after every
// round.
func churnCluster(t *testing.T, seed int64, rounds int, check func(round int, n *Node)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	all := ids.Sparse(rng, 10)
	// all[7:9] are counted in every snapshot but never added: silent
	// Byzantine members.
	founders, equivocator := all[:7], all[9]
	members := ids.NewSet(all...)
	net := simnet.New(simnet.Config{MaxRounds: rounds + 10})
	var nodes []*Node
	for _, id := range founders {
		node, err := NewFounder(id, members)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
		if err := net.Add(node); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.AddByzantine(&equivocatingSubmitter{id: equivocator, targets: founders}); err != nil {
		t.Fatal(err)
	}
	joinAt := map[int]bool{6: true, 23: true}
	for round := 1; round <= rounds; round++ {
		if joinAt[round] {
			joiner, err := NewJoiner(ids.Sparse(rng, 1)[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := net.Add(joiner); err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, joiner)
		}
		switch round {
		case 15:
			nodes[1].Leave()
		case 60:
			nodes[len(nodes)-1].Leave() // the second joiner
		}
		for i, n := range nodes {
			if rng.Intn(3) > 0 {
				n.SubmitEvent(float64(round*100 + i))
			}
		}
		if err := net.RunRound(); err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes {
			check(round, n)
		}
	}
}

// TestChainMatchesRederivation checks Step's incremental finalization
// against the from-scratch derivation after every round, then on node
// states where finality must stop early: at an execution that has not
// terminated, and at a missing execution.
func TestChainMatchesRederivation(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			hists := make(map[*Node]history)
			finalized := 0
			churnCluster(t, seed, 140, func(round int, n *Node) {
				h := hists[n]
				if h == nil {
					h = make(history)
					hists[n] = h
				}
				h.record(n)
				checkRederivation(t, fmt.Sprintf("round %d", round), n, h)
				finalized += len(n.chain)
			})
			if finalized == 0 {
				t.Fatal("no node finalized anything")
			}
		})
	}

	// tamper runs a churn cluster until some node's unfinalized
	// executions satisfy ready, edits them with cut, pushes the node's
	// round past every horizon and finalizes again.
	tamper := func(t *testing.T, ready func(runs []*run) (int, bool), cut func(n *Node, h history, k int)) {
		t.Helper()
		hists := make(map[*Node]history)
		done := false
		churnCluster(t, 5, 60, func(round int, n *Node) {
			h := hists[n]
			if h == nil {
				h = make(history)
				hists[n] = h
			}
			h.record(n)
			if done || round < 30 {
				return
			}
			k, ok := ready(n.runs)
			if !ok {
				return
			}
			done = true
			cut(n, h, k)
			n.r += 1000
			n.finalize()
			checkRederivation(t, "after tampering", n, h)
		})
		if !done {
			t.Fatal("no node reached the state to tamper with")
		}
	}
	t.Run("stops-at-unterminated", func(t *testing.T) {
		t.Parallel()
		// k is the first running execution, after a terminated one:
		// finality must stop before k.
		tamper(t, func(runs []*run) (int, bool) {
			k := slices.IndexFunc(runs, func(rn *run) bool { return !rn.node.Done() })
			return k, k > 0
		}, func(*Node, history, int) {})
	})
	t.Run("stops-at-gap", func(t *testing.T) {
		t.Parallel()
		// Drop execution k, between two terminated ones: finality must
		// stop before the gap.
		tamper(t, func(runs []*run) (int, bool) {
			for k := 1; k+1 < len(runs); k++ {
				if runs[k-1].node.Done() && runs[k+1].node.Done() {
					return k, true
				}
			}
			return 0, false
		}, func(n *Node, h history, k int) {
			delete(h, n.runs[k].round)
			n.runs = slices.Delete(n.runs, k, k+1)
		})
	})
}
