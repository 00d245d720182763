package consensus

import (
	"testing"

	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// initNode builds a node with a frozen census of the given ids (driving
// the two real init rounds).
func initNode(t *testing.T, self ids.ID, censusIDs []ids.ID, input wire.Value) *Node {
	t.Helper()
	node := New(self, input)
	node.Step(&simnet.RoundEnv{Round: 1})
	inbox := make([]simnet.Received, 0, len(censusIDs))
	for _, id := range censusIDs {
		inbox = append(inbox, simnet.Received{From: id, Payload: wire.Init{}})
	}
	node.Step(&simnet.RoundEnv{Round: 2, Inbox: simnet.InboxOf(inbox...)})
	if node.NV() != len(censusIDs) {
		t.Fatalf("frozen n_v = %d, want %d", node.NV(), len(censusIDs))
	}
	return node
}

func rcv(from ids.ID, p wire.Payload) simnet.Received {
	return simnet.Received{From: from, Payload: p}
}

// The substitution rule in isolation: after the node has sent an input,
// censused ids with no message of the kind contribute the node's own
// value; marker senders count as present and contribute nothing.
func TestTallySubstitutionSemantics(t *testing.T) {
	t.Parallel()
	censusIDs := []ids.ID{1, 2, 3, 4, 5}
	node := initNode(t, 1, censusIDs, wire.V(7))

	// PR1: node broadcasts input(7); lastSent[input] = 7.
	node.Step(&simnet.RoundEnv{Round: 3})

	// Tally of an inbox where only 1 (self) and 2 sent inputs: ids 3,
	// 4, 5 are missing and substitute the node's own 7.
	tally := node.tally(simnet.InboxOf(
		rcv(1, wire.Input{X: wire.V(7)}),
		rcv(2, wire.Input{X: wire.V(9)}),
	), wire.KindInput)
	if got := tally.Count(wire.V(7)); got != 1+3 {
		t.Fatalf("count(7) = %d, want 4 (self + 3 substituted)", got)
	}
	if got := tally.Count(wire.V(9)); got != 1 {
		t.Fatalf("count(9) = %d, want 1", got)
	}
}

func TestTallyMarkersPreventSubstitution(t *testing.T) {
	t.Parallel()
	censusIDs := []ids.ID{1, 2, 3}
	node := initNode(t, 1, censusIDs, wire.V(5))
	// Simulate having sent a prefer previously.
	node.send(&simnet.RoundEnv{Round: 4}, wire.Prefer{X: wire.V(5)})

	// Node 2 sends a marker, node 3 is silent: only node 3 substitutes.
	tally := node.tally(simnet.InboxOf(
		rcv(1, wire.Prefer{X: wire.V(5)}),
		rcv(2, wire.NoPreference{}),
	), wire.KindPrefer)
	if got := tally.Count(wire.V(5)); got != 1+1 {
		t.Fatalf("count(5) = %d, want 2 (self + substituted node 3)", got)
	}
}

func TestTallyNoSubstitutionWithoutOwnSend(t *testing.T) {
	t.Parallel()
	censusIDs := []ids.ID{1, 2, 3}
	node := initNode(t, 1, censusIDs, wire.V(5))
	// The node never sent a strongprefer: no fills for missing senders.
	tally := node.tally(simnet.InboxOf(
		rcv(2, wire.StrongPrefer{X: wire.V(1)}),
	), wire.KindStrongPrefer)
	if total := tally.Total(); total != 1 {
		t.Fatalf("total counted %d, want only the real message", total)
	}
}

func TestTallyIgnoresStrangersAndForeignInstances(t *testing.T) {
	t.Parallel()
	censusIDs := []ids.ID{1, 2, 3}
	node := initNode(t, 1, censusIDs, wire.V(5))
	tally := node.tally(simnet.InboxOf(
		rcv(99, wire.Input{X: wire.V(1)}),             // stranger
		rcv(2, wire.Input{Instance: 7, X: wire.V(1)}), // tagged for another protocol
	), wire.KindInput)
	if total := tally.Total(); total != 0 {
		t.Fatalf("counted %d messages, want 0", total)
	}
}

// Byzantine double-voting: two different values from one censused sender
// both count (the model allows distinct payloads in one round), but the
// sender is only "present" once, so no substitution is added for it.
func TestTallyDoubleVoteCountsBothValues(t *testing.T) {
	t.Parallel()
	censusIDs := []ids.ID{1, 2}
	node := initNode(t, 1, censusIDs, wire.V(0))
	node.Step(&simnet.RoundEnv{Round: 3}) // sends input(0)
	tally := node.tally(simnet.InboxOf(
		rcv(1, wire.Input{X: wire.V(0)}),
		rcv(2, wire.Input{X: wire.V(3)}),
		rcv(2, wire.Input{X: wire.V(4)}),
	), wire.KindInput)
	if tally.Count(wire.V(3)) != 1 || tally.Count(wire.V(4)) != 1 {
		t.Fatalf("double vote miscounted: count(3) = %d, count(4) = %d",
			tally.Count(wire.V(3)), tally.Count(wire.V(4)))
	}
	if tally.Count(wire.V(0)) != 1 {
		t.Fatalf("count(0) = %d, want 1 (no substitution: everyone present)",
			tally.Count(wire.V(0)))
	}
}

func TestCoordinatorOpinionRequiresCensusMember(t *testing.T) {
	t.Parallel()
	censusIDs := []ids.ID{1, 2, 3}
	node := initNode(t, 1, censusIDs, wire.V(0))
	node.coordinator = 99 // a coordinator id outside the census
	if _, ok := node.coordinatorOpinion(simnet.InboxOf(
		rcv(99, wire.Opinion{X: wire.V(5)}),
	)); ok {
		t.Fatal("opinion accepted from non-censused coordinator")
	}
	node.coordinator = 2
	x, ok := node.coordinatorOpinion(simnet.InboxOf(
		rcv(2, wire.Opinion{X: wire.V(5)}),
		rcv(3, wire.Opinion{X: wire.V(6)}), // not the coordinator
	))
	if !ok || !x.Equal(wire.V(5)) {
		t.Fatalf("coordinator opinion = (%v, %v)", x, ok)
	}
}

// NewWithoutMarkers actually omits the markers (the ablation depends on
// the difference being real).
func TestWithoutMarkersSendsNothingOnNoQuorum(t *testing.T) {
	t.Parallel()
	count := func(node *Node) int {
		node.Step(&simnet.RoundEnv{Round: 1})
		node.Step(&simnet.RoundEnv{Round: 2, Inbox: simnet.InboxOf(
			rcv(1, wire.Init{}), rcv(2, wire.Init{}), rcv(3, wire.Init{}),
		)})
		node.Step(&simnet.RoundEnv{Round: 3}) // PR1 input
		// PR2 with an inbox giving no 2n_v/3 quorum for any value.
		env := &simnet.RoundEnv{Round: 4, Inbox: simnet.InboxOf(
			rcv(1, wire.Input{X: wire.V(1)}),
			rcv(2, wire.Input{X: wire.V(2)}),
			rcv(3, wire.Input{X: wire.V(3)}),
		)}
		node.Step(env)
		return env.SendCount()
	}
	withMarkers := count(New(1, wire.V(1)))
	withoutMarkers := count(NewWithoutMarkers(1, wire.V(1)))
	if withMarkers != 1 {
		t.Fatalf("marker variant sent %d messages at PR2, want 1 (the marker)", withMarkers)
	}
	if withoutMarkers != 0 {
		t.Fatalf("ablated variant sent %d messages at PR2, want 0", withoutMarkers)
	}
}
