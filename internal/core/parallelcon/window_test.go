package parallelcon

import (
	"testing"

	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// driveInit runs a membership-mode node so the phase grid starts at
// round 1 deterministically.
func memberNode(self ids.ID, members []ids.ID, inputs []InputPair) *Node {
	return New(self, inputs, Options{Members: ids.NewSet(members...)})
}

func rcvP(from ids.ID, p wire.Payload) simnet.Received {
	return simnet.Received{From: from, Payload: p}
}

// Awareness window 1: id:input arriving at PR2 joins the instance.
func TestJoinViaInputWindow(t *testing.T) {
	t.Parallel()
	members := []ids.ID{1, 2, 3, 4}
	n := memberNode(1, members, nil)
	n.StepLocal(1, simnet.Inbox{}, func(wire.Payload) {}) // PR1: nothing (no inputs)
	n.StepLocal(2, simnet.InboxOf(
		rcvP(2, wire.Input{Instance: 9, X: wire.V(5)}),
	), func(wire.Payload) {})
	if !n.Aware(9) {
		t.Fatal("input at PR2 did not create awareness")
	}
}

// Awareness window 2: id:prefer (or its marker) arriving at PR3 joins.
func TestJoinViaPreferWindow(t *testing.T) {
	t.Parallel()
	members := []ids.ID{1, 2, 3, 4}
	for name, payload := range map[string]wire.Payload{
		"prefer":       wire.Prefer{Instance: 9, X: wire.V(5)},
		"nopreference": wire.NoPreference{Instance: 9},
	} {
		n := memberNode(1, members, nil)
		n.StepLocal(1, simnet.Inbox{}, func(wire.Payload) {})
		n.StepLocal(2, simnet.Inbox{}, func(wire.Payload) {})
		n.StepLocal(3, simnet.InboxOf(rcvP(2, payload)), func(wire.Payload) {})
		if !n.Aware(9) {
			t.Fatalf("%s at PR3 did not create awareness", name)
		}
	}
}

// Awareness window 3: id:strongprefer at PR4 joins — and the ⊥ fills make
// the instance terminate without output.
func TestJoinViaStrongPreferWindowTerminatesBot(t *testing.T) {
	t.Parallel()
	members := []ids.ID{1, 2, 3, 4}
	n := memberNode(1, members, nil)
	silent := func(wire.Payload) {}
	n.StepLocal(1, simnet.Inbox{}, silent)
	n.StepLocal(2, simnet.Inbox{}, silent)
	n.StepLocal(3, simnet.Inbox{}, silent)
	n.StepLocal(4, simnet.InboxOf(
		rcvP(2, wire.StrongPrefer{Instance: 9, X: wire.V(5)}),
	), silent)
	if !n.Aware(9) {
		t.Fatal("strongprefer at PR4 did not create awareness")
	}
	n.StepLocal(5, simnet.Inbox{}, silent) // PR5: resolve
	if r := n.DecisionRound(9); r != 5 {
		t.Fatalf("instance decided in round %d, want 5", r)
	}
	if len(n.Outputs()) != 0 {
		t.Fatalf("⊥-filled instance produced output: %v", n.Outputs())
	}
}

// First contact via an Opinion (the rotor round's message) is discarded.
func TestFirstContactViaOpinionIsIgnored(t *testing.T) {
	t.Parallel()
	members := []ids.ID{1, 2, 3, 4}
	n := memberNode(1, members, nil)
	silent := func(wire.Payload) {}
	n.StepLocal(1, simnet.Inbox{}, silent)
	n.StepLocal(2, simnet.Inbox{}, silent)
	n.StepLocal(3, simnet.Inbox{}, silent)
	n.StepLocal(4, simnet.Inbox{}, silent)
	n.StepLocal(5, simnet.InboxOf(
		rcvP(2, wire.Opinion{Instance: 9, X: wire.V(5)}),
	), silent)
	if n.Aware(9) {
		t.Fatal("joined via an opinion message")
	}
	// The instance is permanently ignored, even if joinable-window
	// messages arrive in a later phase.
	n.StepLocal(6, simnet.Inbox{}, silent) // phase 1 PR1
	n.StepLocal(7, simnet.InboxOf(
		rcvP(2, wire.Input{Instance: 9, X: wire.V(5)}),
	), silent)
	if n.Aware(9) {
		t.Fatal("ignored instance resurrected in phase 1")
	}
}

// First contact in the second phase is discarded regardless of kind.
func TestSecondPhaseContactIgnored(t *testing.T) {
	t.Parallel()
	members := []ids.ID{1, 2, 3, 4}
	n := memberNode(1, members, nil)
	silent := func(wire.Payload) {}
	for round := 1; round <= 6; round++ {
		n.StepLocal(round, simnet.Inbox{}, silent)
	}
	// Round 7 = phase 1, PR2: the input window of the wrong phase.
	n.StepLocal(7, simnet.InboxOf(
		rcvP(2, wire.Input{Instance: 11, X: wire.V(3)}),
	), silent)
	if n.Aware(11) {
		t.Fatal("second-phase input created awareness")
	}
}

// Messages from outside the membership snapshot never create awareness.
func TestStrangerCannotSeedInstance(t *testing.T) {
	t.Parallel()
	members := []ids.ID{1, 2, 3, 4}
	n := memberNode(1, members, nil)
	silent := func(wire.Payload) {}
	n.StepLocal(1, simnet.Inbox{}, silent)
	n.StepLocal(2, simnet.InboxOf(
		rcvP(77, wire.Input{Instance: 9, X: wire.V(5)}),
	), silent)
	if n.Aware(9) {
		t.Fatal("stranger seeded an instance")
	}
}

// AddInput before the grid starts registers (or overrides) an instance.
func TestAddInputBeforeGrid(t *testing.T) {
	t.Parallel()
	n := New(1, []InputPair{{Instance: 3, X: wire.V(1)}}, Options{})
	n.AddInput(InputPair{Instance: 3, X: wire.V(2)}) // override
	n.AddInput(InputPair{Instance: 4, X: wire.V(9)}) // new
	if !n.Aware(3) || !n.Aware(4) {
		t.Fatal("AddInput did not register instances")
	}
	if x := n.lookup(3).x; !x.Equal(wire.V(2)) {
		t.Fatalf("override failed: %v", x)
	}
}

// A node with no instances finishes after the first phase.
func TestEmptyRunFinishesAfterFirstPhase(t *testing.T) {
	t.Parallel()
	members := []ids.ID{1, 2, 3}
	n := memberNode(1, members, nil)
	silent := func(wire.Payload) {}
	for round := 1; round <= 4; round++ {
		n.StepLocal(round, simnet.Inbox{}, silent)
		if n.Done() {
			t.Fatalf("done before the phase completed (round %d)", round)
		}
	}
	n.StepLocal(5, simnet.Inbox{}, silent)
	if !n.Done() {
		t.Fatal("empty run not done after first phase")
	}
}
