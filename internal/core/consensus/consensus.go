// Package consensus implements Algorithm 3 of the paper: O(f)-round
// early-terminating Byzantine consensus in the id-only model.
//
// Every correct node has a real-number input; every correct node must
// output a common value within a finite number of rounds, and if all
// correct inputs are equal the output must be that value. The algorithm
// generalizes the king/phase-king family: the known thresholds n−f and
// f+1 become 2n_v/3 and n_v/3, and the rotating king becomes the
// rotor-coordinator of Algorithm 2.
//
// Round structure: two initialization rounds (rotor init + echo, which
// also fix n_v — the census is frozen and later messages from ids outside
// it are discarded), then five-round phases:
//
//	PR1: broadcast input(x_v)
//	PR2: tally inputs; on a 2n_v/3 quorum for x, broadcast prefer(x)
//	PR3: tally prefers; at n_v/3 adopt x, at 2n_v/3 broadcast
//	     strongprefer(x)
//	PR4: tally strongprefers (stored for PR5); execute one
//	     rotor-coordinator round with x_v as the opinion
//	PR5: the coordinator's opinion(x) arrives; with no n_v/3
//	     strongprefer quorum adopt the coordinator's opinion; with a
//	     2n_v/3 strongprefer(x) quorum terminate and output x
//
// Missing-sender substitution (the paper's rule, from the Algorithm 3
// caption): a censused node that does not send an expected message in a
// loop round is assumed to have sent whatever this node itself sent in
// the previous round. This keeps tallies meaningful after other correct
// nodes terminate (they go silent one phase before the rest).
//
// Reproduction note: substitution is only sound if *correct* nodes are
// never spuriously missing — a correct node that simply lacked a quorum
// must be distinguishable from a silent (terminated or Byzantine) slot,
// or different receivers substitute different phantom opinions for it and
// quorum intersection breaks (our randomized adversarial tests found
// executions where this produced disagreement). Algorithm 5 introduces
// the nopreference/nostrongpreference markers for exactly this purpose;
// since a single-instance run of Algorithm 5 is Algorithm 3, this
// implementation uses the markers in Algorithm 3 as well.
package consensus

import (
	"uba/internal/census"
	"uba/internal/core/rotor"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// PhaseRecord captures one phase for tests and experiments.
type PhaseRecord struct {
	// Phase is the 0-based phase index.
	Phase int
	// Coordinator is the rotor selection of this phase.
	Coordinator ids.ID
	// AdoptedCoordinator reports whether the node switched to the
	// coordinator's opinion in PR5.
	AdoptedCoordinator bool
	// X is the node's opinion at the end of the phase.
	X wire.Value
}

// Node is one correct consensus participant.
//
//lint:complexity broadcasts=O(n) unicasts=0
type Node struct {
	id ids.ID
	x  wire.Value

	core   *rotor.Core
	cen    census.Census
	frozen census.Frozen

	// lastSent remembers the node's own most recent message of each
	// tallied kind, for the substitution rule.
	lastSent map[wire.Kind]wire.Value
	hasSent  map[wire.Kind]bool

	// votes is the quorum-tally scratch every tallied round reuses.
	votes census.Tally
	// storedSP is the strongprefer quorum taken at PR4, resolved at PR5.
	// Between a PR5 and the next PR4 (and before the first) it is an
	// empty tally against the frozen n_v: a node that misses a PR4 (a
	// crash fault revives it mid-phase) resolves against that.
	storedSP census.Quorum

	coordinator ids.ID // selected at PR4 of the current phase

	phase   int
	decided bool
	output  wire.Value
	// decidedRound is the network round of termination.
	decidedRound int

	// noMarkers disables the nopreference/nostrongpreference markers —
	// deliberately unsound, kept for the marker-ablation experiment
	// that demonstrates why the markers are necessary.
	noMarkers bool

	history []PhaseRecord
}

var _ simnet.Process = (*Node)(nil)

// New returns a consensus participant with the given input.
func New(id ids.ID, input wire.Value) *Node {
	core := rotor.NewCore(id, 0)
	core.SetCycling(true)
	return &Node{
		id:       id,
		x:        input,
		core:     core,
		lastSent: make(map[wire.Kind]wire.Value),
		hasSent:  make(map[wire.Kind]bool),
	}
}

// NewWithoutMarkers returns a deliberately weakened participant that
// omits the no-quorum markers: a correct node lacking a quorum is then
// indistinguishable from a silent slot, so receivers substitute their own
// divergent phantom opinions for it. This variant exists ONLY for the
// marker-ablation experiment (it can disagree under adversarial noise);
// never use it outside that context.
func NewWithoutMarkers(id ids.ID, input wire.Value) *Node {
	n := New(id, input)
	n.noMarkers = true
	return n
}

// SetInput replaces the node's input. It is only meaningful before the
// first phase begins (network round 3); terminating reliable broadcast
// uses it because its opinion — the message received from the source —
// only becomes known during round 2.
func (n *Node) SetInput(x wire.Value) { n.x = x }

// ID implements simnet.Process.
func (n *Node) ID() ids.ID { return n.id }

// Done implements simnet.Process.
func (n *Node) Done() bool { return n.decided }

// Output returns the decided value, if any.
func (n *Node) Output() (wire.Value, bool) { return n.output, n.decided }

// DecidedRound returns the network round in which the node terminated
// (0 if still running).
func (n *Node) DecidedRound() int { return n.decidedRound }

// Phases returns the number of complete phases executed.
func (n *Node) Phases() int { return n.phase }

// History returns per-phase records for analysis.
func (n *Node) History() []PhaseRecord {
	out := make([]PhaseRecord, len(n.history))
	copy(out, n.history)
	return out
}

// NV returns the frozen n_v (0 before initialization completes).
func (n *Node) NV() int { return n.frozen.N() }

// Step implements simnet.Process.
func (n *Node) Step(env *simnet.RoundEnv) {
	switch env.Round {
	case 1:
		n.observeAll(env)
		n.core.BroadcastInit(env.Broadcast)
		return
	case 2:
		n.observeAll(env)
		n.core.EchoInits(env.Inbox, env.Broadcast)
		// Freeze n_v: ids heard during initialization are the
		// protocol's world; everything else is discarded later.
		n.frozen = n.cen.Freeze()
		n.storedSP = census.Quorum{N: n.frozen.N()}
		return
	}

	// Loop rounds. Feed the rotor core every inbox (its candidate
	// echoes arrive one round after each rotor round executes).
	n.core.NoteInbox(env.Inbox, &n.frozen)

	switch (env.Round - 3) % 5 {
	case 0: // PR1: broadcast input
		n.send(env, wire.Input{X: n.x})
	case 1: // PR2: tally inputs, maybe prefer
		q := n.tally(env.Inbox, wire.KindInput).Best()
		if q.AtLeastTwoThirds() {
			n.send(env, wire.Prefer{X: q.X})
		} else {
			// No quorum: announce it. Without the marker, other
			// correct nodes would substitute their own opinions for
			// this node (the rule exists for silent — terminated or
			// Byzantine — slots), creating receiver-specific phantom
			// counts that can break quorum intersection. Algorithm 5
			// introduces exactly these markers; a single-instance run
			// of it is Algorithm 3, so they belong here too.
			if !n.noMarkers {
				env.Broadcast(wire.NoPreference{})
			}
			delete(n.hasSent, wire.KindPrefer)
		}
	case 2: // PR3: tally prefers, maybe adopt and strongprefer
		q := n.tally(env.Inbox, wire.KindPrefer).Best()
		if q.AtLeastThird() {
			n.x = q.X
		}
		if q.AtLeastTwoThirds() {
			n.send(env, wire.StrongPrefer{X: q.X})
		} else {
			if !n.noMarkers {
				env.Broadcast(wire.NoStrongPreference{})
			}
			delete(n.hasSent, wire.KindStrongPrefer)
		}
	case 3: // PR4: store the strongprefer quorum, run a rotor round
		n.storedSP = n.tally(env.Inbox, wire.KindStrongPrefer).Best()
		sel := n.core.LoopRound(n.frozen.N(), n.x, env.Broadcast)
		n.coordinator = sel.Coordinator
	case 4: // PR5: resolve against the coordinator, maybe terminate
		n.resolve(env)
	}
}

// resolve implements PR5: adopt the coordinator's opinion when no
// strongprefer value reached n_v/3, and terminate on a 2n_v/3 quorum.
func (n *Node) resolve(env *simnet.RoundEnv) {
	coordOpinion, coordOK := n.coordinatorOpinion(env.Inbox)

	q := n.storedSP
	adopted := false
	if q.LessThanThird() {
		if coordOK {
			n.x = coordOpinion
			adopted = true
		}
	}
	if q.AtLeastTwoThirds() {
		n.decided = true
		n.output = q.X
		n.decidedRound = env.Round
	}
	n.history = append(n.history, PhaseRecord{
		Phase:              n.phase,
		Coordinator:        n.coordinator,
		AdoptedCoordinator: adopted,
		X:                  n.x,
	})
	n.phase++
	n.storedSP = census.Quorum{N: n.frozen.N()}
}

// coordinatorOpinion extracts the opinion(x) sent by this phase's
// coordinator, if it arrived.
func (n *Node) coordinatorOpinion(inbox simnet.Inbox) (wire.Value, bool) {
	if n.coordinator == ids.None {
		return wire.Value{}, false
	}
	for m := range inbox.All() {
		if m.From != n.coordinator || !n.frozen.Contains(m.From) {
			continue
		}
		if op, ok := m.Payload.(wire.Opinion); ok && op.Instance == 0 {
			return op.X, true
		}
	}
	return wire.Value{}, false
}

// send broadcasts p and records it for the substitution rule.
func (n *Node) send(env *simnet.RoundEnv, p wire.Payload) {
	env.Broadcast(p)
	switch m := p.(type) {
	case wire.Input:
		n.lastSent[wire.KindInput] = m.X
		n.hasSent[wire.KindInput] = true
	case wire.Prefer:
		n.lastSent[wire.KindPrefer] = m.X
		n.hasSent[wire.KindPrefer] = true
	case wire.StrongPrefer:
		n.lastSent[wire.KindStrongPrefer] = m.X
		n.hasSent[wire.KindStrongPrefer] = true
	}
}

// tally counts the round's messages of the given kind from censused
// senders and applies the substitution rule for censused ids that sent
// nothing of that kind. The returned tally is the node's scratch, valid
// until the next call.
func (n *Node) tally(inbox simnet.Inbox, kind wire.Kind) *census.Tally {
	t := &n.votes
	t.Reset(n.frozen.N())
	for slot, m := range n.frozen.Censused(inbox) {
		switch p := m.Payload.(type) {
		case wire.Input:
			if kind == wire.KindInput && p.Instance == 0 {
				t.Vote(slot, p.X)
			}
		case wire.Prefer:
			if kind == wire.KindPrefer && p.Instance == 0 {
				t.Vote(slot, p.X)
			}
		case wire.NoPreference:
			// A no-quorum marker: the sender is present (so no
			// substitution for it) but contributes no opinion.
			if kind == wire.KindPrefer && p.Instance == 0 {
				t.Mark(slot)
			}
		case wire.StrongPrefer:
			if kind == wire.KindStrongPrefer && p.Instance == 0 {
				t.Vote(slot, p.X)
			}
		case wire.NoStrongPreference:
			if kind == wire.KindStrongPrefer && p.Instance == 0 {
				t.Mark(slot)
			}
		}
	}
	// Substitution: every censused id with no message of this kind this
	// round is assumed to have sent what this node sent last round.
	if n.hasSent[kind] {
		t.Fill(n.lastSent[kind])
	}
	return t
}

// observeAll tracks senders during initialization.
func (n *Node) observeAll(env *simnet.RoundEnv) {
	for m := range env.Inbox.All() {
		n.cen.Observe(m.From)
	}
}
