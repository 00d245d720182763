package rotor

import (
	"uba/internal/census"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// Node is the standalone rotor-coordinator protocol (Algorithm 2): one
// rotor round per network round, dynamic n_v, termination on reselection.
//
//lint:complexity broadcasts=O(n) unicasts=0
type Node struct {
	id      ids.ID
	opinion wire.Value
	core    *Core
	cen     census.Census

	selections []Selection
	accepted   []AcceptedOpinion
}

var _ simnet.Process = (*Node)(nil)

// New returns a rotor participant whose (fixed) opinion is broadcast if it
// is ever selected as coordinator.
func New(id ids.ID, opinion wire.Value) *Node {
	return &Node{id: id, opinion: opinion, core: NewCore(id, 0)}
}

// ID implements simnet.Process.
func (n *Node) ID() ids.ID { return n.id }

// Done implements simnet.Process.
func (n *Node) Done() bool { return n.core.Terminated() }

// Step implements simnet.Process.
func (n *Node) Step(env *simnet.RoundEnv) {
	for m := range env.Inbox.All() {
		n.cen.Observe(m.From)
	}
	switch env.Round {
	case 1:
		n.core.BroadcastInit(env.Broadcast)
	case 2:
		n.core.EchoInits(env.Inbox, env.Broadcast)
	default:
		n.core.NoteInbox(env.Inbox, nil)
		sel := n.core.LoopRound(n.cen.N(), n.opinion, env.Broadcast)
		n.selections = append(n.selections, sel)
		if sel.OpinionOK {
			n.accepted = append(n.accepted, AcceptedOpinion{
				Round: env.Round,
				From:  sel.PrevCoordinator,
				X:     sel.Opinion,
			})
		}
	}
}

// Selections returns the per-loop-round outcomes, in order. The selection
// for loop round r (network round r+3) is Selections()[r].
func (n *Node) Selections() []Selection {
	out := make([]Selection, len(n.selections))
	copy(out, n.selections)
	return out
}

// AcceptedOpinions returns every coordinator opinion the node accepted.
func (n *Node) AcceptedOpinions() []AcceptedOpinion {
	out := make([]AcceptedOpinion, len(n.accepted))
	copy(out, n.accepted)
	return out
}

// AppendAcceptedOpinions appends the opinions accepted after the first
// from to dst and returns the extended slice. Acceptances are only ever
// appended, so a reader that remembers how many it has seen reads only
// the new ones.
func (n *Node) AppendAcceptedOpinions(dst []AcceptedOpinion, from int) []AcceptedOpinion {
	if from >= len(n.accepted) {
		return dst
	}
	return append(dst, n.accepted[from:]...)
}

// Candidates exposes C_v for tests and experiments.
func (n *Node) Candidates() *ids.Set { return n.core.Candidates() }

// NV exposes the node's current n_v.
func (n *Node) NV() int { return n.cen.N() }
