// Package rotor implements Algorithm 2 of the paper: the
// rotor-coordinator in the id-only model.
//
// The rotor-coordinator gives the correct nodes a sequence of common
// coordinators such that, before any correct node terminates, there is at
// least one "good round" — a round in which every correct node selected
// the same, correct coordinator and accepted its opinion. With known f and
// consecutive identifiers this is trivial (rotate through ids 1..f+1);
// with unknown n, f and sparse identifiers it is the paper's key technical
// device.
//
// Every node reliably-broadcasts its candidacy (init/echo), maintains a
// candidate set C_v in reliable-broadcast fashion, selects C_v[r mod |C_v|]
// as round r's coordinator, and terminates upon reselecting a node it has
// selected before. The counting argument of Lemma 4 shows |C_v| always
// exceeds the current loop round index until a good round has happened, so
// reselection cannot occur too early.
//
// The package exposes two layers: Core, the embeddable per-round state
// machine (consensus executes one Core round per phase), and Node, the
// standalone protocol of the paper.
package rotor

import (
	"uba/internal/census"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// AcceptedOpinion records a coordinator opinion accepted by a node: in
// round Round, the node accepted X as the opinion of coordinator From.
type AcceptedOpinion struct {
	Round int
	From  ids.ID
	X     wire.Value
}

// Core is the embeddable rotor state machine. The owner feeds it every
// inbox via NoteInbox and executes one rotor round via LoopRound whenever
// the owning protocol's schedule says so (every round for the standalone
// node; once per five-round phase for consensus).
//
// Echo tallies accumulate distinct senders between consecutive LoopRound
// calls, which reduces to the paper's per-round counts when rotor rounds
// are executed back-to-back, and generalizes them to the embedded setting
// where the echoes of one rotor round land several real rounds before the
// next rotor round executes.
type Core struct {
	self     ids.ID
	instance uint64

	candidates ids.Set // C_v, ordered by id
	selected   ids.Set // S_v

	echoes       echoTally             // candidate -> distinct senders this window
	opinions     map[ids.ID]wire.Value // sender -> opinion this window
	lastSelected ids.ID

	loopRound  int
	terminated bool
	cycling    bool
}

// NewCore returns a rotor core for the given node. instance tags the
// opinion messages (0 for the standalone protocol; parallel-consensus
// instances pass their id).
func NewCore(self ids.ID, instance uint64) *Core {
	return &Core{
		self:     self,
		instance: instance,
		opinions: make(map[ids.ID]wire.Value),
	}
}

// SetCycling makes the core keep rotating coordinators after a
// reselection instead of terminating. The standalone protocol terminates
// on reselection (Algorithm 2's break); an embedding protocol like
// consensus supplies its own termination and needs the coordinator
// rotation to stay live for as long as it runs.
func (c *Core) SetCycling(cycling bool) { c.cycling = cycling }

// SeedCandidates pre-populates C_v. The dynamic-network protocols scope a
// run to a known membership snapshot S and skip the two init rounds by
// seeding C_v = S.
func (c *Core) SeedCandidates(members *ids.Set) {
	if c.candidates.Len() == 0 {
		c.candidates = *members.Clone()
		return
	}
	for _, id := range members.Members() {
		c.candidates.Add(id)
	}
}

// BroadcastInit emits the round-1 candidacy announcement.
func (c *Core) BroadcastInit(emit func(wire.Payload)) {
	emit(wire.Init{})
}

// EchoInits emits echo(p) for every init received directly from p
// (round 2 of the protocol).
func (c *Core) EchoInits(inbox simnet.Inbox, emit func(wire.Payload)) {
	for m := range inbox.All() {
		if _, ok := m.Payload.(wire.Init); ok {
			emit(wire.IDEcho{Instance: c.instance, Candidate: m.From})
		}
	}
}

// NoteInbox records the rotor-relevant messages of one delivered inbox:
// candidate echoes (tallied by distinct sender until the next LoopRound)
// and coordinator opinions. members, when non-nil, is the owner's frozen
// census: senders outside it are ignored and an echo's sender bit is its
// census slot. A nil members accepts every sender and numbers senders on
// first sight (the standalone protocol, whose n_v never freezes). An
// inbox holds each sender's messages back to back, so the census lookup
// is made once per run of messages from one sender.
func (c *Core) NoteInbox(inbox simnet.Inbox, members *census.Frozen) {
	var from ids.ID
	started, ok := false, false
	for m := range inbox.All() {
		if !started || m.From != from {
			from, started, ok = m.From, true, true
			var bit int
			if members != nil {
				bit, ok = members.Slot(from)
			} else {
				bit = c.echoes.senderBit(from)
			}
			c.echoes.begin(bit)
		}
		if !ok {
			continue
		}
		switch p := m.Payload.(type) {
		case wire.IDEcho:
			if p.Instance != c.instance {
				continue
			}
			c.echoes.add(p.Candidate)
		case wire.Opinion:
			if p.Instance != c.instance {
				continue
			}
			c.opinions[m.From] = p.X
		}
	}
}

// Selection is the outcome of one rotor round.
type Selection struct {
	// Coordinator is the node selected this round (ids.None if the
	// candidate set was still empty — cannot happen after a correct
	// initialization, but defended against).
	Coordinator ids.ID
	// Opinion and OpinionOK report the opinion accepted this round from
	// the coordinator selected in the previous rotor round.
	Opinion   wire.Value
	OpinionOK bool
	// PrevCoordinator identifies who that opinion was accepted from.
	PrevCoordinator ids.ID
	// Terminated reports that the node reselected a previous
	// coordinator this round (Algorithm 2's break).
	Terminated bool
}

// LoopRound executes one iteration of Algorithm 2's main loop: fold the
// tallied echoes into C_v (echoing/adding in reliable-broadcast fashion),
// accept the previous coordinator's opinion, select the next coordinator,
// and — when this node is the coordinator — broadcast its opinion.
//
// nv is the caller's current n_v; opinion is the node's current opinion
// (x_v in consensus). Emitted payloads must be broadcast by the caller.
func (c *Core) LoopRound(nv int, opinion wire.Value, emit func(wire.Payload)) Selection {
	if c.terminated {
		return Selection{Terminated: true}
	}
	if emit == nil {
		emit = func(wire.Payload) {}
	}
	r := c.loopRound
	c.loopRound++

	// Reliable-broadcast style candidate maintenance (Lines 7-10).
	for _, row := range c.echoes.byCandidate() {
		p := c.echoes.cands[row]
		if c.candidates.Contains(p) {
			continue
		}
		count := c.echoes.counts[row]
		if census.AtLeastThird(count, nv) {
			emit(wire.IDEcho{Instance: c.instance, Candidate: p})
		}
		if census.AtLeastTwoThirds(count, nv) {
			c.candidates.Add(p)
		}
	}
	// Tallies are per-rotor-round: reset the window.
	c.echoes.reset()

	sel := Selection{PrevCoordinator: c.lastSelected}
	// Accept the opinion of the coordinator selected in the previous
	// rotor round (Line 14-15), if one arrived in this window.
	if c.lastSelected != ids.None {
		if x, ok := c.opinions[c.lastSelected]; ok {
			sel.Opinion = x
			sel.OpinionOK = true
		}
	}
	clear(c.opinions)

	if c.candidates.Len() == 0 {
		return sel
	}
	p := c.candidates.At(r % c.candidates.Len())
	sel.Coordinator = p

	if c.selected.Contains(p) {
		sel.Terminated = true
		if !c.cycling {
			// Line 16-17: reselection — terminate, skipping this
			// round's pending broadcasts exactly as the paper's
			// break does.
			c.terminated = true
			return sel
		}
	}
	c.selected.Add(p)
	if p == c.self {
		emit(wire.Opinion{Instance: c.instance, X: opinion})
	}
	c.lastSelected = p
	return sel
}

// Terminated reports whether the core has reselected a coordinator.
func (c *Core) Terminated() bool { return c.terminated }

// Candidates returns a copy of C_v.
func (c *Core) Candidates() *ids.Set { return c.candidates.Clone() }

// SelectedCount returns |S_v|.
func (c *Core) SelectedCount() int { return c.selected.Len() }
