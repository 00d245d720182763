// Package parallelcon implements Algorithm 5 of the paper:
// EarlyConsensus(id) and the ParallelConsensus protocol built from it.
//
// Parallel consensus agrees on a *set* of (instance-id, opinion) pairs
// when the correct nodes do not initially agree on which instances exist:
// every correct node starts EarlyConsensus(id) for each of its own input
// pairs, and joins instances it first hears about during the joinable
// windows of the first phase (an id:input in the second round, an
// id:prefer in the third, an id:strongprefer in the fifth). First contact
// outside those windows — in particular anything first heard in the
// second phase — is discarded, so a Byzantine node cannot spawn instances
// late.
//
// Properties (Theorem 5): validity (a pair (id, x), x ≠ ⊥, input at every
// correct node is output by every correct node), agreement (any pair
// output by one correct node is output by all), and termination in O(f)
// rounds. Pairs that decide the distinguished opinion ⊥ are never output
// — that is how instances no correct node vouched for vanish.
//
// Message accounting follows the paper's caption rules:
//
//   - a node aware of an instance that lacks an input/prefer quorum sends
//     id:nopreference / id:nostrongpreference markers, so other nodes do
//     not substitute an opinion for it;
//   - the first time a message family is received for an instance, every
//     censused node that sent nothing of that family is assumed to have
//     sent ⊥;
//   - afterwards, a censused node missing from a family's round is
//     assumed to have sent whatever this node itself sent most recently
//     for that family (⊥ if it never sent one).
//
// The five-round phase grid and the shared rotor-coordinator are exactly
// those of Algorithm 3; coordinator opinions are broadcast per instance.
//
// The package is reused by the dynamic total-ordering protocol
// (Algorithm 6), which runs many parallel-consensus executions
// concurrently: Options.Members scopes a run to a membership snapshot
// (skipping the two initialization rounds), Options.StartRound offsets the
// phase grid, Options.InstanceFilter separates the executions' message
// namespaces, and StepLocal lets an embedding protocol drive the run
// inside its own Step.
package parallelcon

import (
	"cmp"
	"slices"

	"uba/internal/census"
	"uba/internal/core/rotor"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// InputPair is one (instance id, opinion) input.
type InputPair struct {
	Instance uint64
	X        wire.Value
}

// OutputPair is one decided (instance id, opinion) pair with x ≠ ⊥.
type OutputPair struct {
	Instance uint64
	X        wire.Value
}

// family distinguishes the three tallied message families.
type family int

const (
	famInput family = iota
	famPrefer
	famStrongPrefer
	numFamilies

	famNone family = -1 // a message of no tallied family
)

// talliedAt returns the family tallied in the given round of a phase
// (PR2 inputs, PR3 prefers, PR4 strongprefers), or famNone. It is also
// the family whose messages may make a node join an instance in that
// round of the first phase.
func talliedAt(pr int) family {
	if pr >= 1 && pr <= 3 {
		return family(pr - 1)
	}
	return famNone
}

// Options configures a parallel-consensus run.
type Options struct {
	// Members, when non-nil, scopes the run to a known membership
	// snapshot: the census is frozen to it and the rotor candidate set
	// seeded with it, skipping the two initialization rounds (used by
	// the dynamic-network protocols, which know S when they start a
	// run). When nil, the run performs the standard init rounds.
	Members *ids.Set
	// StartRound is the network round at which this run begins
	// (default 1). The phase grid is laid out relative to it.
	StartRound int
	// RotorInstance tags the run's rotor candidate echoes so that
	// concurrent runs do not mix coordinators.
	RotorInstance uint64
	// InstanceFilter restricts which instance ids belong to this run
	// (nil accepts all). Concurrent runs partition the instance space.
	InstanceFilter func(uint64) bool
}

// instance is the per-EarlyConsensus(id) state.
type instance struct {
	id uint64
	x  wire.Value

	seenFamily [numFamilies]bool
	lastSent   [numFamilies]wire.Value
	hasSent    [numFamilies]bool

	// quorum is the instance's tally of the round's family.
	quorum census.Quorum
	// storedSP is the strongprefer quorum taken at PR4, resolved at
	// PR5. Between a PR5 and the next PR4 (and before the first) it is
	// an empty tally against the frozen n_v: a node that misses a PR4
	// (a crash fault revives it mid-phase) resolves against that.
	storedSP census.Quorum
	// coord is the coordinator's opinion received at PR5, if hasCoord.
	coord    wire.Value
	hasCoord bool

	decided  bool
	output   wire.Value
	hasOut   bool
	decRound int
}

// ballot is one tallied message: a vote for x, or a no-quorum marker,
// from the census slot of its sender.
type ballot struct {
	ins    *instance
	slot   int
	x      wire.Value
	marker bool
}

// Node is one correct parallel-consensus participant.
//
//lint:complexity broadcasts=O(n) unicasts=0
type Node struct {
	id   ids.ID
	opts Options

	cen    census.Census
	frozen census.Frozen // empty, so accepting no sender, until fixed

	core        *rotor.Core
	coordinator ids.ID

	inst    []*instance // ascending instance id
	ignored map[uint64]struct{}

	// Tally scratch, reused every round: the round's ballots and the
	// kernel.
	ballots []ballot
	votes   census.Tally

	phasesRun int
	done      bool
}

var _ simnet.Process = (*Node)(nil)

// New returns a participant with the given input pairs.
func New(id ids.ID, inputs []InputPair, opts Options) *Node {
	if opts.StartRound <= 0 {
		opts.StartRound = 1
	}
	core := rotor.NewCore(id, opts.RotorInstance)
	core.SetCycling(true)
	n := &Node{
		id:   id,
		opts: opts,
		core: core,
		inst: make([]*instance, 0, len(inputs)),
	}
	if opts.Members != nil {
		n.frozen = census.FrozenOf(opts.Members)
		core.SeedCandidates(opts.Members)
	}
	for _, in := range inputs {
		n.AddInput(in)
	}
	return n
}

// lookup returns the instance with the given id, or nil.
func (n *Node) lookup(id uint64) *instance {
	if i, ok := n.search(id); ok {
		return n.inst[i]
	}
	return nil
}

func (n *Node) search(id uint64) (int, bool) {
	return slices.BinarySearchFunc(n.inst, id, func(ins *instance, id uint64) int { return cmp.Compare(ins.id, id) })
}

// join adds a new instance, keeping n.inst in id order.
func (n *Node) join(id uint64, x wire.Value) *instance {
	ins := &instance{id: id, x: x, storedSP: census.Quorum{N: n.frozen.N()}}
	i, _ := n.search(id)
	n.inst = slices.Insert(n.inst, i, ins)
	return ins
}

// AddInput registers an additional input pair. It is only meaningful
// before the run's first phase round executes (embedding protocols that
// learn their inputs during initialization — e.g. interactive
// consistency, which disseminates values in round 1 and fixes pairs in
// round 2 — use it the way terminating reliable broadcast uses
// consensus.SetInput).
func (n *Node) AddInput(pair InputPair) {
	if ins := n.lookup(pair.Instance); ins != nil {
		ins.x = pair.X
		return
	}
	n.join(pair.Instance, pair.X)
}

// ID implements simnet.Process.
func (n *Node) ID() ids.ID { return n.id }

// Done implements simnet.Process.
func (n *Node) Done() bool { return n.done }

// Outputs returns the decided non-⊥ pairs, sorted by instance id.
func (n *Node) Outputs() []OutputPair {
	out := make([]OutputPair, 0, len(n.inst))
	for _, ins := range n.inst {
		if ins.decided && ins.hasOut {
			out = append(out, OutputPair{Instance: ins.id, X: ins.output})
		}
	}
	return out
}

// DecisionRound returns the round in which the given instance decided
// (0 if unknown or undecided).
func (n *Node) DecisionRound(instanceID uint64) int {
	if ins := n.lookup(instanceID); ins != nil && ins.decided {
		return ins.decRound
	}
	return 0
}

// Aware reports whether the node ever joined the instance.
func (n *Node) Aware(instanceID uint64) bool {
	return n.lookup(instanceID) != nil
}

// Phases returns the number of completed phases.
func (n *Node) Phases() int { return n.phasesRun }

// Step implements simnet.Process.
func (n *Node) Step(env *simnet.RoundEnv) {
	n.StepLocal(env.Round, env.Inbox, env.Broadcast)
}

// StepLocal runs one round of the protocol. Embedding protocols
// (total ordering) call it directly with their own send function and a
// pre-filtered inbox.
func (n *Node) StepLocal(round int, inbox simnet.Inbox, send func(wire.Payload)) {
	if n.done {
		return
	}
	local := round - n.opts.StartRound + 1
	if local < 1 {
		return
	}

	var loopLocal int
	if n.opts.Members == nil {
		switch local {
		case 1:
			n.observe(inbox)
			n.core.BroadcastInit(send)
			return
		case 2:
			n.observe(inbox)
			n.core.EchoInits(inbox, send)
			n.frozen = n.cen.Freeze()
			for _, ins := range n.inst {
				ins.storedSP = census.Quorum{N: n.frozen.N()}
			}
			return
		}
		loopLocal = local - 3
	} else {
		loopLocal = local - 1
	}

	n.core.NoteInbox(inbox, &n.frozen)
	pr := loopLocal % 5
	phase := loopLocal / 5

	fam := talliedAt(pr)
	n.scan(inbox, phase, fam)

	switch pr {
	case 0: // PR1: broadcast id:input(x) for every live instance with x ≠ ⊥
		for _, ins := range n.inst {
			if ins.decided {
				continue
			}
			if ins.x.IsBot {
				// No opinion to vouch for: stay silent this round
				// and fill missing senders with ⊥ next round.
				ins.hasSent[famInput] = false
				continue
			}
			send(wire.Input{Instance: ins.id, X: ins.x})
			ins.lastSent[famInput] = ins.x
			ins.hasSent[famInput] = true
		}
	case 1: // PR2: tally inputs; prefer or nopreference
		n.tally(fam)
		for _, ins := range n.inst {
			if ins.decided {
				continue
			}
			if q := ins.quorum; q.AtLeastTwoThirds() {
				send(wire.Prefer{Instance: ins.id, X: q.X})
				ins.lastSent[famPrefer] = q.X
				ins.hasSent[famPrefer] = true
			} else {
				send(wire.NoPreference{Instance: ins.id})
				ins.hasSent[famPrefer] = false
			}
		}
	case 2: // PR3: tally prefers; adopt at n_v/3; strongprefer at 2n_v/3
		n.tally(fam)
		for _, ins := range n.inst {
			if ins.decided {
				continue
			}
			q := ins.quorum
			if q.AtLeastThird() {
				ins.x = q.X
			}
			if q.AtLeastTwoThirds() {
				send(wire.StrongPrefer{Instance: ins.id, X: q.X})
				ins.lastSent[famStrongPrefer] = q.X
				ins.hasSent[famStrongPrefer] = true
			} else {
				send(wire.NoStrongPreference{Instance: ins.id})
				ins.hasSent[famStrongPrefer] = false
			}
		}
	case 3: // PR4: store strongprefer quorums; run the shared rotor round
		n.tally(fam)
		for _, ins := range n.inst {
			if !ins.decided {
				ins.storedSP = ins.quorum
			}
		}
		sel := n.core.LoopRound(n.frozen.N(), wire.Value{}, func(p wire.Payload) {
			// The core's own opinion message carries the rotor tag,
			// not a consensus instance; suppress it and broadcast
			// per-instance opinions below.
			if _, isOpinion := p.(wire.Opinion); isOpinion {
				return
			}
			send(p)
		})
		n.coordinator = sel.Coordinator
		if sel.Coordinator == n.id {
			for _, ins := range n.inst {
				if ins.decided {
					continue
				}
				send(wire.Opinion{Instance: ins.id, X: ins.x})
			}
		}
	case 4: // PR5: resolve per instance against the coordinator's opinion
		n.coordinatorOpinions(inbox)
		for _, ins := range n.inst {
			if ins.decided {
				continue
			}
			q := ins.storedSP
			ins.storedSP = census.Quorum{N: n.frozen.N()}
			if q.LessThanThird() && ins.hasCoord {
				ins.x = ins.coord
			}
			if q.AtLeastTwoThirds() {
				ins.decided = true
				ins.decRound = round
				if !q.X.IsBot {
					ins.output = q.X
					ins.hasOut = true
				}
			}
		}
		n.phasesRun = phase + 1
		if n.allDecided() {
			n.done = true
		}
	}
}

func (n *Node) allDecided() bool {
	for _, ins := range n.inst {
		if !ins.decided {
			return false
		}
	}
	return true
}

func (n *Node) accepts(instanceID uint64) bool {
	return n.opts.InstanceFilter == nil || n.opts.InstanceFilter(instanceID)
}

// scan is the round's one pass over the inbox. It joins instances first
// heard during the joinable windows of the first phase, permanently
// ignores every other first contact, and collects the ballots of the
// family fam tallies this round (none for famNone) for live instances.
func (n *Node) scan(inbox simnet.Inbox, phase int, fam family) {
	n.ballots = n.ballots[:0]
	for slot, m := range n.frozen.Censused(inbox) {
		var (
			iid    uint64
			x      wire.Value
			mfam   = famNone
			marker bool
		)
		switch p := m.Payload.(type) {
		case wire.Input:
			iid, x, mfam = p.Instance, p.X, famInput
		case wire.Prefer:
			iid, x, mfam = p.Instance, p.X, famPrefer
		case wire.NoPreference:
			iid, mfam, marker = p.Instance, famPrefer, true
		case wire.StrongPrefer:
			iid, x, mfam = p.Instance, p.X, famStrongPrefer
		case wire.NoStrongPreference:
			iid, mfam, marker = p.Instance, famStrongPrefer, true
		case wire.Instanced:
			iid = p.InstanceID()
		default:
			continue
		}
		ins := n.lookup(iid)
		if ins == nil {
			if !n.accepts(iid) {
				continue
			}
			if _, ign := n.ignored[iid]; ign {
				continue
			}
			// Only a message of the family this round tallies, in
			// the first phase, joins.
			if phase != 0 || fam == famNone || mfam != fam {
				if n.ignored == nil {
					n.ignored = make(map[uint64]struct{})
				}
				n.ignored[iid] = struct{}{}
				continue
			}
			ins = n.join(iid, wire.Bot())
		}
		if mfam == fam && fam != famNone && !ins.decided {
			n.ballots = append(n.ballots, ballot{ins: ins, slot: slot, x: x, marker: marker})
		}
	}
}

// tally counts the round's ballots of family fam for every live
// instance, applying the paper's substitution rules, and leaves each
// result in the instance's quorum. Marker ballots
// (nopreference/nostrongpreference) count their sender as present
// without contributing an opinion. The ballots are grouped by instance,
// so one kernel counts every instance in turn.
func (n *Node) tally(fam family) {
	// Stable, so each instance's ballots keep their inbox order.
	slices.SortStableFunc(n.ballots, func(a, b ballot) int { return cmp.Compare(a.ins.id, b.ins.id) })
	t := &n.votes
	rest := n.ballots
	for _, ins := range n.inst {
		k := 0
		for k < len(rest) && rest[k].ins == ins {
			k++
		}
		run := rest[:k]
		rest = rest[k:]
		if ins.decided {
			continue
		}
		t.Reset(n.frozen.N())
		for _, b := range run {
			if b.marker {
				t.Mark(b.slot)
			} else {
				t.Vote(b.slot, b.x)
			}
		}
		// Substitution for censused nodes that sent nothing of this
		// family: ⊥ on first receipt of the family, own most recent
		// message of the family afterwards (⊥ if never sent).
		fill := wire.Bot()
		if ins.seenFamily[fam] && ins.hasSent[fam] {
			fill = ins.lastSent[fam]
		}
		t.Fill(fill)
		if len(run) > 0 {
			ins.seenFamily[fam] = true
		}
		ins.quorum = t.Best()
	}
}

// coordinatorOpinions records the per-instance opinions sent by this
// phase's coordinator.
func (n *Node) coordinatorOpinions(inbox simnet.Inbox) {
	for _, ins := range n.inst {
		ins.hasCoord = false
	}
	if n.coordinator == ids.None || !n.frozen.Contains(n.coordinator) {
		return
	}
	for m := range inbox.All() {
		if m.From != n.coordinator {
			continue
		}
		if op, ok := m.Payload.(wire.Opinion); ok && n.accepts(op.Instance) {
			if ins := n.lookup(op.Instance); ins != nil {
				ins.coord, ins.hasCoord = op.X, true
			}
		}
	}
}

func (n *Node) observe(inbox simnet.Inbox) {
	for m := range inbox.All() {
		n.cen.Observe(m.From)
	}
}
