// Package ordering implements Algorithm 6 of the paper: total ordering of
// events in a dynamic network.
//
// Participants enter and leave over time (subject to n > 3f holding in
// every round). Each protocol round r, every member broadcasts the events
// it witnessed; the events received in round r+1 become the input pairs of
// a parallel-consensus execution tagged r+1 and scoped to the membership
// snapshot S at that moment. A round r' becomes final once the current
// round r satisfies r − r' > 5|S^{r'}|/2 + 2 (the paper's worst-case
// termination bound for the round-r' execution) and the execution has
// locally terminated; the output chain is the concatenation of the final
// executions' output pairs in (round, submitter id) order. The chain
// satisfies chain-prefix (any two correct chains are prefixes of one
// another) and chain-growth (events keep being appended while correct
// nodes submit).
//
// Finality never reverts, and both inputs of the rule — the node's round
// and an execution's termination — change only inside Step. So Step ends
// by releasing every final execution at the front of the in-flight list:
// its outputs are appended to the node's chain and its parallel-consensus
// state is dropped. A node therefore holds at most the executions of the
// last finality horizon (plus any still running), and the cost of a round
// does not grow with the length of the run. The chain itself is
// append-only: an entry, once returned by Chain, never changes.
//
// Membership machinery: a joiner broadcasts "present"; every member
// replies (ack, r) carrying its current round; the joiner adopts the
// majority round and the ack senders as its initial S. A join announced in
// round r takes effect in round r+2 — the first round the joiner actually
// participates in — so that a membership snapshot never includes a node
// that cannot yet speak. A leaver broadcasts "absent", participates in its
// outstanding executions until they terminate, and is excluded from every
// snapshot taken after the announcement arrives.
//
// Implementation notes: events are real-valued (the paper's consensus
// works on real numbers precisely so it can order arbitrary, non-binary
// events; applications hash richer payloads to values). Executions are
// kept apart on the wire by packing (round, submitter) into the 64-bit
// instance tag — rounds in the high 16 bits, the 48-bit node id below —
// which bounds a single system run to 2^16 rounds, ample for simulation.
package ordering

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"uba/internal/core/parallelcon"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// maxID is the largest node id the instance-tag packing supports.
const maxID = ids.ID(1)<<48 - 1

// ChainEntry is one totally-ordered event.
type ChainEntry struct {
	// Round is the protocol round whose execution decided the event.
	Round uint64
	// Submitter is the node that broadcast the event.
	Submitter ids.ID
	// Value is the event's value.
	Value float64
}

// String formats the entry for logs.
func (e ChainEntry) String() string {
	return fmt.Sprintf("r%d/%v=%g", e.Round, e.Submitter, e.Value)
}

// instanceTag packs a (round, submitter) pair into a wire instance id.
func instanceTag(round uint64, submitter ids.ID) uint64 {
	return round<<48 | uint64(submitter)
}

// run is one parallel-consensus execution that is not yet final.
type run struct {
	round   uint64
	node    *parallelcon.Node
	members int
}

// Node is one participant in the dynamic total-ordering protocol.
//
//lint:complexity broadcasts=O(n^2) unicasts=O(n)
type Node struct {
	id ids.ID

	joined  bool
	joining bool
	left    bool
	leaveRq bool
	leaving bool

	r          uint64            // protocol round
	activeFrom map[ids.ID]uint64 // membership with activation round
	firstRun   uint64            // first execution this node participates in

	pendingEvents []float64
	// runs holds the executions that are not yet final, in round order.
	runs []*run
	// chain is the outputs of the final executions [firstRun,
	// finalThrough]; finalThrough is 0 while none is final.
	chain        []ChainEntry
	finalThrough uint64
}

var _ simnet.Process = (*Node)(nil)

// NewFounder returns a founding member. All founders must be constructed
// with the same initial membership (the bootstrap agreement the paper's
// "initially r = 0" presumes) and added to the network before round 1.
func NewFounder(id ids.ID, initialMembers *ids.Set) (*Node, error) {
	if id > maxID {
		return nil, fmt.Errorf("ordering: id %v exceeds 48-bit instance packing", id)
	}
	active := make(map[ids.ID]uint64, initialMembers.Len())
	for _, m := range initialMembers.Members() {
		active[m] = 0
	}
	active[id] = 0
	return &Node{
		id:         id,
		joined:     true,
		activeFrom: active,
		firstRun:   1,
	}, nil
}

// NewJoiner returns a node that will join an already-running system via
// the present/ack handshake. Add it to the network at the round it should
// announce itself.
func NewJoiner(id ids.ID) (*Node, error) {
	if id > maxID {
		return nil, fmt.Errorf("ordering: id %v exceeds 48-bit instance packing", id)
	}
	return &Node{
		id:         id,
		activeFrom: make(map[ids.ID]uint64),
	}, nil
}

// ID implements simnet.Process.
func (n *Node) ID() ids.ID { return n.id }

// Done implements simnet.Process: true once the node has left and its
// outstanding executions have terminated.
func (n *Node) Done() bool { return n.left }

// SubmitEvent queues an event value for broadcast in the node's next
// round. Each round carries at most one event per node (the paper's "v
// witnesses an event m"); extra submissions queue up.
func (n *Node) SubmitEvent(value float64) {
	n.pendingEvents = append(n.pendingEvents, value)
}

// Leave makes the node announce absence in its next round and wind down.
func (n *Node) Leave() { n.leaveRq = true }

// Round returns the node's current protocol round.
func (n *Node) Round() uint64 { return n.r }

// Members returns the node's current membership snapshot (nodes active at
// the current round).
func (n *Node) Members() *ids.Set { return n.snapshot(n.r) }

func (n *Node) snapshot(round uint64) *ids.Set {
	s := ids.NewSet()
	for id, from := range n.activeFrom {
		if from <= round {
			s.Add(id)
		}
	}
	return s
}

// Step implements simnet.Process.
func (n *Node) Step(env *simnet.RoundEnv) {
	if n.left {
		return
	}
	if !n.joined {
		n.stepJoin(env)
		return
	}
	n.r++

	// Membership and event intake.
	type eventIn struct {
		submitter ids.ID
		value     float64
	}
	var intake []eventIn
	members := n.snapshot(n.r)
	for m := range env.Inbox.All() {
		switch p := m.Payload.(type) {
		case wire.Present:
			// Joiner announced in round r participates from r+2.
			if _, known := n.activeFrom[m.From]; !known {
				n.activeFrom[m.From] = n.r + 2
				env.Send(m.From, wire.Ack{Round: n.r})
			}
		case wire.Absent:
			delete(n.activeFrom, m.From)
		case wire.Event:
			if p.Round == n.r-1 && members.Contains(m.From) && len(p.Body) == 8 {
				value := math.Float64frombits(binary.LittleEndian.Uint64(p.Body))
				if !math.IsNaN(value) {
					intake = append(intake, eventIn{submitter: m.From, value: value})
				}
			}
		}
	}

	if n.leaveRq && !n.leaving {
		env.Broadcast(wire.Absent{})
		n.leaving = true
	}

	// Broadcast this round's own event, if any and not leaving.
	if !n.leaving && len(n.pendingEvents) > 0 {
		value := n.pendingEvents[0]
		n.pendingEvents = n.pendingEvents[1:]
		body := binary.LittleEndian.AppendUint64(nil, math.Float64bits(value))
		env.Broadcast(wire.Event{Round: n.r, Body: body})
	}

	// Start execution r with the intake pairs, scoped to the snapshot,
	// unless the node is winding down.
	if !n.leaving {
		inputs := make([]parallelcon.InputPair, 0, len(intake))
		sort.Slice(intake, func(i, j int) bool { return intake[i].submitter < intake[j].submitter })
		for _, e := range intake {
			inputs = append(inputs, parallelcon.InputPair{
				Instance: instanceTag(n.r, e.submitter),
				X:        wire.V(e.value),
			})
		}
		round := n.r
		n.runs = append(n.runs, &run{
			round:   round,
			members: members.Len(),
			node: parallelcon.New(n.id, inputs, parallelcon.Options{
				Members:        members,
				StartRound:     env.Round,
				RotorInstance:  instanceTag(round, 0),
				InstanceFilter: func(iid uint64) bool { return iid>>48 == round },
			}),
		})
	}

	// Drive every in-flight execution with this round's inbox, in round
	// order.
	allDone := true
	for _, rn := range n.runs {
		if !rn.node.Done() {
			rn.node.StepLocal(env.Round, env.Inbox, env.Broadcast)
		}
		if !rn.node.Done() {
			allDone = false
		}
	}

	if n.leaving && allDone {
		n.left = true
	}
	n.finalize()
}

// finalize releases the final executions at the front of n.runs: while
// the front execution is the next round after finalThrough (firstRun for
// the first) and past the finality horizon, its outputs join the chain in
// submitter order and its state is dropped.
func (n *Node) finalize() {
	next := n.firstRun
	if n.finalThrough > 0 {
		next = n.finalThrough + 1
	}
	k := 0
	for ; k < len(n.runs); k++ {
		rn := n.runs[k]
		if rn.round != next || !n.finalityHorizon(rn) {
			break
		}
		for _, pair := range rn.node.Outputs() {
			n.chain = append(n.chain, ChainEntry{
				Round:     rn.round,
				Submitter: ids.ID(pair.Instance & uint64(maxID)),
				Value:     pair.X.X,
			})
		}
		n.finalThrough = rn.round
		next++
	}
	n.runs = slices.Delete(n.runs, 0, k)
}

// stepJoin drives the present/ack handshake.
func (n *Node) stepJoin(env *simnet.RoundEnv) {
	if !n.joining {
		env.Broadcast(wire.Present{})
		n.joining = true
		return
	}
	// Collect acks, adopt the majority round, and the senders as S.
	counts := make(map[uint64]int)
	senders := ids.NewSet()
	for m := range env.Inbox.All() {
		if ack, ok := m.Payload.(wire.Ack); ok {
			counts[ack.Round]++
			senders.Add(m.From)
		}
	}
	if len(counts) == 0 {
		// No acks yet (e.g. announced into an empty round); re-announce.
		env.Broadcast(wire.Present{})
		return
	}
	var majority uint64
	best := -1
	for round, count := range counts {
		if count > best || (count == best && round < majority) {
			majority, best = round, count
		}
	}
	n.r = majority + 1
	for _, id := range senders.Members() {
		n.activeFrom[id] = 0
	}
	n.activeFrom[n.id] = 0
	n.joined = true
	n.firstRun = n.r + 1
	// Participation begins next round (protocol round r+1), matching the
	// activation round the members recorded.
}

// FirstRound returns the first execution round this node participates in.
func (n *Node) FirstRound() uint64 { return n.firstRun }

// finalityHorizon reports whether execution r' is final at current round
// r: locally terminated and past the paper's bound r − r' > 5|S|/2 + 2.
func (n *Node) finalityHorizon(rn *run) bool {
	if !rn.node.Done() {
		return false
	}
	return 2*(n.r-rn.round) > uint64(5*rn.members+4)
}

// Chain returns the node's current totally-ordered event chain: the
// outputs of all executions up to the largest R such that every execution
// in [FirstRound, R] is final, ordered by round and then submitter id.
// The result is a copy; it is nil while the chain is empty.
func (n *Node) Chain() []ChainEntry {
	return n.AppendChain(nil, 0)
}

// AppendChain appends the chain entries from position from onward to dst
// and returns the extended slice. The chain is append-only, so a reader
// that remembers how many entries it has seen reads only the new ones.
func (n *Node) AppendChain(dst []ChainEntry, from int) []ChainEntry {
	if from >= len(n.chain) {
		return dst
	}
	return append(dst, n.chain[from:]...)
}

// FinalizedThrough returns the largest round R such that all executions in
// [FirstRound, R] are final (0 if none).
func (n *Node) FinalizedThrough() uint64 { return n.finalThrough }
