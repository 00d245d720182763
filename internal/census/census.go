// Package census implements n_v tracking and the quorum arithmetic of the
// id-only model.
//
// Nodes in the id-only model do not know n (the number of nodes) or f (the
// bound on Byzantine nodes). The paper's central device is to replace both
// with n_v — the number of distinct nodes that sent at least one message
// to node v up to the current round — and the thresholds n_v/3 and 2n_v/3.
// Because every correct node transmits in the first round, n_v is at least
// the number of correct nodes g, and because a node can receive from at
// most n nodes, n_v ≤ n; these two bounds drive every lemma in the paper.
//
// Census is that bookkeeping: a monotone set of observed sender ids, plus
// the exact threshold comparisons ("at least n_v/3", "at least 2n_v/3",
// "less than n_v/3") in overflow-safe integer arithmetic.
//
// Once a protocol fixes its n_v (Algorithm 3 after initialization,
// Algorithm 5 from a membership snapshot), the census is Frozen: a
// sorted slice of the ids the node heard, so one binary search answers
// both "is this sender censused?" and "which dense slot is it?". The
// slots number only ids the node has heard; nothing here learns n or f.
// Tally is the quorum kernel Algorithms 3 and 5 count with: votes by
// value over those slots, the substitution fill for silent members, and
// the n_v/3 and 2n_v/3 decisions on the leading value (Quorum). The
// rotor-coordinator (Algorithm 2) counts its echoes over the same slots.
package census

import (
	"iter"
	"slices"

	"uba/internal/ids"
	"uba/internal/simnet"
)

// Census records the distinct nodes a given node has received at least
// one message from. The zero value is an empty census ready to use.
type Census struct {
	seen map[ids.ID]struct{}
}

// New returns an empty census.
func New() *Census {
	return &Census{seen: make(map[ids.ID]struct{})}
}

// Observe records that a message from sender has been received. It
// reports whether the sender was new to the census.
func (c *Census) Observe(sender ids.ID) bool {
	if c.seen == nil {
		c.seen = make(map[ids.ID]struct{})
	}
	if _, ok := c.seen[sender]; ok {
		return false
	}
	c.seen[sender] = struct{}{}
	return true
}

// N returns n_v, the number of distinct observed senders.
func (c *Census) N() int { return len(c.seen) }

// Contains reports whether sender has been observed.
func (c *Census) Contains(sender ids.ID) bool {
	_, ok := c.seen[sender]
	return ok
}

// Members returns the observed sender ids as an ordered set.
func (c *Census) Members() *ids.Set {
	s := ids.NewSet()
	for id := range c.seen {
		s.Add(id)
	}
	return s
}

// Freeze returns an immutable snapshot of the census. The consensus
// algorithm (Alg 3) freezes n_v after initialization and thereafter only
// accepts messages from ids counted during initialization.
func (c *Census) Freeze() Frozen {
	members := make([]ids.ID, 0, len(c.seen))
	for id := range c.seen {
		members = append(members, id)
	}
	slices.Sort(members)
	return Frozen{members: members}
}

// FrozenOf returns the frozen census of a known membership snapshot (the
// dynamic-network protocols start a run from one).
func FrozenOf(members *ids.Set) Frozen {
	return Frozen{members: members.Members()}
}

// Frozen is an immutable census snapshot. Its members are held in
// ascending id order, and a member's index in that order is its dense
// slot: the index tallies count it under.
type Frozen struct {
	members []ids.ID
}

// N returns the frozen n_v.
func (f Frozen) N() int { return len(f.members) }

// Slot returns sender's dense slot in [0, N()) and whether sender was
// part of the snapshot.
func (f Frozen) Slot(sender ids.ID) (int, bool) {
	return slices.BinarySearch(f.members, sender)
}

// Censused yields the messages of a delivered inbox whose sender was
// part of the snapshot, each with its sender's slot. An inbox holds each
// sender's messages back to back, so the slot is looked up once per run
// of messages from one sender, not once per message.
func (f Frozen) Censused(inbox simnet.Inbox) iter.Seq2[int, simnet.Received] {
	return func(yield func(int, simnet.Received) bool) {
		var from ids.ID
		started, slot, ok := false, 0, false
		for m := range inbox.All() {
			if !started || m.From != from {
				from, started = m.From, true
				slot, ok = f.Slot(from)
			}
			if ok && !yield(slot, m) {
				return
			}
		}
	}
}

// Contains reports whether sender was part of the snapshot.
func (f Frozen) Contains(sender ids.ID) bool {
	_, ok := f.Slot(sender)
	return ok
}

// Members returns the snapshot membership as an ordered set.
func (f Frozen) Members() *ids.Set {
	return ids.NewSet(f.members...)
}

// AtLeastThird reports count ≥ n/3, the paper's "received at least n_v/3
// messages" condition, computed as 3·count ≥ n to avoid rationals.
func AtLeastThird(count, n int) bool { return 3*count >= n }

// AtLeastTwoThirds reports count ≥ 2n/3, the paper's "received at least
// 2n_v/3 messages" condition, computed as 3·count ≥ 2n.
func AtLeastTwoThirds(count, n int) bool { return 3*count >= 2*n }

// LessThanThird reports count < n/3, the condition under which the
// consensus algorithm adopts the coordinator's opinion.
func LessThanThird(count, n int) bool { return 3*count < n }

// DiscardCount returns ⌊n/3⌋, the number of extreme values the
// approximate-agreement algorithm discards from each end.
func DiscardCount(n int) int { return n / 3 }
