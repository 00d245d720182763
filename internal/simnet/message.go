// Package simnet is the synchronous message-passing substrate of the
// reproduction: a lock-step round simulator implementing exactly the
// communication model of the paper.
//
// Model rules enforced by the engine:
//
//   - Computation proceeds in rounds. Messages sent in round r are
//     delivered at the start of round r+1.
//   - A process can broadcast to all nodes (including itself and nodes it
//     has never heard of) or unicast to a specific node. For correct
//     processes the engine can verify the paper's contact rule: unicast
//     only to a node that has previously sent the sender a message.
//   - The sender identifier on every delivered message is stamped by the
//     engine, so a Byzantine node cannot forge its identifier when
//     communicating directly (it can still lie arbitrarily in message
//     contents).
//   - Duplicate messages from the same node within one round are
//     discarded by the receiver. Filtering is keyed on a 64-bit digest of
//     the canonical wire encoding, computed once at send time; digest
//     collisions fall back to comparing the full encodings, so the
//     filter is exact.
//
// # Fault containment
//
// The engine is a graceful-degradation layer: misbehavior of one
// process must not take down the run.
//
//   - A panic inside Process.Step is recovered and the node converted
//     into a deterministic crash fault: its crashing round produces no
//     sends, it is never stepped again, and it receives no further
//     messages. The transcript records a trace.KindNodeCrashed event;
//     Network.Crashes carries the panic values for debugging. Recovery
//     happens inside the per-node step task, before the node-order
//     merge, so transcripts stay byte-identical across worker counts.
//   - Config.SendQuota and Config.ByteQuota bound what one node can
//     queue per round. The drop policy is deterministic (the longest
//     queue prefix within budget survives) and recorded as a
//     trace.KindQuotaDrop event — the valve that contains Byzantine
//     amplification floods.
//   - Config.Observer receives each round at its boundary — its
//     accounting, then its engine events — and a DeliveryObserver also
//     a lazy Deliveries view of the round's traffic: the feed for the
//     online safety oracles in internal/oracle.
//
// One round pipeline executes the process state machines. It shards
// both halves of a round — the step phase over nodes and the
// route/delivery phase over receivers — across at most Config.Workers
// goroutines of the shared scheduler, with a barrier between them; at a
// cap of 1 both phases run inline on the calling goroutine. Every cap
// produces a byte-identical execution, which the test suite asserts by
// sweeping caps. The determinism argument: (1) step tasks write each
// node's sends into a per-node slot and the merge reads slots in node
// order, so the routed send stream is independent of worker
// scheduling; (2) routing
// decisions (sort, dedup, arena sizing) all happen in a single
// deterministic prepare pass before any worker runs; (3) each delivery
// worker owns a contiguous, disjoint range of receivers — inbox
// segments, contact sets and traffic tallies are all per-shard — and
// shard boundaries depend only on the worker cap and receiver count,
// never on timing; (4) per-shard tallies are reduced in shard order,
// and transcripts are expanded from the inbox views after the barrier
// in receiver order, so transcripts and reports are identical for
// every worker cap (cap 1 is the one-shard instance).
//
// # Sparse delivery and the buffer-recycling contract
//
// A broadcast is stored once per round, not once per receiver: the
// route pass materializes the round's surviving broadcasts into one
// shared broadcast block and each receiver's unicasts into a private
// segment of one unicast arena, so per-round storage is O(B + U)
// (B = surviving broadcasts, U = unicast deliveries) instead of the
// n·B of a fully materialized fan-out. Each inbox is an Inbox view —
// a lazy merge of the shared block with the receiver's segment — and
// the merge order reproduces the documented (sender, encoding) order
// exactly, so transcripts and dedup semantics are independent of the
// storage strategy.
//
// The engine recycles those round-scoped buffers aggressively: the
// RoundEnv passed to Process.Step, the broadcast block and unicast
// arena its Inbox view reads through, and the internal send buffers
// are all rewritten on the next round. Process.Step therefore MUST NOT
// retain env, env.Inbox, or an iterator obtained from env.Inbox.All()
// past the call. Copy individual Received values out (env.Inbox.At, a
// range over env.Inbox.All(), or env.Inbox.Slice) if state must
// survive the round; the values themselves (sender id, payload,
// encoding) are safe to keep. The contract is machine-checked by the
// ubalint retainenv pass.
package simnet

import (
	"iter"

	"uba/internal/ids"
	"uba/internal/wire"
)

// Received is one delivered message: the payload plus the authenticated
// sender identifier stamped by the network.
type Received struct {
	// From is the true sender, attached by the engine (unforgeable).
	From ids.ID
	// Payload is the decoded message body.
	Payload wire.Payload
	// encoded is the canonical encoding, retained for deterministic
	// ordering and duplicate filtering.
	encoded string
	// bcast marks a delivery that was part of a broadcast fan-out. It
	// is carried on the value (not derived from which arena holds it)
	// because fault-plan rounds demote broadcasts into per-receiver
	// arena entries; the transcript's Broadcast flag must survive that.
	bcast bool
}

// Size returns the encoded size of the message in bytes.
func (m Received) Size() int { return len(m.encoded) }

// send is a queued outbound message. to == ids.None means broadcast.
type send struct {
	from    ids.ID
	to      ids.ID
	payload wire.Payload
	encoded string
	// digest is a 64-bit FNV-1a hash of encoded, computed once at
	// Broadcast/Send time and used for duplicate filtering (with a
	// full-encoding fallback on collision).
	digest uint64
}

// FNV-1a constants (hash/fnv, inlined so the hot path hashes the encoded
// bytes without constructing a hash.Hash64).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// digest64 returns the FNV-1a hash of b.
//
//lint:noalloc inlined FNV-1a so send-time hashing constructs no hash.Hash64
func digest64(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// Inbox is a read-only view of the messages delivered to one receiver
// at the start of a round: a lazy merge of the round's shared broadcast
// block with the receiver's private unicast segment. The merged order
// is by sender id and then by canonical encoding (deterministic for
// every worker cap), and duplicates from the same sender have already been
// discarded — identical to the fully materialized inboxes it replaced,
// without the O(n·B) copies.
//
// An Inbox (and any iterator from All) is valid only until the Step
// call it was delivered to returns: the engine rewrites the backing
// block and arena when routing the next round (see the package docs).
// Individual Received values read through At, All, or Slice are plain
// copies and safe to keep.
type Inbox struct {
	// bcast is the round's shared broadcast block (every surviving
	// broadcast, in ascending send order), shared by all receivers;
	// bkeys holds the aligned global send indices the merge runs on.
	bcast []Received
	bkeys []int32
	// uni is this receiver's private unicast segment (ascending send
	// order); ukeys holds its aligned global send indices. Either side
	// may be empty, in which case its keys may be nil.
	uni   []Received
	ukeys []int32
}

// InboxOf returns an Inbox delivering exactly msgs in the given order —
// the constructor for tests and harnesses that drive a Process manually.
func InboxOf(msgs ...Received) Inbox {
	return Inbox{uni: msgs}
}

// Len returns the number of delivered messages.
//
//lint:noalloc a pair of len reads on the view's segments
func (in Inbox) Len() int { return len(in.bcast) + len(in.uni) }

// At returns the i-th delivered message in inbox order. It runs in
// O(log min(B, U)) — a binary search for the merge split — with O(1)
// fast paths when the inbox is all-broadcast or all-unicast.
//
//lint:valuecopy At returns a by-value Received copy that shares no round-scoped backing memory
//lint:noalloc the merge-split binary search indexes the view's existing segments
func (in Inbox) At(i int) Received {
	nb, nu := len(in.bcast), len(in.uni)
	if nu == 0 {
		return in.bcast[i]
	}
	if nb == 0 {
		return in.uni[i]
	}
	// Find b, the number of broadcast messages among the first i+1
	// merged elements: the smallest b with bkeys[b] > ukeys[k-b-1]
	// (keys are distinct global send indices, so the merge is strict).
	k := i + 1
	lo, hi := max(0, k-nu), min(k, nb)
	for lo < hi {
		b := (lo + hi) / 2
		if in.bkeys[b] < in.ukeys[k-b-1] {
			lo = b + 1
		} else {
			hi = b
		}
	}
	b := lo
	u := k - b
	// The i-th element is whichever side contributed the larger key.
	switch {
	case u == 0:
		return in.bcast[b-1]
	case b == 0:
		return in.uni[u-1]
	case in.bkeys[b-1] > in.ukeys[u-1]:
		return in.bcast[b-1]
	default:
		return in.uni[u-1]
	}
}

// All returns an iterator over the delivered messages in inbox order —
// the replacement for ranging over the old materialized slice:
//
//	for m := range env.Inbox.All() { ... }
//
// The iterator reads through the engine's recycled buffers and must not
// be retained past the Step call (the Received values it yields are
// safe to keep).
//
//lint:valuecopy the yielded Received values are by-value copies sharing no round-scoped memory; only the iterator closure itself aliases the inbox, and retaining an iter.Seq is outside the tracked shapes
func (in Inbox) All() iter.Seq[Received] {
	return func(yield func(Received) bool) {
		bi, nb := 0, len(in.bcast)
		ui, nu := 0, len(in.uni)
		for bi < nb || ui < nu {
			var m Received
			if ui >= nu || (bi < nb && in.bkeys[bi] < in.ukeys[ui]) {
				m = in.bcast[bi]
				bi++
			} else {
				m = in.uni[ui]
				ui++
			}
			if !yield(m) {
				return
			}
		}
	}
}

// Slice returns the delivered messages as a freshly allocated slice in
// inbox order. It materializes a copy — the convenience for tests and
// for the rare consumer that genuinely needs random access to an
// owned snapshot; hot paths should iterate with All instead. The
// returned slice is the caller's and safe to retain. (No //lint:valuecopy
// here: with All's yield values already fact-free, the analysis derives
// no flow on its own — the directive would be unused.)
func (in Inbox) Slice() []Received {
	out := make([]Received, 0, in.Len())
	for m := range in.All() {
		out = append(out, m)
	}
	return out
}

// RoundEnv is the view a process gets of one round: the messages delivered
// at the start of the round, and the ability to queue messages for
// delivery in the next round. A RoundEnv is valid only for the duration of
// the Step call it is passed to; the engine reuses both the env and the
// buffers behind its Inbox view on later rounds (see the package docs),
// so neither may be retained.
type RoundEnv struct {
	// Round is the 1-based global round number.
	Round int
	// Inbox is the view of the messages delivered this round, sorted by
	// sender id and then by canonical encoding (deterministic for every
	// worker cap). Duplicates from the same sender have been discarded.
	Inbox Inbox

	self  ids.ID
	sends []send
}

// Broadcast queues a message to every node in the system (including the
// sender itself), matching the paper's broadcast primitive.
func (env *RoundEnv) Broadcast(p wire.Payload) {
	enc := wire.Encode(p)
	env.sends = append(env.sends, send{
		from:    env.self,
		to:      ids.None,
		payload: p,
		encoded: string(enc),
		digest:  digest64(enc),
	})
}

// SendCount returns how many messages have been queued on this env so
// far (test instrumentation for driving a Process manually).
func (env *RoundEnv) SendCount() int { return len(env.sends) }

// Send queues a point-to-point message to a specific node.
func (env *RoundEnv) Send(to ids.ID, p wire.Payload) {
	enc := wire.Encode(p)
	env.sends = append(env.sends, send{
		from:    env.self,
		to:      to,
		payload: p,
		encoded: string(enc),
		digest:  digest64(enc),
	})
}

// Process is a node state machine driven by the network: one Step call per
// round. Implementations must be self-contained (no shared mutable state
// with other processes) so that the round pipeline can step them in
// parallel, and must not retain env or env.Inbox past the Step call
// (the engine recycles both; see the package docs). Both contracts are
// machine-checked by the ubalint passes sharedstate and retainenv
// (internal/lint; run with `make lint`, documented in DESIGN.md §8).
type Process interface {
	// ID returns the node's unique identifier.
	ID() ids.ID
	// Step executes one round: read env.Inbox, update local state, queue
	// sends on env.
	Step(env *RoundEnv)
	// Done reports whether the process has terminated. Terminated
	// processes are no longer stepped and no longer receive messages,
	// matching a node that has halted.
	Done() bool
}
