package simnet

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"uba/internal/ids"
	"uba/internal/trace"
	"uba/internal/wire"
)

// This file is the round-scheduled fault-injection layer: a FaultPlan on
// Config schedules partitions, per-link loss/duplication/corruption,
// within-round reordering, crash/recover churn, late joins, and quota
// changes — all deterministic functions of (plan, round, send index,
// receiver), so a faulty execution replays bit-exactly for every worker
// cap.
//
// Determinism argument. Plan events apply at the start of RunRound, on
// the driving goroutine, in (round, plan order) — before any worker
// runs. Link-level faults apply inside the serial routePrepare pass as a
// filter over the classified send stream, walked in global send-index
// order (broadcasts fanned per live receiver in node order), and every
// random decision is a stateless hash of (plan seed, fault kind, round,
// send index, receiver) — no shared PRNG stream, so dropping one fault
// event from a plan cannot shift the rolls of the remaining ones (what
// makes shrinking sound). Fault trace events are emitted during these
// serial passes and flushed in a fixed position of the round's record
// order: plan events, containment events, link events, deliveries.
//
// Zero cost when nil. Every hook is behind one `n.faults != nil` check;
// with a nil plan the round executes the exact certified hot path
// (//lint:noalloc holds, route rows stay 0 allocs/op). With a plan
// attached but no partition or rate rule live, the filter does not run
// either: the only added work is a handful of nil/flag checks.
//
// Model note. On a round with a live partition or rate rule the
// surviving broadcasts are demoted to per-receiver arena entries (the
// shared broadcast block cannot express per-receiver loss). The demoted
// entries are appended in global send-index order, so inbox order — and
// therefore the transcript — is unchanged; Received.bcast preserves the
// Broadcast flag. Duplicate and reorder faults deliberately violate the
// engine's documented dedup/order model rules: that is what makes them
// faults worth testing against.

// Fault event kinds, stable strings because they appear in plan JSON.
const (
	// FaultPartition splits the network into Groups: messages cross
	// group boundaries only from a node to itself. Nodes in no group
	// are isolated. A later partition replaces the current one.
	FaultPartition = "partition"
	// FaultHeal removes the current partition.
	FaultHeal = "heal"
	// FaultDrop activates a link loss rule: each matching delivery is
	// independently dropped with probability Rate.
	FaultDrop = "drop"
	// FaultDuplicate activates a link duplication rule: each matching
	// delivery is delivered twice within the round with probability
	// Rate (deliberately bypassing the receiver's dedup model rule).
	FaultDuplicate = "duplicate"
	// FaultReorder activates a per-receiver rule: with probability Rate
	// per round, the receiver's within-round unicast-order inbox is
	// deterministically shuffled. Scope with To or Node; From is
	// ignored for reorder rules.
	FaultReorder = "reorder"
	// FaultCorrupt activates a link corruption rule: with probability
	// Rate a matching delivery has one encoding bit flipped. If the
	// mutated encoding no longer decodes, the message is dropped.
	FaultCorrupt = "corrupt"
	// FaultCrash fail-stops Node at Round: it is silent and unreachable
	// until a later recover event.
	FaultCrash = "crash"
	// FaultRecover revives a crashed Node with an empty inbox.
	FaultRecover = "recover"
	// FaultJoin makes Node a late participant: before Round it neither
	// steps nor receives anything.
	FaultJoin = "join"
	// FaultQuota overwrites the per-round send/byte quotas at Round
	// (0 disables a quota, as in Config).
	FaultQuota = "quota"
)

// FaultEvent is one timed entry of a FaultPlan. Round is the 1-based
// round the event takes effect at (before that round's Step calls).
// Which other fields matter depends on Kind; unused fields are ignored.
type FaultEvent struct {
	Round int    `json:"round"`
	Kind  string `json:"kind"`
	// Groups names the partition's node groups (FaultPartition).
	// Ids unknown to the network are tolerated — they simply match no
	// node — so a shrunk scenario with fewer nodes stays replayable.
	Groups [][]uint64 `json:"groups,omitempty"`
	// Node scopes crash/recover/join events, and rate rules to links
	// with this node as either endpoint.
	Node uint64 `json:"node,omitempty"`
	// From and To scope rate rules to a sender and/or receiver.
	From uint64 `json:"from,omitempty"`
	To   uint64 `json:"to,omitempty"`
	// Rate is the per-delivery (per-round for reorder) probability of a
	// rate rule, in [0, 1]. A later rule with the same kind and scope
	// overrides an earlier one; Rate 0 clears it.
	Rate float64 `json:"rate,omitempty"`
	// SendQuota and ByteQuota are the new quotas for FaultQuota events.
	SendQuota int   `json:"send_quota,omitempty"`
	ByteQuota int64 `json:"byte_quota,omitempty"`
}

// FaultPlan is a deterministic, round-scheduled fault schedule for one
// run. It is serializable (chaos repro files embed it) and immutable
// once handed to New: the same plan against the same processes yields
// byte-identical transcripts for every worker cap and every job count.
type FaultPlan struct {
	// Seed drives every probabilistic fault decision through a
	// stateless hash — there is no PRNG stream to perturb, so plans
	// shrink soundly (removing one event never re-rolls another).
	Seed int64 `json:"seed"`
	// Events apply in (Round, listed order). Events for a round apply
	// before that round's Step calls.
	Events []FaultEvent `json:"events,omitempty"`
}

// Validate checks the plan's structural invariants: known kinds,
// positive rounds, rates within [0, 1], nodes named where required.
func (p *FaultPlan) Validate() error {
	for i := range p.Events {
		e := &p.Events[i]
		if e.Round < 1 {
			return fmt.Errorf("fault event %d (%s): round %d < 1", i, e.Kind, e.Round)
		}
		switch e.Kind {
		case FaultPartition:
			if len(e.Groups) == 0 {
				return fmt.Errorf("fault event %d: partition with no groups", i)
			}
		case FaultHeal:
		case FaultDrop, FaultDuplicate, FaultReorder, FaultCorrupt:
			if e.Rate < 0 || e.Rate > 1 {
				return fmt.Errorf("fault event %d (%s): rate %v outside [0,1]", i, e.Kind, e.Rate)
			}
		case FaultCrash, FaultRecover, FaultJoin:
			if e.Node == 0 {
				return fmt.Errorf("fault event %d (%s): node must be nonzero", i, e.Kind)
			}
		case FaultQuota:
			if e.SendQuota < 0 || e.ByteQuota < 0 {
				return fmt.Errorf("fault event %d: negative quota", i)
			}
		default:
			return fmt.Errorf("fault event %d: unknown kind %q", i, e.Kind)
		}
	}
	return nil
}

// Clone returns a deep copy (the shrinker edits candidate plans without
// disturbing the original).
func (p *FaultPlan) Clone() *FaultPlan {
	if p == nil {
		return nil
	}
	out := &FaultPlan{Seed: p.Seed, Events: slices.Clone(p.Events)}
	for i := range out.Events {
		groups := out.Events[i].Groups
		if groups == nil {
			continue
		}
		groups = slices.Clone(groups)
		for g := range groups {
			groups[g] = slices.Clone(groups[g])
		}
		out.Events[i].Groups = groups
	}
	return out
}

// faultState is the compiled runtime form of a FaultPlan: the
// round-sorted event cursor, the live partition and rate rules, and the
// round-scoped scratch the injection passes write into. It is owned by
// one Network and dies with it (not pooled: fault runs are off the
// certified hot path).
type faultState struct {
	events []FaultEvent // sorted by round, stable
	next   int
	seed   uint64

	// groupOf is the live partition (nil = healed): node -> group
	// index; nodes absent from the map are isolated.
	groupOf map[ids.ID]int32
	// rules are the active rate rules in activation order; for a given
	// link and kind the last matching rule wins.
	rules []FaultEvent
	// joinAt maps late participants to their join round.
	joinAt map[ids.ID]int
	// linkLive reports whether the route filter must run this round.
	linkLive bool

	// Round-scoped scratch.
	planEvents []trace.Event // round-start events (partition, crash, …)
	linkEvents []trace.Event // per-link fault events from the filter
	fRecv      []int32       // filtered unicast receiver indices
	fSend      []int32       // filtered unicast send keys
	corrupted  []send        // corrupted copies; keys >= len(outs) index here
}

// newFaultState compiles a validated plan.
func newFaultState(p *FaultPlan) *faultState {
	fs := &faultState{
		events: slices.Clone(p.Events),
		seed:   mix64(uint64(p.Seed) ^ 0x5fa91c3d62b07e44),
		joinAt: make(map[ids.ID]int),
	}
	slices.SortStableFunc(fs.events, func(a, b FaultEvent) int {
		return cmp.Compare(a.Round, b.Round)
	})
	for i := range fs.events {
		if e := &fs.events[i]; e.Kind == FaultJoin {
			fs.joinAt[ids.ID(e.Node)] = e.Round
		}
	}
	return fs
}

// Salts separating the hash streams of the fault kinds.
const (
	saltDrop uint64 = iota + 1
	saltDup
	saltCorrupt
	saltCorruptBit
	saltReorder
	saltReorderSwap
)

// mix64 is the 64-bit finalizer (splitmix64 variant) behind every fault
// roll: statistically well-mixed, allocation-free, and stateless.
//
//lint:noalloc pure integer mixing on the fault filter path
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// roll hashes one fault decision's coordinates into a uniform uint64.
//
//lint:noalloc stateless hash; the filter makes one call per decision
func (fs *faultState) roll(salt, a, b, c uint64) uint64 {
	h := fs.seed ^ salt*0x9e3779b97f4a7c15
	h = mix64(h + a)
	h = mix64(h + b*0xbf58476d1ce4e5b9)
	h = mix64(h + c*0x94d049bb133111eb)
	return h
}

// hit decides one probabilistic fault: true with probability rate,
// deterministically in the decision's coordinates. Rates are quantized
// to 2^-32 (indistinguishable at any feasible trial count).
//
//lint:noalloc one hash and one compare per decision
func (fs *faultState) hit(salt, a, b, c uint64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	return fs.roll(salt, a, b, c)>>32 < uint64(rate*4294967296.0)
}

// sameGroup reports whether the live partition lets from reach to.
//
//lint:noalloc two map lookups per link on the fault filter path
func (fs *faultState) sameGroup(from, to ids.ID) bool {
	gf, okf := fs.groupOf[from]
	gt, okt := fs.groupOf[to]
	return okf && okt && gf == gt
}

// rateFor returns the effective rate of the given rule kind on the link
// from -> to: the last activated matching rule wins, 0 means inactive.
// Rule sets are tiny (a plan has a handful of events), so a linear scan
// beats any index.
//
//lint:noalloc linear scan of a handful of active rules per link
func (fs *faultState) rateFor(kind string, from, to ids.ID) float64 {
	rate := 0.0
	for i := range fs.rules {
		r := &fs.rules[i]
		if r.Kind != kind {
			continue
		}
		if r.From != 0 && ids.ID(r.From) != from {
			continue
		}
		if r.To != 0 && ids.ID(r.To) != to {
			continue
		}
		if r.Node != 0 && ids.ID(r.Node) != from && ids.ID(r.Node) != to {
			continue
		}
		rate = r.Rate
	}
	return rate
}

// applyFaultEvents applies every plan event scheduled for the current
// round (called at the start of RunRound, before stepping, on the
// driving goroutine) and refreshes the filter-live flag. Trace events
// land in planEvents in plan order — the head of the round's canonical
// event order.
func (n *Network) applyFaultEvents() {
	fs := n.faults
	fs.planEvents = fs.planEvents[:0]
	for fs.next < len(fs.events) && fs.events[fs.next].Round <= n.round {
		e := &fs.events[fs.next]
		fs.next++
		n.applyFaultEvent(e)
	}
	fs.linkLive = fs.groupOf != nil || len(fs.rules) > 0
}

// applyFaultEvent applies one plan event and records its trace events.
func (n *Network) applyFaultEvent(e *FaultEvent) {
	fs := n.faults
	switch e.Kind {
	case FaultPartition:
		if fs.groupOf == nil {
			fs.groupOf = make(map[ids.ID]int32, len(n.order))
		} else {
			clear(fs.groupOf)
		}
		for gi, group := range e.Groups {
			var b strings.Builder
			for j, raw := range group {
				fs.groupOf[ids.ID(raw)] = int32(gi)
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.FormatUint(raw, 10))
			}
			fs.planEvents = append(fs.planEvents, trace.Event{
				Round: n.round, From: uint64(gi), Kind: trace.KindPartition,
				Size: len(group), Enc: b.String(),
			})
		}
	case FaultHeal:
		fs.groupOf = nil
		fs.planEvents = append(fs.planEvents, trace.Event{
			Round: n.round, Kind: trace.KindHeal,
		})
	case FaultDrop, FaultDuplicate, FaultReorder, FaultCorrupt:
		fs.rules = append(fs.rules, *e)
		from := e.From
		if from == 0 {
			from = e.Node
		}
		fs.planEvents = append(fs.planEvents, trace.Event{
			Round: n.round, From: from, To: e.To, Kind: linkKindFor(e.Kind),
			Enc: "rate=" + strconv.FormatFloat(e.Rate, 'g', -1, 64),
		})
	case FaultCrash:
		st, ok := n.procs[ids.ID(e.Node)]
		if !ok || st.crashed {
			return
		}
		st.crashed = true
		n.crashes = append(n.crashes, CrashRecord{
			Node: st.id, Round: n.round, Reason: "fault plan crash",
		})
		fs.planEvents = append(fs.planEvents, trace.Event{
			Round: n.round, From: e.Node, Kind: trace.KindNodeCrashed,
		})
	case FaultRecover:
		st, ok := n.procs[ids.ID(e.Node)]
		if !ok || !st.crashed {
			return
		}
		st.crashed = false
		fs.planEvents = append(fs.planEvents, trace.Event{
			Round: n.round, From: e.Node, Kind: trace.KindNodeRecovered,
		})
	case FaultJoin:
		if _, ok := n.procs[ids.ID(e.Node)]; !ok {
			return
		}
		fs.planEvents = append(fs.planEvents, trace.Event{
			Round: n.round, From: e.Node, Kind: trace.KindNodeJoined,
		})
	case FaultQuota:
		n.cfg.SendQuota = e.SendQuota
		n.cfg.ByteQuota = e.ByteQuota
		fs.planEvents = append(fs.planEvents, trace.Event{
			Round: n.round, Kind: trace.KindQuotaChange, Size: e.SendQuota,
			Enc: "send=" + strconv.Itoa(e.SendQuota) +
				" byte=" + strconv.FormatInt(e.ByteQuota, 10),
		})
	}
}

// linkKindFor maps a rate-rule kind to its trace event kind.
func linkKindFor(kind string) string {
	switch kind {
	case FaultDrop:
		return trace.KindLinkDrop
	case FaultDuplicate:
		return trace.KindLinkDup
	case FaultReorder:
		return trace.KindLinkReorder
	default:
		return trace.KindLinkCorrupt
	}
}

// faultFilter rewrites the classified send stream under the live
// partition and rate rules. It runs inside the serial routePrepare pass
// — after dedup/classify, before bucketing — and only on rounds with a
// live link fault. The filtered stream is expressed entirely as unicast
// entries (broadcasts are demoted, fanned per live receiver in node
// order) appended in global send-index order, so the per-receiver
// bucket order — and therefore every inbox and the transcript — matches
// the unfiltered merge order exactly. Corrupted copies live in a side
// buffer addressed by keys past len(outs); sendAt resolves them.
func (n *Network) faultFilter(outs []send) {
	fs := n.faults
	fs.fRecv = fs.fRecv[:0]
	fs.fSend = fs.fSend[:0]
	nl := len(n.live)
	bi, ui := 0, 0
	nb, nu := len(n.bcastIdx), len(n.uniSend)
	for bi < nb || ui < nu {
		if ui >= nu || (bi < nb && n.bcastIdx[bi] < n.uniSend[ui]) {
			k := n.bcastIdx[bi]
			bi++
			for r := 0; r < nl; r++ {
				if n.doneMask[r] {
					continue
				}
				n.filterLink(outs, k, int32(r))
			}
		} else {
			k := n.uniSend[ui]
			r := n.uniRecv[ui]
			ui++
			n.filterLink(outs, k, r)
		}
	}
	// Install the filtered stream: all demoted to unicast entries.
	n.bcastIdx = n.bcastIdx[:0]
	n.uniRecv = append(n.uniRecv[:0], fs.fRecv...)
	n.uniSend = append(n.uniSend[:0], fs.fSend...)
}

// filterLink applies the live link faults to one (send, receiver) pair
// and appends the surviving entries (0, 1, or 2 of them) to the
// filtered stream. Decision order: partition cut, drop, corrupt,
// duplicate.
func (n *Network) filterLink(outs []send, k, r int32) {
	fs := n.faults
	s := &outs[k]
	to := n.live[r].id
	if fs.groupOf != nil && s.from != to && !fs.sameGroup(s.from, to) {
		return // partition cuts are silent; KindPartition announced them
	}
	if rate := fs.rateFor(FaultDrop, s.from, to); rate > 0 &&
		fs.hit(saltDrop, uint64(n.round), uint64(k), uint64(to), rate) {
		fs.linkEvents = append(fs.linkEvents, trace.Event{
			Round: n.round, From: uint64(s.from), To: uint64(to),
			Kind: trace.KindLinkDrop, Size: len(s.encoded),
		})
		return
	}
	key := k
	if rate := fs.rateFor(FaultCorrupt, s.from, to); rate > 0 &&
		fs.hit(saltCorrupt, uint64(n.round), uint64(k), uint64(to), rate) {
		ck, ok := n.corruptSend(outs, k, to)
		fs.linkEvents = append(fs.linkEvents, trace.Event{
			Round: n.round, From: uint64(s.from), To: uint64(to),
			Kind: trace.KindLinkCorrupt, Size: len(s.encoded),
		})
		if !ok {
			return // mutation no longer decodes: the message is lost
		}
		key = ck
	}
	fs.fRecv = append(fs.fRecv, r)
	fs.fSend = append(fs.fSend, key)
	if rate := fs.rateFor(FaultDuplicate, s.from, to); rate > 0 &&
		fs.hit(saltDup, uint64(n.round), uint64(k), uint64(to), rate) {
		fs.fRecv = append(fs.fRecv, r)
		fs.fSend = append(fs.fSend, key)
		fs.linkEvents = append(fs.linkEvents, trace.Event{
			Round: n.round, From: uint64(s.from), To: uint64(to),
			Kind: trace.KindLinkDup, Size: len(s.encoded),
		})
	}
}

// corruptSend materializes a corrupted copy of outs[k] for delivery to
// `to`: one deterministically chosen encoding bit flipped, re-decoded.
// It returns the side-buffer key, or ok=false if the mutation does not
// decode (the caller drops the message).
func (n *Network) corruptSend(outs []send, k int32, to ids.ID) (int32, bool) {
	fs := n.faults
	s := &outs[k]
	if len(s.encoded) == 0 {
		return 0, false
	}
	b := []byte(s.encoded)
	h := fs.roll(saltCorruptBit, uint64(n.round), uint64(k), uint64(to))
	b[int(h%uint64(len(b)))] ^= 1 << ((h >> 32) % 8)
	p, err := wire.Decode(b)
	if err != nil {
		return 0, false
	}
	fs.corrupted = append(fs.corrupted, send{
		from: s.from, to: s.to, payload: p,
		encoded: string(b), digest: digest64(b),
	})
	return int32(len(outs) + len(fs.corrupted) - 1), true
}

// faultReorder shuffles the within-round bucket order of receivers with
// a live reorder rule. It runs after the counting sort and before
// materialization, so the shuffle is expressed purely as a permutation
// of uniIdx — inbox views and the transcript pick it up for free. (On
// filter rounds every key is on the unicast side, so bucket order IS
// inbox order.)
func (n *Network) faultReorder() {
	fs := n.faults
	for i := range n.live {
		to := n.live[i].id
		rate := fs.rateFor(FaultReorder, ids.None, to)
		if rate <= 0 {
			continue
		}
		lo, hi := int(n.uniStart[i]), int(n.uniStart[i+1])
		cnt := hi - lo
		if cnt < 2 || !fs.hit(saltReorder, uint64(n.round), uint64(to), 0, rate) {
			continue
		}
		for j := cnt - 1; j > 0; j-- {
			h := fs.roll(saltReorderSwap, uint64(n.round), uint64(to), uint64(j))
			m := int(h % uint64(j+1))
			n.uniIdx[lo+j], n.uniIdx[lo+m] = n.uniIdx[lo+m], n.uniIdx[lo+j]
		}
		fs.linkEvents = append(fs.linkEvents, trace.Event{
			Round: n.round, To: uint64(to), Kind: trace.KindLinkReorder, Size: cnt,
		})
	}
}

// sendAt resolves a send key: ordinary keys index outs, keys past
// len(outs) index the round's corrupted-copy side buffer.
//
//lint:noalloc one bounds compare per materialized entry
func (n *Network) sendAt(outs []send, k int32) *send {
	if int(k) < len(outs) {
		return &outs[k]
	}
	return &n.faults.corrupted[int(k)-len(outs)]
}
