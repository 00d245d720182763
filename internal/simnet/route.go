package simnet

import (
	"cmp"
	"slices"
	"strings"

	"uba/internal/ids"
	"uba/internal/trace"
)

// This file is the routing/delivery half of a round. Broadcast-heavy
// protocols used to pay an O(n²) fan-out here — n receivers times B
// materialized broadcast copies; now a broadcast is stored once in a
// shared block and every inbox is a lazy view, so the whole pass is
// O(S + B + U) (sends, surviving broadcasts, unicast deliveries) plus
// the per-receiver constant of handing out views. It is split into a
// cheap serial prepare pass and a delivery pass that is embarrassingly
// parallel over receivers, sharded across the same scheduler dispatch
// (and the same worker cap) that runs the step phase. At a cap of 1
// there is a single shard and delivery runs inline.
//
// The pipeline, per round:
//
//  1. Block-local sort (routePrepare). outs arrives grouped by sender in
//     ascending node order — the step merge appends the per-process send
//     buffers in node order and the engine stamps from = the registered
//     id — so the global sort by (from, encoding, to) of the old engine
//     is equivalent to sorting each sender's block by (encoding, to).
//     Typical blocks are tiny (a broadcast-heavy round has one send per
//     sender), turning O(S log S) into Σ O(k log k) ≈ O(S).
//
//  2. Dedup + classify (routePrepare). One serial scan applies exactly
//     the duplicate rules documented on the old route loop — adjacent
//     exact duplicates, and unicasts duplicating a same-sender broadcast
//     via the per-sender broadcast-digest set — and classifies each
//     surviving send as a broadcast (index into outs) or a unicast
//     resolved to its receiver's live index (dropped here if the target
//     is unknown or done, matching the old delivery-time check; Done is
//     snapshotted once per round — no process steps during routing, so
//     the snapshot is exact). Unicasts are then bucketed per receiver
//     with a stable counting sort, preserving send order.
//
//  3. Sparse materialization (routePrepare). The surviving broadcasts
//     are copied once into the shared broadcast block and the surviving
//     unicasts once into the unicast arena, each aligned with its send
//     index list — O(B + U) Received values total, regardless of the
//     receiver count. The copies are what let a receiver's view outlive
//     the outs buffer (the next step merge rewrites outs while inboxes
//     are still being read). Block and arena are recycled across
//     rounds — which is why Process.Step must not retain env.Inbox
//     (see the package docs).
//
//  4. Delivery (routeShardDeliver). Receivers are partitioned into
//     contiguous shards. Each shard walks its receivers in node order
//     and, per receiver, assembles an Inbox view over the shared block
//     and the receiver's arena segment; the view's merge by send index
//     reproduces exactly the (sender, encoding)-sorted inbox the
//     materialized engine produced. Delivery and byte tallies are
//     computed arithmetically (per-receiver: B broadcasts plus its
//     bucket; bytes: the block's byte total plus the bucket's) without
//     touching message data; only contact-set maintenance and
//     transcript logging walk the merge, and only when enabled. Every
//     inbox, contact set, per-shard tally and per-shard event buffer is
//     written by exactly one worker, so the pass needs no locks and its
//     output is independent of worker scheduling.
//
//  5. Merge (route). Per-shard delivery/byte tallies are reduced and
//     per-shard event buffers appended to the EventLog in shard — i.e.
//     receiver — order, so the transcript and the Collector flush are
//     identical for every worker cap and across runs. The canonical
//     transcript order is receiver-major: deliveries grouped by
//     receiver in ascending node order, each receiver's messages in
//     inbox order.

// routeShard is one worker's slice of the delivery pass: the receiver
// range [lo, hi) plus the tallies and the event buffer that worker owns.
// The slices are scratch, recycled across rounds.
type routeShard struct {
	lo, hi     int
	deliveries int64
	bytes      int64
	events     []trace.Event
}

// route fans out and filters the round's sends into next-round inboxes
// and returns the delivery/byte totals for the batched Collector flush.
// See the pipeline comment at the top of this file; the duplicate
// semantics are unchanged from the send-major loop it replaces (the
// dedup key is (sender, encoding) per receiver; digests short-circuit
// the string compares and equal digests fall back to comparing full
// encodings, so a 64-bit collision can never drop a distinct message).
//
//lint:noalloc the fan-out runs every round; shard table and event buffers are recycled, growth is capacity-guarded
func (n *Network) route(outs []send) (deliveries, bytes int64) {
	n.routePrepare(outs)

	nshards := n.workersCap()
	if cap(n.shards) < nshards {
		n.shards = make([]routeShard, nshards)
	}
	shards := n.shards[:nshards]
	n.shards = shards
	nl := len(n.live)
	for s := range shards {
		shards[s].lo = s * nl / nshards
		shards[s].hi = (s + 1) * nl / nshards
		shards[s].deliveries = 0
		shards[s].bytes = 0
		shards[s].events = shards[s].events[:0]
	}
	n.runRouteShards(nshards)

	for s := range shards {
		deliveries += shards[s].deliveries
		bytes += shards[s].bytes
	}
	if n.cfg.EventLog != nil {
		if n.faults != nil {
			n.cfg.EventLog.RecordBatch(n.faults.linkEvents)
		}
		for s := range shards {
			n.cfg.EventLog.RecordBatch(shards[s].events)
		}
	}
	if n.cfg.Observer != nil {
		// Assemble the round's observer view in the canonical record
		// order: fault-plan events (plan order), containment events
		// (node order, from the step merge), link-fault events (send
		// order, from the serial filter), then deliveries in shard —
		// i.e. receiver — order: the same order the EventLog records.
		ev := n.roundEvents[:0]
		if n.faults != nil {
			ev = append(ev, n.faults.planEvents...)
		}
		ev = append(ev, n.stepEvents...)
		if n.faults != nil {
			ev = append(ev, n.faults.linkEvents...)
		}
		for s := range shards {
			ev = append(ev, shards[s].events...)
		}
		n.roundEvents = ev
	}
	return deliveries, bytes
}

// routePrepare runs the serial half of routing: block-local sort, dedup
// and classification, unicast bucketing, and exact arena sizing. After
// it returns, routeShardDeliver can run for disjoint receiver ranges in
// parallel with no further coordination.
//
//lint:noalloc the serial prepare pass reuses the network's index and arena scratch; all growth is capacity-guarded or appends into recycled buffers
func (n *Network) routePrepare(outs []send) {
	// (1) Block-local sort: each sender's block by (encoding, to).
	for lo := 0; lo < len(outs); {
		hi := lo + 1
		for hi < len(outs) && outs[hi].from == outs[lo].from {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(outs[lo:hi], func(a, b send) int {
				if c := strings.Compare(a.encoded, b.encoded); c != 0 {
					return c
				}
				return cmp.Compare(a.to, b.to)
			})
		}
		lo = hi
	}

	// (2) Done snapshot: Done is constant during routing (no process
	// steps between the step barrier and the next round), so one call
	// per receiver replaces the old per-(send, receiver) interface call.
	nl := len(n.live)
	n.doneMask = grown(n.doneMask, nl)
	for i, st := range n.live {
		// Crash faults are unreachable: containment means a crashed
		// node receives nothing, exactly like a halted one. Fault-plan
		// late joiners receive nothing before their join round.
		n.doneMask[i] = st.crashed || st.joinRound > n.round || st.proc.Done()
	}
	if n.faults != nil {
		// Round-scoped fault scratch: stale link events or corrupted
		// copies from the previous fault round must not leak into this
		// one (clear drops the payload references they pin).
		clear(n.faults.corrupted)
		n.faults.corrupted = n.faults.corrupted[:0]
		n.faults.linkEvents = n.faults.linkEvents[:0]
	}

	// (3) Dedup + classify. Same duplicate rules as the old send-major
	// loop: under the (from, encoding, to) order, exact duplicates are
	// adjacent (previous-send compare) and a broadcast sorts before any
	// same-encoding unicast from the same sender (ids.None is the
	// smallest id), so unicast-duplicates-broadcast is a membership
	// check against the sender's per-round broadcast digests.
	bd, be := n.bcastDigests[:0], n.bcastEncs[:0]
	n.bcastIdx = n.bcastIdx[:0]
	n.uniRecv = n.uniRecv[:0]
	n.uniSend = n.uniSend[:0]
	for k := range outs {
		s := &outs[k]
		if k > 0 {
			p := &outs[k-1]
			if p.from != s.from {
				bd, be = bd[:0], be[:0]
			} else if p.to == s.to && p.digest == s.digest && p.encoded == s.encoded {
				// Exact duplicate of the previous send: discarded by
				// the model.
				continue
			}
		}
		if s.to == ids.None {
			bd = append(bd, s.digest)
			be = append(be, s.encoded)
			n.bcastIdx = append(n.bcastIdx, int32(k))
			continue
		}
		dup := false
		for j, d := range bd {
			if d == s.digest && be[j] == s.encoded {
				// Same payload already broadcast by this sender this
				// round; the unicast copy is a duplicate for its target.
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		r, ok := slices.BinarySearch(n.order, s.to)
		if !ok || n.doneMask[r] {
			continue // unknown or halted target: dropped
		}
		n.uniRecv = append(n.uniRecv, int32(r))
		n.uniSend = append(n.uniSend, int32(k))
	}
	n.bcastDigests, n.bcastEncs = bd, be

	if n.faults != nil && n.faults.linkLive {
		// (3b) Link-fault filter: rewrite the classified stream under
		// the live partition/rate rules (see fault.go). Broadcasts are
		// demoted to per-receiver unicast entries in send-index order,
		// so the bucket order below reproduces the merge order exactly.
		//lint:coldpath the filter runs only on rounds with a live fault rule; the certified path never reaches it
		n.faultFilter(outs)
	}

	// (4) Bucket unicasts per receiver (stable counting sort: within a
	// bucket, send order — and therefore the sorted order — is kept).
	n.uniStart = grown(n.uniStart, nl+1)
	clear(n.uniStart)
	for _, r := range n.uniRecv {
		n.uniStart[r+1]++
	}
	for i := 0; i < nl; i++ {
		n.uniStart[i+1] += n.uniStart[i]
	}
	n.uniIdx = grown(n.uniIdx, len(n.uniRecv))
	n.uniCursor = grown(n.uniCursor, nl)
	copy(n.uniCursor, n.uniStart[:nl])
	for j, r := range n.uniRecv {
		n.uniIdx[n.uniCursor[r]] = n.uniSend[j]
		n.uniCursor[r]++
	}
	if n.faults != nil && n.faults.linkLive {
		// (4b) Within-round reorder faults permute receiver buckets
		// before materialization, so inboxes and transcript pick the
		// shuffle up with no further changes.
		n.faultReorder()
	}

	// (5) Sparse materialization: copy the surviving broadcasts once
	// into the shared block and the surviving unicasts once into the
	// arena, aligned with bcastIdx and uniIdx respectively. Receivers
	// get views over these copies, never over outs — the next step
	// merge rewrites outs while this round's inboxes are still being
	// read.
	// Shrink-clearing the recycled tails drops the references held by
	// last round's larger block/arena so dead payloads are not pinned.
	nb := len(n.bcastIdx)
	n.bcastBlock = recycled(n.bcastBlock, nb, &n.bcastLive)
	var bbytes int64
	for j, k := range n.bcastIdx {
		s := &outs[k]
		n.bcastBlock[j] = Received{From: s.from, Payload: s.payload, encoded: s.encoded, bcast: true}
		bbytes += int64(len(s.encoded))
	}
	n.bcastBytes = bbytes
	nu := len(n.uniIdx)
	n.uniArena = recycled(n.uniArena, nu, &n.uniLive)
	if n.faults == nil {
		for j, k := range n.uniIdx {
			s := &outs[k]
			n.uniArena[j] = Received{From: s.from, Payload: s.payload, encoded: s.encoded}
		}
	} else {
		// Fault-plan variant of the same copy loop: keys may address
		// the corrupted side buffer, and demoted broadcasts keep their
		// Broadcast transcript flag via Received.bcast.
		for j, k := range n.uniIdx {
			s := n.sendAt(outs, k)
			n.uniArena[j] = Received{From: s.from, Payload: s.payload, encoded: s.encoded, bcast: s.to == ids.None}
		}
	}
}

// routeShardDeliver hands out the inbox views of the receivers in sh's
// range. It is safe to run concurrently for disjoint shards: it writes
// only the shard's receivers' inboxes/contact sets and the shard's own
// tallies and event buffer; the broadcast block, the unicast arena and
// the index lists the views read through are written only by the serial
// prepare pass and are read-only here.
//
//lint:shardsafe owns=sh the shard ranges partition the receivers; inboxes in [sh.lo, sh.hi) are shard-owned
//lint:noalloc the delivery walk runs per receiver per round; inboxes are views and event buffers are shard-owned recycled scratch
//lint:nonblock route tasks run to the pool's phase barrier; a blocking shard would deadlock the round against it
func (n *Network) routeShardDeliver(sh *routeShard) {
	logging := n.cfg.EventLog != nil || n.cfg.Observer != nil
	round := n.round + 1 // deliveries land at the start of the next round
	nb := len(n.bcastBlock)
	var deliveries, bytes int64
	for i := sh.lo; i < sh.hi; i++ {
		st := n.live[i]
		if n.doneMask[i] {
			st.inbox = Inbox{}
			continue
		}
		ulo, uhi := int(n.uniStart[i]), int(n.uniStart[i+1])
		nm := nb + (uhi - ulo)
		if nm == 0 {
			st.inbox = Inbox{}
			continue
		}
		// The receiver's inbox is a view: the shared broadcast block
		// merged with its private arena segment by global send index —
		// the receiver-relevant subsequence of the (from, encoding,
		// to)-sorted send stream, i.e. the documented (sender,
		// encoding) inbox order. Capacity caps keep even a pathological
		// append on a leaked slice from crossing into a neighbour.
		st.inbox = Inbox{
			bcast: n.bcastBlock[:nb:nb],
			bkeys: n.bcastIdx[:nb:nb],
			uni:   n.uniArena[ulo:uhi:uhi],
			ukeys: n.uniIdx[ulo:uhi:uhi],
		}
		// Tallies are arithmetic — no per-receiver message walk: the
		// block's sizes are shared by every live receiver.
		deliveries += int64(nm)
		bytes += n.bcastBytes
		for j := ulo; j < uhi; j++ {
			bytes += int64(len(n.uniArena[j].encoded))
		}
		if st.contacts == nil && !logging {
			continue
		}
		// Contact-set maintenance and transcript logging are the only
		// consumers that need the merged order; walk it just for them.
		bi, ui := 0, ulo
		for bi < nb || ui < uhi {
			var m Received
			if ui >= uhi || (bi < nb && n.bcastIdx[bi] < n.uniIdx[ui]) {
				m = n.bcastBlock[bi]
				bi++
			} else {
				m = n.uniArena[ui]
				ui++
			}
			if st.contacts != nil {
				//lint:coldpath contact-set maintenance runs only under EnforceContactRule, which the measured hot path disables
				st.contacts[m.From] = struct{}{}
			}
			if logging {
				sh.events = append(sh.events, trace.Event{
					Round:     round,
					From:      uint64(m.From),
					To:        uint64(st.id),
					Kind:      m.Payload.Kind().String(),
					Size:      len(m.encoded),
					Broadcast: m.bcast,
					Enc:       m.encoded,
				})
			}
		}
	}
	sh.deliveries, sh.bytes = deliveries, bytes
}

// recycled returns s resized to n elements, reusing its backing array
// when possible and clearing the previously live tail beyond n so a
// shrinking round cannot pin the references the dead slots held. live
// is updated to n. Contents of the returned slice are unspecified;
// callers overwrite every element.
//
//lint:noalloc the grow-once arena resizer: it allocates only until the backing array reaches its high-water mark
func recycled(s []Received, n int, live *int) []Received {
	if cap(s) < n {
		s = make([]Received, n)
	} else {
		if n < *live {
			clear(s[n:*live])
		}
		s = s[:n]
	}
	*live = n
	return s
}

// grown returns s resized to n elements, reusing its backing array when
// possible. Contents are unspecified; callers overwrite or clear.
//
//lint:noalloc the grow-once scratch resizer: it allocates only until the backing array reaches its high-water mark
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
