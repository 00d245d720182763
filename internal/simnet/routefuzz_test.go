package simnet

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"uba/internal/ids"
	"uba/internal/wire"
)

// This file checks the route() dedup/delivery pipeline against a naive
// per-receiver map-based reference implementation on randomized send
// batches: broadcast/unicast mixes, exact duplicates, unicasts
// shadowed by same-sender broadcasts, unknown and halted targets, and
// forced equal-digest-different-encoding pairs (the 64-bit collision
// fallback). Each batch is routed at the default worker cap, inline on
// one shard, and on forced multi-worker pools, so the sharded delivery
// path is exercised even on a single-core host.

// routePool is a fixed set of distinct payloads whose digests are
// deliberately made to collide pairwise (digest = pool index mod 2),
// while staying consistent per encoding — the invariant the engine
// maintains (digest is a pure function of the encoding). Collisions
// must be resolved by the full-encoding fallback, never by dropping a
// distinct message.
type routePool struct {
	payloads []wire.Payload
	encs     []string
	digests  []uint64
}

func newRoutePool() *routePool {
	p := &routePool{}
	for i := 0; i < 6; i++ {
		pl := wire.Event{Round: 1, Body: []byte(fmt.Sprintf("payload-%d", i))}
		p.payloads = append(p.payloads, pl)
		p.encs = append(p.encs, string(wire.Encode(pl)))
		p.digests = append(p.digests, uint64(i%2)+1)
	}
	return p
}

func (p *routePool) send(from, to ids.ID, pi int) send {
	return send{
		from:    from,
		to:      to,
		payload: p.payloads[pi],
		encoded: p.encs[pi],
		digest:  p.digests[pi],
	}
}

// routeCase is one generated batch: the registered nodes, which of
// them have halted, and the send stream (grouped by sender in
// ascending node order with engine-stamped from — the invariant both
// runners establish before calling route).
type routeCase struct {
	nodeIDs []ids.ID
	done    []bool
	outs    []send
}

// genRouteCase draws a random batch. Unicast targets include a never-
// registered id (dropped) and halted nodes (dropped); payload choices
// are drawn from the small pool so duplicates of every class occur.
func genRouteCase(rng *rand.Rand, pool *routePool) routeCase {
	n := 3 + rng.Intn(6)
	c := routeCase{
		nodeIDs: ids.Consecutive(10, n),
		done:    make([]bool, n),
	}
	for i := range c.done {
		c.done[i] = rng.Intn(5) == 0
	}
	targets := append([]ids.ID(nil), c.nodeIDs...)
	targets = append(targets, 9999) // unknown node: unicasts to it vanish
	for i, id := range c.nodeIDs {
		if c.done[i] {
			continue // halted processes are not stepped and send nothing
		}
		for k := rng.Intn(6); k > 0; k-- {
			pi := rng.Intn(len(pool.payloads))
			if rng.Intn(5) < 2 {
				c.outs = append(c.outs, pool.send(id, ids.None, pi))
			} else {
				c.outs = append(c.outs, pool.send(id, targets[rng.Intn(len(targets))], pi))
			}
		}
	}
	return c
}

// referenceRoute is the naive model: per receiver, scan every send,
// keep those addressed to it (broadcast or direct), dedup by
// (sender, encoding) with a map, then sort by (sender, encoding) —
// the documented inbox contract — and total the accounting.
func referenceRoute(c routeCase) (inboxes [][]Received, deliveries, bytes int64) {
	inboxes = make([][]Received, len(c.nodeIDs))
	for i, id := range c.nodeIDs {
		if c.done[i] {
			continue
		}
		type key struct {
			from ids.ID
			enc  string
		}
		seen := make(map[key]send)
		var keys []key
		for _, s := range c.outs {
			if s.to != ids.None && s.to != id {
				continue
			}
			k := key{s.from, s.encoded}
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = s
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool {
			if keys[a].from != keys[b].from {
				return keys[a].from < keys[b].from
			}
			return keys[a].enc < keys[b].enc
		})
		for _, k := range keys {
			s := seen[k]
			inboxes[i] = append(inboxes[i], Received{From: s.from, Payload: s.payload, encoded: s.encoded})
			deliveries++
			bytes += int64(len(s.encoded))
		}
	}
	return inboxes, deliveries, bytes
}

// routeOnNetwork builds a network for the case, forces the requested
// worker cap (0 = the Config default, 1 = the inline single shard),
// routes a copy of the batch, and returns the network with its
// resulting inbox views and tallies. The caller Closes the network —
// the views read through the network's shared block and arena, which
// Close clears and recycles.
func routeOnNetwork(t testing.TB, c routeCase, workers int) (net *Network, inboxes []Inbox, deliveries, bytes int64) {
	t.Helper()
	net = New(Config{})
	if workers > 0 {
		net.forceWorkers(workers)
	}
	recs := make([]*recorder, len(c.nodeIDs))
	for i, id := range c.nodeIDs {
		recs[i] = newRecorder(id)
		recs[i].done = c.done[i]
		if err := net.Add(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	outs := append([]send(nil), c.outs...)
	deliveries, bytes = net.route(outs)
	inboxes = make([]Inbox, len(c.nodeIDs))
	for i := range c.nodeIDs {
		inboxes[i] = net.live[i].inbox
	}
	return net, inboxes, deliveries, bytes
}

// checkRouteCase routes the case through the engine and compares the
// lazy inbox views against the fully-materialized reference on every
// access path a Process can use: Len, iteration order through All,
// random access through At (every position), and the Slice copy-out.
// Tallies must match too — the engine computes them arithmetically from
// the shared block, the reference by walking every delivery.
func checkRouteCase(t testing.TB, c routeCase, workers int) {
	t.Helper()
	wantInboxes, wantDeliveries, wantBytes := referenceRoute(c)
	net, gotInboxes, gotDeliveries, gotBytes := routeOnNetwork(t, c, workers)
	defer net.Close()
	if gotDeliveries != wantDeliveries || gotBytes != wantBytes {
		t.Fatalf("workers=%d: tallies (%d, %d), reference (%d, %d)\ncase: %+v",
			workers, gotDeliveries, gotBytes, wantDeliveries, wantBytes, c)
	}
	sameReceived := func(got, want Received) bool {
		return got.From == want.From && got.encoded == want.encoded &&
			reflect.DeepEqual(got.Payload, want.Payload)
	}
	for i := range c.nodeIDs {
		view, want := gotInboxes[i], wantInboxes[i]
		if view.Len() != len(want) {
			t.Fatalf("workers=%d receiver %v: Len() = %d, reference %d\nwant: %+v\ncase: %+v",
				workers, c.nodeIDs[i], view.Len(), len(want), want, c)
		}
		j := 0
		for got := range view.All() {
			if !sameReceived(got, want[j]) {
				t.Fatalf("workers=%d receiver %v All() message %d: %+v, reference %+v\ncase: %+v",
					workers, c.nodeIDs[i], j, got, want[j], c)
			}
			j++
		}
		if j != len(want) {
			t.Fatalf("workers=%d receiver %v: All() yielded %d messages, reference %d",
				workers, c.nodeIDs[i], j, len(want))
		}
		for j := range want {
			if got := view.At(j); !sameReceived(got, want[j]) {
				t.Fatalf("workers=%d receiver %v At(%d): %+v, reference %+v\ncase: %+v",
					workers, c.nodeIDs[i], j, got, want[j], c)
			}
		}
		if got := view.Slice(); len(got) != len(want) {
			t.Fatalf("workers=%d receiver %v: Slice() has %d messages, reference %d",
				workers, c.nodeIDs[i], len(got), len(want))
		}
		// The unicast side hands every receiver an exactly-sized
		// segment; growth would mean the bucketing pass and the
		// delivery pass disagree.
		if len(view.uni) != cap(view.uni) {
			t.Fatalf("workers=%d receiver %v: unicast segment len %d != cap %d (segment resized)",
				workers, c.nodeIDs[i], len(view.uni), cap(view.uni))
		}
	}
}

// TestRouteDedupMatchesReference is the property test: random batches
// against the reference model, at the default cap, inline on one
// shard, and on forced 3- and 5-worker pools.
func TestRouteDedupMatchesReference(t *testing.T) {
	t.Parallel()
	pool := newRoutePool()
	iters := 300
	if testing.Short() {
		iters = 60
	}
	for seed := 0; seed < iters; seed++ {
		c := genRouteCase(rand.New(rand.NewSource(int64(seed))), pool)
		for _, workers := range []int{0, 1, 3, 5} {
			checkRouteCase(t, c, workers)
		}
	}
}

// TestRouteDedupDirectedCases pins the duplicate classes the sort-based
// dedup argument enumerates, including the digest-collision fallback.
func TestRouteDedupDirectedCases(t *testing.T) {
	t.Parallel()
	pool := newRoutePool()
	// Pool entries 0 and 2 share a digest but differ in encoding: the
	// collision pair. Entries 0/0 are exact duplicates.
	nodes := ids.Consecutive(10, 4)
	cases := []routeCase{
		{ // colliding-digest broadcasts from one sender: both deliver
			nodeIDs: nodes, done: make([]bool, 4),
			outs: []send{pool.send(10, ids.None, 0), pool.send(10, ids.None, 2)},
		},
		{ // unicast colliding with a broadcast digest: not a duplicate
			nodeIDs: nodes, done: make([]bool, 4),
			outs: []send{pool.send(10, ids.None, 0), pool.send(10, 11, 2)},
		},
		{ // unicast duplicating a broadcast exactly: dropped
			nodeIDs: nodes, done: make([]bool, 4),
			outs: []send{pool.send(10, ids.None, 0), pool.send(10, 11, 0)},
		},
		{ // exact duplicate broadcasts and unicasts
			nodeIDs: nodes, done: make([]bool, 4),
			outs: []send{
				pool.send(10, ids.None, 1), pool.send(10, ids.None, 1),
				pool.send(10, 12, 3), pool.send(10, 12, 3),
			},
		},
		{ // same payload from different senders: distinct for receivers
			nodeIDs: nodes, done: make([]bool, 4),
			outs: []send{pool.send(10, ids.None, 0), pool.send(11, ids.None, 0)},
		},
		{ // unicasts to unknown and halted targets vanish
			nodeIDs: nodes, done: []bool{false, false, false, true},
			outs: []send{pool.send(10, 9999, 0), pool.send(10, 13, 1), pool.send(10, 11, 2)},
		},
	}
	for i, c := range cases {
		for _, workers := range []int{0, 1, 3} {
			t.Run(fmt.Sprintf("case=%d/workers=%d", i, workers), func(t *testing.T) {
				checkRouteCase(t, c, workers)
			})
		}
	}
}

// FuzzRouteDedup drives the same reference check from fuzzer-chosen
// bytes: each byte pair picks a sender action, so the fuzzer can steer
// the batch shape (duplicate clusters, broadcast storms, dead targets).
func FuzzRouteDedup(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x13, 0x42, 0x42, 0x99, 0x07})
	f.Add([]byte{0xff, 0xfe, 0xfd, 0xfc, 0x80, 0x40, 0x20, 0x10})
	pool := newRoutePool()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			t.Skip()
		}
		n := 3 + int(data[0]%6)
		c := routeCase{nodeIDs: ids.Consecutive(10, n), done: make([]bool, n)}
		for i := range c.done {
			c.done[i] = i < len(data) && data[i]&0x11 == 0x11
		}
		targets := append([]ids.ID(nil), c.nodeIDs...)
		targets = append(targets, 9999)
		pos := 1
		next := func() int {
			if pos >= len(data) {
				return 0
			}
			b := int(data[pos])
			pos++
			return b
		}
		for i, id := range c.nodeIDs {
			if c.done[i] {
				continue
			}
			for k := next() % 5; k > 0; k-- {
				pi := next() % len(pool.payloads)
				if next()%3 == 0 {
					c.outs = append(c.outs, pool.send(id, ids.None, pi))
				} else {
					c.outs = append(c.outs, pool.send(id, targets[next()%len(targets)], pi))
				}
			}
		}
		for _, workers := range []int{0, 1, 3} {
			checkRouteCase(t, c, workers)
		}
	})
}
