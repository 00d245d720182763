package parallelcon

import (
	"math"
	"math/rand"
	"testing"

	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// referenceQuorum is the map-based per-(instance, family) tally the
// census.Tally kernel replaced: one inbox walk per instance, counts by
// value key with last-counted value kept, then the substitution fill.
// seen is the reference's own record of which families the instance has
// received.
func referenceQuorum(n *Node, ins *instance, inbox simnet.Inbox, fam family, seen *[numFamilies]bool) (wire.Value, int) {
	counts := map[wire.ValueKey]int{}
	values := map[wire.ValueKey]wire.Value{}
	add := func(v wire.Value, k int) {
		if k > 0 {
			counts[v.Key()] += k
			values[v.Key()] = v
		}
	}
	senders := map[ids.ID]struct{}{}
	sawReal := false
	for m := range inbox.All() {
		if !n.frozen.Contains(m.From) {
			continue
		}
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
		}
		if mfam != fam || iid != ins.id {
			continue
		}
		if !marker {
			add(x, 1)
		}
		senders[m.From] = struct{}{}
		sawReal = true
	}
	fill := wire.Bot()
	if seen[fam] && ins.hasSent[fam] {
		fill = ins.lastSent[fam]
	}
	add(fill, n.frozen.N()-len(senders))
	if sawReal {
		seen[fam] = true
	}
	var best wire.Value
	bestCount := -1
	for key, c := range counts {
		v := values[key]
		if c > bestCount || (c == bestCount && v.Less(best)) {
			best, bestCount = v, c
		}
	}
	if bestCount < 0 {
		return wire.Value{}, 0
	}
	return best, bestCount
}

// TestQuorumTallyMatchesMapReference checks parallelcon's bucketed
// one-pass tally against the per-instance map walk it replaced, over
// random inboxes mixing instances (one unknown to the node), all three
// families and their markers, double votes, strangers, ⊥, −0 and +0,
// and senders both in runs and interleaved. Every live instance's
// leading value and count must agree, with the first-receipt ⊥ fill
// and the own-last-message fill tracked round to round.
func TestQuorumTallyMatchesMapReference(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	all := ids.Sparse(rng, 30)
	members, strangers := all[:20], all[20:]
	iids := []uint64{3, 7, 11}
	var inputs []InputPair
	for _, iid := range iids {
		inputs = append(inputs, InputPair{Instance: iid, X: wire.V(1)})
	}
	n := memberNode(members[0], members, inputs)
	pool := []wire.Value{wire.V(0), wire.V(math.Copysign(0, -1)), wire.V(1), wire.V(2), wire.Bot()}
	refSeen := map[uint64]*[numFamilies]bool{}
	for _, iid := range iids {
		refSeen[iid] = new([numFamilies]bool)
	}
	for round := 0; round < 300; round++ {
		fam := family(rng.Intn(int(numFamilies)))
		var msgs []simnet.Received
		for range rng.Intn(100) {
			from := members[rng.Intn(len(members))]
			switch {
			case rng.Intn(10) == 0:
				from = strangers[rng.Intn(len(strangers))]
			case rng.Intn(3) > 0 && len(msgs) > 0:
				from = msgs[len(msgs)-1].From
			}
			iid := uint64(99) // an instance the node never joined
			if rng.Intn(8) > 0 {
				iid = iids[rng.Intn(len(iids))]
			}
			x := pool[rng.Intn(len(pool))]
			var p wire.Payload
			switch rng.Intn(5) {
			case 0:
				p = wire.Input{Instance: iid, X: x}
			case 1:
				p = wire.Prefer{Instance: iid, X: x}
			case 2:
				p = wire.NoPreference{Instance: iid}
			case 3:
				p = wire.StrongPrefer{Instance: iid, X: x}
			default:
				p = wire.NoStrongPreference{Instance: iid}
			}
			msgs = append(msgs, simnet.Received{From: from, Payload: p})
		}
		for _, ins := range n.inst {
			ins.hasSent[fam] = rng.Intn(2) == 0
			ins.lastSent[fam] = pool[rng.Intn(len(pool))]
		}
		inbox := simnet.InboxOf(msgs...)

		type want struct {
			x     wire.Value
			count int
		}
		wants := map[uint64]want{}
		for _, ins := range n.inst {
			x, c := referenceQuorum(n, ins, inbox, fam, refSeen[ins.id])
			wants[ins.id] = want{x, c}
		}
		n.scan(inbox, 1, fam) // phase 1: no joins
		n.tally(fam)
		if len(n.inst) != len(iids) {
			t.Fatalf("round %d: node holds %d instances, want %d", round, len(n.inst), len(iids))
		}
		for _, ins := range n.inst {
			w, q := wants[ins.id], ins.quorum
			sameX := q.X.IsBot == w.x.IsBot && math.Float64bits(q.X.X) == math.Float64bits(w.x.X)
			if q.Count != w.count || !sameX || q.N != len(members) {
				t.Fatalf("round %d, instance %d, family %d: quorum (%v, %d, n %d), want (%v, %d, n %d)",
					round, ins.id, fam, q.X, q.Count, q.N, w.x, w.count, len(members))
			}
			if ins.seenFamily != *refSeen[ins.id] {
				t.Fatalf("round %d, instance %d: seen families %v, want %v", round, ins.id, ins.seenFamily, *refSeen[ins.id])
			}
		}
	}
}
