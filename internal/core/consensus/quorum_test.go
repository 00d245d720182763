package consensus

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"uba/internal/census"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// mapTallies is the map-based per-round count the census.Tally kernel
// replaced, kept as the reference the kernel is checked against.
type mapTallies struct {
	counts map[wire.ValueKey]int
	values map[wire.ValueKey]wire.Value
}

func (t *mapTallies) add(v wire.Value, k int) {
	if k <= 0 {
		return
	}
	key := v.Key()
	t.counts[key] += k
	t.values[key] = v
}

func (t *mapTallies) best() (wire.Value, int) {
	var bestVal wire.Value
	bestCount := -1
	for key, count := range t.counts {
		v := t.values[key]
		switch {
		case count > bestCount:
			bestVal, bestCount = v, count
		case count == bestCount && v.Less(bestVal):
			bestVal = v
		}
	}
	if bestCount < 0 {
		return wire.Value{}, 0
	}
	return bestVal, bestCount
}

// referenceTally is the map-based tally of one round: counts by value,
// the distinct present senders, and the substitution fill.
func referenceTally(n *Node, inbox simnet.Inbox, kind wire.Kind) (mapTallies, int) {
	t := mapTallies{counts: map[wire.ValueKey]int{}, values: map[wire.ValueKey]wire.Value{}}
	senders := map[ids.ID]struct{}{}
	for m := range inbox.All() {
		if !n.frozen.Contains(m.From) {
			continue
		}
		switch p := m.Payload.(type) {
		case wire.Input:
			if kind == wire.KindInput && p.Instance == 0 {
				t.add(p.X, 1)
				senders[m.From] = struct{}{}
			}
		case wire.Prefer:
			if kind == wire.KindPrefer && p.Instance == 0 {
				t.add(p.X, 1)
				senders[m.From] = struct{}{}
			}
		case wire.NoPreference:
			if kind == wire.KindPrefer && p.Instance == 0 {
				senders[m.From] = struct{}{}
			}
		case wire.StrongPrefer:
			if kind == wire.KindStrongPrefer && p.Instance == 0 {
				t.add(p.X, 1)
				senders[m.From] = struct{}{}
			}
		case wire.NoStrongPreference:
			if kind == wire.KindStrongPrefer && p.Instance == 0 {
				senders[m.From] = struct{}{}
			}
		}
	}
	missing := n.frozen.N() - len(senders)
	if n.hasSent[kind] {
		t.add(n.lastSent[kind], missing)
	}
	return t, missing
}

// sameValue compares values bit for bit, so −0 and +0 (and a ⊥ that
// carries a stray X) are told apart.
func sameValue(a, b wire.Value) bool {
	return a.IsBot == b.IsBot && math.Float64bits(a.X) == math.Float64bits(b.X)
}

// TestQuorumTallyMatchesMapReference checks the kernel-backed tally
// against the map-based one over random inboxes: double votes, markers,
// strangers, foreign instances, ⊥ (also one with a stray X), −0 and +0,
// NaN, and rounds with more distinct values than the kernel scans
// linearly. Counts per value, the total, the leading value and its
// count, and the substitution fill must all agree.
func TestQuorumTallyMatchesMapReference(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	all := ids.Sparse(rng, 60)
	censusIDs, strangers := all[:40], all[40:]
	node := initNode(t, censusIDs[0], censusIDs, wire.V(0))
	pool := []wire.Value{
		wire.V(0), wire.V(math.Copysign(0, -1)), wire.V(1), wire.V(2.5),
		wire.Bot(), {IsBot: true, X: 3}, wire.V(math.NaN()), wire.V(math.Inf(-1)),
	}
	kinds := []wire.Kind{wire.KindInput, wire.KindPrefer, wire.KindStrongPrefer}
	spilled := 0
	for round := 0; round < 400; round++ {
		values := pool
		if round%5 == 0 {
			// A Byzantine spread: many more distinct values than
			// the linear scan holds.
			values = nil
			for range 8 + rng.Intn(40) {
				values = append(values, wire.V(float64(rng.Intn(1000))/4))
			}
		}
		value := func() wire.Value { return values[rng.Intn(len(values))] }
		var msgs []simnet.Received
		for range rng.Intn(120) {
			from := censusIDs[rng.Intn(len(censusIDs))]
			switch {
			case rng.Intn(10) == 0:
				from = strangers[rng.Intn(len(strangers))]
			case rng.Intn(3) > 0 && len(msgs) > 0:
				from = msgs[len(msgs)-1].From // a run of one sender
			}
			inst := uint64(0)
			if rng.Intn(10) == 0 {
				inst = 7 // another protocol's instance
			}
			var p wire.Payload
			switch rng.Intn(5) {
			case 0:
				p = wire.Input{Instance: inst, X: value()}
			case 1:
				p = wire.Prefer{Instance: inst, X: value()}
			case 2:
				p = wire.NoPreference{Instance: inst}
			case 3:
				p = wire.StrongPrefer{Instance: inst, X: value()}
			default:
				p = wire.NoStrongPreference{Instance: inst}
			}
			msgs = append(msgs, simnet.Received{From: from, Payload: p})
		}
		kind := kinds[rng.Intn(len(kinds))]
		node.hasSent[kind] = rng.Intn(3) > 0
		node.lastSent[kind] = value()
		inbox := simnet.InboxOf(msgs...)

		ref, missing := referenceTally(node, inbox, kind)
		got := node.tally(inbox, kind)
		if got.Missing() != missing {
			t.Fatalf("round %d: %d missing, want %d", round, got.Missing(), missing)
		}
		total := 0
		for key, c := range ref.counts {
			total += c
			if g := got.Count(ref.values[key]); g != c {
				t.Fatalf("round %d: count(%v) = %d, want %d", round, ref.values[key], g, c)
			}
		}
		if got.Total() != total {
			t.Fatalf("round %d: total %d, want %d", round, got.Total(), total)
		}
		wantX, wantCount := ref.best()
		q := got.Best()
		if q.Count != wantCount || !sameValue(q.X, wantX) || q.N != len(censusIDs) {
			t.Fatalf("round %d: best (%#v, %d, n %d), want (%#v, %d, n %d)",
				round, q.X, q.Count, q.N, wantX, wantCount, len(censusIDs))
		}
		if len(ref.counts) > 8 {
			spilled++
		}
	}
	if spilled == 0 {
		t.Fatal("no round had more distinct values than the linear scan holds")
	}
}

// quorumInbox builds one round of inputs from members, one run per
// sender: every sender votes 0 or 1, except that with more than two
// distinct values the first 42 are Byzantine and spread that many
// distinct values over themselves, round-robin.
func quorumInbox(members []ids.ID, distinct int) simnet.Inbox {
	const byzantine = 42
	var msgs []simnet.Received
	for i, from := range members {
		if i >= byzantine || distinct <= 2 {
			msgs = append(msgs, simnet.Received{From: from, Payload: wire.Input{X: wire.V(float64(i % 2))}})
			continue
		}
		for v := i; v < distinct; v += byzantine {
			msgs = append(msgs, simnet.Received{From: from, Payload: wire.Input{X: wire.V(float64(v))}})
		}
	}
	return simnet.InboxOf(msgs...)
}

// quorumNode returns a node whose frozen census is members and which
// has sent an input, so tallies apply the substitution fill.
func quorumNode(t testing.TB, members []ids.ID) *Node {
	t.Helper()
	node := New(members[0], wire.V(0))
	node.Step(&simnet.RoundEnv{Round: 1})
	inits := make([]simnet.Received, 0, len(members))
	for _, id := range members {
		inits = append(inits, simnet.Received{From: id, Payload: wire.Init{}})
	}
	node.Step(&simnet.RoundEnv{Round: 2, Inbox: simnet.InboxOf(inits...)})
	node.Step(&simnet.RoundEnv{Round: 3})
	if node.NV() != len(members) {
		t.Fatalf("frozen n_v = %d, want %d", node.NV(), len(members))
	}
	return node
}

// TestQuorumTallyZeroAlloc is the kernel's zero-alloc gate: once its
// scratch has grown, tallying a 128-message inbox and taking the quorum
// allocates nothing.
func TestQuorumTallyZeroAlloc(t *testing.T) {
	members := ids.Sparse(rand.New(rand.NewSource(1)), 128)
	node := quorumNode(t, members)
	inbox := quorumInbox(members, 2)
	if inbox.Len() != 128 {
		t.Fatalf("inbox has %d messages, want 128", inbox.Len())
	}
	var q census.Quorum
	tallyRound := func() { q = node.tally(inbox, wire.KindInput).Best() }
	tallyRound()
	if allocs := testing.AllocsPerRun(100, tallyRound); allocs != 0 {
		t.Fatalf("steady-state tally allocated %.1f times per round, want 0", allocs)
	}
	_ = q
}

// BenchmarkQuorumTally times one tallied round at n_v = 128: with two
// distinct values (correct nodes split 0/1), and with 42 Byzantine
// senders spreading 4,096 distinct values, every one of which counts.
func BenchmarkQuorumTally(b *testing.B) {
	members := ids.Sparse(rand.New(rand.NewSource(1)), 128)
	for _, distinct := range []int{2, 4096} {
		b.Run(fmt.Sprintf("distinct=%d", distinct), func(b *testing.B) {
			node := quorumNode(b, members)
			inbox := quorumInbox(members, distinct)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if q := node.tally(inbox, wire.KindInput).Best(); q.Count == 0 {
					b.Fatal("empty tally")
				}
			}
		})
	}
}
