package rotor

import (
	"bytes"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"uba/internal/census"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// TestEchoTallyMatchesSetReference feeds random windows of echoes —
// duplicates, more than 64 senders, senders interleaved and in runs —
// to a Core and checks the relayed echoes and adopted candidates of
// every window against a plain candidate -> sender-set tally. Half the
// windows deliver each sender's run in encoding order, as the round
// engine does, so the cursor hits; the others shuffle runs and skip
// candidates, so its miss path runs. Both sender numberings are
// covered: census slots, and numbering on first sight.
func TestEchoTallyMatchesSetReference(t *testing.T) {
	t.Parallel()
	for _, withCensus := range []bool{true, false} {
		rng := rand.New(rand.NewSource(3))
		senders := ids.Sparse(rng, 150)
		cands := ids.Sparse(rng, 200)
		core := NewCore(1, 5)
		core.SetCycling(true)
		adopted := map[ids.ID]bool{}
		relays, below := 0, 0
		for window := 0; window < 16; window++ {
			nv := 30 + rng.Intn(120)
			engineOrder := window%2 == 0
			var msgs []simnet.Received
			if engineOrder {
				msgs = engineOrderedEchoes(rng, senders, cands)
			} else {
				msgs = shuffledEchoes(rng, senders, cands)
			}
			banned := ids.None
			var members *census.Frozen
			if withCensus {
				banned = senders[rng.Intn(len(senders))]
				set := ids.NewSet(senders...)
				set.Remove(banned)
				frozen := census.FrozenOf(set)
				members = &frozen
			}

			ref := map[ids.ID]map[ids.ID]bool{}
			for _, m := range msgs {
				e := m.Payload.(wire.IDEcho)
				if m.From == banned || e.Instance != 5 {
					continue
				}
				if ref[e.Candidate] == nil {
					ref[e.Candidate] = map[ids.ID]bool{}
				}
				ref[e.Candidate][m.From] = true
			}
			var wantEcho []ids.ID
			wantAdopt := map[ids.ID]bool{}
			for _, p := range slices.Sorted(maps.Keys(ref)) {
				if adopted[p] {
					continue
				}
				if 3*len(ref[p]) >= nv {
					wantEcho = append(wantEcho, p)
				}
				if 3*len(ref[p]) >= 2*nv {
					wantAdopt[p] = true
				} else {
					below++
				}
			}

			core.NoteInbox(simnet.InboxOf(msgs...), members)
			var gotEcho []ids.ID
			core.LoopRound(nv, wire.V(0), func(p wire.Payload) {
				if e, ok := p.(wire.IDEcho); ok {
					gotEcho = append(gotEcho, e.Candidate)
				}
			})
			if !slices.Equal(gotEcho, wantEcho) {
				t.Fatalf("census %v, window %d: relayed %v, want %v", withCensus, window, gotEcho, wantEcho)
			}
			relays += len(gotEcho)
			for p := range wantAdopt {
				adopted[p] = true
			}
			got := core.Candidates()
			if got.Len() != len(adopted) {
				t.Fatalf("census %v, window %d: %d candidates, want %d", withCensus, window, got.Len(), len(adopted))
			}
			for p := range adopted {
				if !got.Contains(p) {
					t.Fatalf("census %v, window %d: candidate %v missing", withCensus, window, p)
				}
			}
		}
		if relays == 0 || below == 0 {
			t.Fatalf("census %v: inputs never crossed a threshold (relays %d, below two thirds %d)", withCensus, relays, below)
		}
	}
}

// engineOrderedEchoes builds a window the way the round engine delivers
// it: senders back to back, each echoing a random subset of cands in
// encoding order, with a few echoes for another instance mixed in.
func engineOrderedEchoes(rng *rand.Rand, senders, cands []ids.ID) []simnet.Received {
	// Most candidates are echoed by nearly every sender, the rest by a
	// random share, so counts land on both sides of the thresholds.
	share := make([]float64, len(cands))
	for i := range share {
		share[i] = 0.95
		if rng.Intn(2) == 0 {
			share[i] = rng.Float64() * 0.8
		}
	}
	var msgs []simnet.Received
	for _, from := range senders {
		if rng.Intn(3) == 0 {
			continue
		}
		var run []wire.Payload
		for i, c := range cands {
			if rng.Float64() >= share[i] {
				continue // this sender skips c: the cursor misses once
			}
			inst := uint64(5)
			if rng.Intn(20) == 0 {
				inst = 6 // another instance: ignored
			}
			run = append(run, wire.IDEcho{Instance: inst, Candidate: c})
		}
		slices.SortFunc(run, func(a, b wire.Payload) int { return bytes.Compare(wire.Encode(a), wire.Encode(b)) })
		for _, p := range run {
			msgs = append(msgs, simnet.Received{From: from, Payload: p})
		}
	}
	return msgs
}

// shuffledEchoes builds a window with no order inside a sender's run:
// random candidates, duplicates, and senders both in runs and
// interleaved.
func shuffledEchoes(rng *rand.Rand, senders, cands []ids.ID) []simnet.Received {
	var msgs []simnet.Received
	for range rng.Intn(3000) {
		from := senders[rng.Intn(len(senders))]
		if rng.Intn(4) > 0 && len(msgs) > 0 {
			from = msgs[len(msgs)-1].From // a run of one sender
		}
		inst := uint64(5)
		if rng.Intn(20) == 0 {
			inst = 6 // another instance: ignored
		}
		msgs = append(msgs, simnet.Received{From: from, Payload: wire.IDEcho{Instance: inst, Candidate: cands[rng.Intn(len(cands))]}})
	}
	return msgs
}
