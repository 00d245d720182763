package rotor

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// TestEchoTallyMatchesSetReference feeds random windows of echoes —
// duplicates, more than 64 senders, senders interleaved and in runs —
// to a Core and checks the relayed echoes and adopted candidates of
// every window against a plain candidate -> sender-set tally.
func TestEchoTallyMatchesSetReference(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	senders := ids.Sparse(rng, 150)
	cands := ids.Sparse(rng, 40)
	core := NewCore(1, 5)
	core.SetCycling(true)
	adopted := map[ids.ID]bool{}
	relays, below := 0, 0
	for window := 0; window < 12; window++ {
		nv := 30 + rng.Intn(120)
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
		banned := senders[rng.Intn(len(senders))]
		accept := func(id ids.ID) bool { return id != banned }

		ref := map[ids.ID]map[ids.ID]bool{}
		for _, m := range msgs {
			e := m.Payload.(wire.IDEcho)
			if !accept(m.From) || e.Instance != 5 {
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

		core.NoteInbox(simnet.InboxOf(msgs...), accept)
		var gotEcho []ids.ID
		core.LoopRound(nv, wire.V(0), func(p wire.Payload) {
			if e, ok := p.(wire.IDEcho); ok {
				gotEcho = append(gotEcho, e.Candidate)
			}
		})
		if !slices.Equal(gotEcho, wantEcho) {
			t.Fatalf("window %d: relayed %v, want %v", window, gotEcho, wantEcho)
		}
		relays += len(gotEcho)
		for p := range wantAdopt {
			adopted[p] = true
		}
		got := core.Candidates()
		if got.Len() != len(adopted) {
			t.Fatalf("window %d: %d candidates, want %d", window, got.Len(), len(adopted))
		}
		for p := range adopted {
			if !got.Contains(p) {
				t.Fatalf("window %d: candidate %v missing", window, p)
			}
		}
	}
	if relays == 0 || below == 0 {
		t.Fatalf("inputs never crossed a threshold (relays %d, below two thirds %d)", relays, below)
	}
}
