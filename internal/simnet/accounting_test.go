package simnet

import (
	"testing"

	"uba/internal/trace"
)

// statsRecorder captures every RoundAccounting the engine hands to
// ObserveRoundStats; it ignores the engine events.
type statsRecorder struct {
	rounds []int
	accts  []RoundAccounting
}

func (r *statsRecorder) ObserveRound(round int, events []trace.Event) {}

func (r *statsRecorder) ObserveRoundStats(round int, acct RoundAccounting) {
	r.rounds = append(r.rounds, round)
	r.accts = append(r.accts, acct)
}

// TestRoundAccountingSplit pins the broadcast/unicast split and the
// per-correct-node maxima: a correct broadcaster, a correct unicaster
// with two targets, a silent correct node, and a flooding Byzantine
// node whose sends count in the totals but not the correct maxima.
func TestRoundAccountingSplit(t *testing.T) {
	t.Parallel()
	rec := &statsRecorder{}
	net := New(Config{Observer: rec})
	a := newRecorder(1, func(env *RoundEnv) { env.Broadcast(body("a")) })
	b := newRecorder(2, func(env *RoundEnv) {
		env.Send(1, body("b1"))
		env.Send(3, body("b2"))
	})
	c := newRecorder(3)
	for _, p := range []*recorder{a, b, c} {
		if err := net.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	byz := newRecorder(4, func(env *RoundEnv) {
		for i := 0; i < 5; i++ {
			env.Broadcast(body("flood"))
		}
		env.Send(1, body("poke"))
	})
	if err := net.AddByzantine(byz); err != nil {
		t.Fatal(err)
	}
	if err := net.RunRound(); err != nil {
		t.Fatal(err)
	}
	if len(rec.accts) != 1 {
		t.Fatalf("observer saw %d rounds, want 1", len(rec.accts))
	}
	acct := rec.accts[0]
	if acct.Broadcasts != 6 || acct.Unicasts != 3 {
		t.Errorf("split = %d broadcasts, %d unicasts; want 6, 3", acct.Broadcasts, acct.Unicasts)
	}
	if acct.Nodes != 4 {
		t.Errorf("Nodes = %d, want 4", acct.Nodes)
	}
	// The Byzantine flooder (5 broadcasts, 1 unicast) must not move the
	// correct maxima: the largest correct tallies are a's 1 broadcast
	// and b's 2 unicasts.
	if acct.CorrectMaxBroadcasts != 1 || acct.CorrectMaxUnicasts != 2 {
		t.Errorf("correct maxima = %d broadcasts, %d unicasts; want 1, 2",
			acct.CorrectMaxBroadcasts, acct.CorrectMaxUnicasts)
	}
	// Broadcast dedup fans each distinct broadcast to all 4 nodes; the
	// flooder's 5 identical bodies dedup to one delivered copy each.
	if acct.Deliveries == 0 || acct.Bytes == 0 {
		t.Errorf("deliveries/bytes not filled: %+v", acct)
	}
}

// TestRoundAccountingMatchesCollector checks the split the observer
// sees is the same one the trace collector records.
func TestRoundAccountingMatchesCollector(t *testing.T) {
	t.Parallel()
	rec := &statsRecorder{}
	var col trace.Collector
	net := New(Config{Observer: rec, Collector: &col})
	a := newRecorder(1, func(env *RoundEnv) { env.Broadcast(body("x")) })
	b := newRecorder(2, func(env *RoundEnv) { env.Send(1, body("y")) })
	for _, p := range []*recorder{a, b} {
		if err := net.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.RunRound(); err != nil {
		t.Fatal(err)
	}
	rep := col.Report()
	if len(rec.accts) != 1 {
		t.Fatalf("observer saw %d rounds, want 1", len(rec.accts))
	}
	acct := rec.accts[0]
	if rep.Broadcasts != acct.Broadcasts || rep.Unicasts != acct.Unicasts {
		t.Errorf("collector split %d/%d, observer split %d/%d",
			rep.Broadcasts, rep.Unicasts, acct.Broadcasts, acct.Unicasts)
	}
	if rep.Sends != acct.Broadcasts+acct.Unicasts {
		t.Errorf("Sends = %d, want %d", rep.Sends, acct.Broadcasts+acct.Unicasts)
	}
}
