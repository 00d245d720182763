package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"uba/internal/ids"
	"uba/internal/trace"
	"uba/internal/wire"
)

// wirePayload builds a distinct fixed-size payload per tag.
func wirePayload(i int) wire.Payload {
	return wire.Event{Round: uint64(i), Body: []byte{1}}
}

func encodedPayload(i int) []byte { return wire.Encode(wirePayload(i)) }

// This file tests the fault-containment layer: panic-to-crash-fault
// conversion, per-node per-round send/byte quotas, and the round
// observer feed. The cross-worker-count determinism of containment is
// asserted by the "panicky" workload in determinism_test.go and by the
// facade-level matrix in runner_equivalence_test.go.

// panicAt is a chatter-like process whose Step panics in a chosen round.
type panicAt struct {
	ChatterProcess
	Round int
}

func (p *panicAt) Step(env *RoundEnv) {
	if env.Round == p.Round {
		// Queue a send first so containment must also discard the
		// crashing round's partial output.
		env.Broadcast(wirePayload(env.Round))
		panic("injected step fault")
	}
	p.ChatterProcess.Step(env)
}

// flood queues `count` distinct unicasts to every peer each round — the
// amplification workload the quotas must contain.
type flood struct {
	Ident ids.ID
	Peers []ids.ID
	Count int
}

func (f *flood) ID() ids.ID { return f.Ident }
func (f *flood) Done() bool { return false }
func (f *flood) Step(env *RoundEnv) {
	for i := 0; i < f.Count; i++ {
		for _, to := range f.Peers {
			env.Send(to, wirePayload(env.Round*1000+i))
		}
	}
}

// roundRecorder captures the observer feed: per round, the engine
// events ObserveRound received followed by the expanded Deliveries view
// ObserveDeliveries received before it, plus the log of every
// round-boundary call in arrival order. It keeps the last view so
// tests can probe it after its window closed.
type roundRecorder struct {
	feeds      [][]trace.Event
	deliveries []trace.Event
	calls      []string
	last       Deliveries
}

func (r *roundRecorder) ObserveDeliveries(round int, d Deliveries) {
	r.calls = append(r.calls, fmt.Sprintf("deliveries@%d", round))
	r.last = d
	r.deliveries = slices.Collect(d.All())
}

func (r *roundRecorder) ObserveRoundStats(round int, _ RoundAccounting) {
	r.calls = append(r.calls, fmt.Sprintf("stats@%d", round))
}

func (r *roundRecorder) ObserveRound(round int, events []trace.Event) {
	r.calls = append(r.calls, fmt.Sprintf("round@%d", round))
	feed := append(slices.Clone(events), r.deliveries...)
	r.feeds = append(r.feeds, feed)
}

// boundaryCalls is the call log the round-boundary protocol produces
// for successful rounds 1..rounds: per round exactly one
// ObserveDeliveries, ObserveRoundStats, ObserveRound, in that order.
func boundaryCalls(rounds int) []string {
	var calls []string
	for r := 1; r <= rounds; r++ {
		calls = append(calls, fmt.Sprintf("deliveries@%d", r), fmt.Sprintf("stats@%d", r), fmt.Sprintf("round@%d", r))
	}
	return calls
}

func TestPanicContainedAsCrashFault(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	nodeIDs := ids.Sparse(rng, 5)
	log := trace.NewEventLog(0)
	net := New(Config{MaxRounds: 20, EventLog: log})
	victim := nodeIDs[2]
	for _, id := range nodeIDs {
		var p Process
		if id == victim {
			p = &panicAt{ChatterProcess: ChatterProcess{Ident: id}, Round: 3}
		} else {
			p = &ChatterProcess{Ident: id}
		}
		if err := net.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if err := net.RunRound(); err != nil {
			t.Fatalf("round %d: containment failed: %v", i+1, err)
		}
	}

	// The crash is recorded with the panic value.
	crashes := net.Crashes()
	if len(crashes) != 1 {
		t.Fatalf("crashes = %+v, want exactly one", crashes)
	}
	if crashes[0].Node != victim || crashes[0].Round != 3 {
		t.Fatalf("crash = %+v, want node %v round 3", crashes[0], victim)
	}
	if !strings.Contains(crashes[0].Reason, "injected step fault") {
		t.Fatalf("crash reason %q missing panic value", crashes[0].Reason)
	}
	if !net.Crashed(victim) {
		t.Fatal("Crashed(victim) = false")
	}

	// Exactly one NodeCrashed event, in round 3, and the crashed node
	// neither sends nor receives from round 3 on.
	var crashEvents, victimSendsAfter, victimRecvAfter int
	for _, e := range log.Events() {
		if e.Kind == trace.KindNodeCrashed {
			crashEvents++
			if e.Round != 3 || e.From != uint64(victim) {
				t.Fatalf("crash event %+v, want round 3 node %v", e, victim)
			}
			continue
		}
		// A delivery in round r was sent in round r-1, so anything the
		// victim sent in its crash round (3) or later would surface as
		// a delivery with Round > 3 — including the partial queue of
		// the crashing Step, which containment must discard.
		if e.Round > 3 && e.From == uint64(victim) {
			victimSendsAfter++
		}
		if e.Round > 3 && e.To == uint64(victim) {
			victimRecvAfter++
		}
	}
	if crashEvents != 1 {
		t.Fatalf("NodeCrashed events = %d, want 1", crashEvents)
	}
	if victimSendsAfter != 0 || victimRecvAfter != 0 {
		t.Fatalf("crashed node still active: %d sends, %d deliveries after crash",
			victimSendsAfter, victimRecvAfter)
	}

	// AllDone treats the crash fault as finished (everyone else here
	// never halts, so only the victim matters).
	if !AllDone([]ids.ID{victim})(net) {
		t.Fatal("AllDone should count a crashed node as finished")
	}
}

func TestSendQuotaContainsFlood(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	nodeIDs := ids.Sparse(rng, 4)
	log := trace.NewEventLog(0)
	col := &trace.Collector{}
	net := New(Config{MaxRounds: 10, EventLog: log, Collector: col, SendQuota: 3})
	flooder := nodeIDs[0]
	for _, id := range nodeIDs {
		var p Process
		if id == flooder {
			p = &flood{Ident: id, Peers: nodeIDs, Count: 5} // 20 sends/round, quota 3
		} else {
			p = &ChatterProcess{Ident: id}
		}
		if err := net.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.RunRound(); err != nil {
		t.Fatal(err)
	}

	var quotaEvents int
	for _, e := range log.Events() {
		if e.Kind == trace.KindQuotaDrop {
			quotaEvents++
			if e.From != uint64(flooder) {
				t.Fatalf("quota event for %d, want flooder %v", e.From, flooder)
			}
			if e.Size != 17 { // 20 queued - 3 quota
				t.Fatalf("quota event dropped %d, want 17", e.Size)
			}
		}
	}
	if quotaEvents != 1 {
		t.Fatalf("quota events = %d, want 1", quotaEvents)
	}
	// Accounting reflects the post-quota stream: 3 flooder sends + 3
	// chatter broadcasts.
	if got := col.Report().Sends; got != 6 {
		t.Fatalf("sends = %d, want 6 (quota applied before accounting)", got)
	}
}

func TestByteQuotaPrefixPolicy(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(13))
	nodeIDs := ids.Sparse(rng, 3)
	enc := len(encodedPayload(1))
	log := trace.NewEventLog(0)
	// Budget for exactly two encoded payloads per node per round.
	net := New(Config{MaxRounds: 10, EventLog: log, ByteQuota: int64(2 * enc)})
	for _, id := range nodeIDs {
		if err := net.Add(&flood{Ident: id, Peers: nodeIDs[:1], Count: 4}); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.RunRound(); err != nil {
		t.Fatal(err)
	}
	for _, e := range log.Events() {
		if e.Kind == trace.KindQuotaDrop && e.Size != 2 {
			t.Fatalf("byte quota dropped %d sends, want 2 (prefix of 4)", e.Size)
		}
	}
}

// TestObserverFeedMatchesEventLog pins the round-boundary contract:
// per round, the observer gets exactly one ObserveDeliveries,
// ObserveRoundStats and ObserveRound call, in that order and for that
// round, and the engine events handed to ObserveRound followed by the
// Deliveries view's expansion are exactly the EventLog's record of that
// round — same events, same order — at worker caps 1 (inline) and 3
// (sharded delivery), with and without a fault plan whose link
// drop/duplicate/corrupt/reorder rules are live and which crashes a
// node, on top of a contained Step panic.
func TestObserverFeedMatchesEventLog(t *testing.T) {
	t.Parallel()
	const rounds = 6
	nodeIDs := ids.Sparse(rand.New(rand.NewSource(17)), 7)
	victim := nodeIDs[1]
	faulty := &FaultPlan{Seed: 3, Events: []FaultEvent{
		{Round: 1, Kind: FaultDrop, Rate: 0.15},
		{Round: 1, Kind: FaultDuplicate, Rate: 0.15},
		{Round: 1, Kind: FaultCorrupt, Rate: 0.15},
		{Round: 1, Kind: FaultReorder, Rate: 0.5},
		{Round: 3, Kind: FaultCrash, Node: uint64(nodeIDs[4])},
	}}
	for _, plan := range []*FaultPlan{nil, faulty} {
		for _, workers := range []int{1, 3} {
			label := "plan=nil"
			if plan != nil {
				label = "plan=links"
			}
			t.Run(fmt.Sprintf("%s/workers=%d", label, workers), func(t *testing.T) {
				t.Parallel()
				log := trace.NewEventLog(0)
				rec := &roundRecorder{}
				net := New(Config{Workers: workers, EventLog: log, Observer: rec, FaultPlan: plan})
				for _, id := range nodeIDs {
					var p Process = &ChatterProcess{Ident: id}
					if id == victim {
						p = &panicAt{ChatterProcess: ChatterProcess{Ident: id}, Round: 2}
					}
					if err := net.Add(p); err != nil {
						t.Fatal(err)
					}
				}
				seen := 0
				kinds := map[string]bool{}
				for r := 1; r <= rounds; r++ {
					if err := net.RunRound(); err != nil {
						t.Fatal(err)
					}
					logged := log.Events()
					want := logged[seen:]
					seen = len(logged)
					if want := boundaryCalls(r); !slices.Equal(rec.calls, want) {
						t.Fatalf("after round %d the observer calls were %v, want %v", r, rec.calls, want)
					}
					got := rec.feeds[r-1]
					if !slices.Equal(got, want) {
						t.Fatalf("round %d: observer feed (%d events) != EventLog slice (%d events)\n  feed: %+v\n  log:  %+v",
							r, len(got), len(want), got, want)
					}
					for _, e := range got {
						kinds[e.Kind] = true
					}
				}
				// The feed really carried both halves: containment
				// events, link-fault events on the faulty plan, and
				// deliveries exposing the canonical encoding.
				must := []string{trace.KindNodeCrashed, wire.KindInput.String()}
				if plan != nil {
					must = append(must, trace.KindLinkDrop, trace.KindLinkDup, trace.KindLinkCorrupt, trace.KindLinkReorder)
				}
				for _, k := range must {
					if !kinds[k] {
						t.Errorf("feed never carried a %q event", k)
					}
				}
				for _, d := range rec.deliveries {
					if d.Enc == "" {
						t.Fatalf("delivery event missing Enc: %+v", d)
					}
				}

				// Stale views: the last view is live until the network
				// next changes, then ranging over it panics with
				// ErrStaleDeliveries — after a RunRound, and after Close.
				live := rec.last
				if n := len(slices.Collect(live.All())); n != len(rec.deliveries) {
					t.Fatalf("re-ranging a live view yielded %d deliveries, want %d", n, len(rec.deliveries))
				}
				if err := net.RunRound(); err != nil {
					t.Fatal(err)
				}
				expectStale(t, "after RunRound", live)
				current := rec.last
				net.Close()
				expectStale(t, "after Close", current)
			})
		}
	}
}

// expectStale asserts that ranging over d panics with ErrStaleDeliveries.
func expectStale(t *testing.T, when string, d Deliveries) {
	t.Helper()
	defer func() {
		err, _ := recover().(error)
		if !errors.Is(err, ErrStaleDeliveries) {
			t.Fatalf("%s: ranging a stale view recovered %v, want ErrStaleDeliveries", when, err)
		}
	}()
	for range d.All() {
	}
	t.Fatalf("%s: ranging a stale view did not panic", when)
}

// TestZeroDeliveriesIsEmpty pins the zero view: it yields nothing and
// never panics, so oracles can be driven by hand without a network.
func TestZeroDeliveriesIsEmpty(t *testing.T) {
	t.Parallel()
	for e := range (Deliveries{}).All() {
		t.Fatalf("zero view yielded %+v", e)
	}
}

// TestAbortedRoundNotObserved: a round that fails (here an
// EnforceContactRule violation in round 2) reaches no observer method
// at all — the observer's log ends with the last successful round — at
// worker caps 1 and 3, with and without a live link-fault plan.
func TestAbortedRoundNotObserved(t *testing.T) {
	t.Parallel()
	links := &FaultPlan{Seed: 5, Events: []FaultEvent{
		{Round: 1, Kind: FaultDuplicate, Rate: 0.5},
		{Round: 1, Kind: FaultReorder, Rate: 0.5},
	}}
	for _, plan := range []*FaultPlan{nil, links} {
		for _, workers := range []int{1, 3} {
			label := "plan=nil"
			if plan != nil {
				label = "plan=links"
			}
			t.Run(fmt.Sprintf("%s/workers=%d", label, workers), func(t *testing.T) {
				t.Parallel()
				rec := &roundRecorder{}
				net := New(Config{Workers: workers, EnforceContactRule: true, Observer: rec, FaultPlan: plan})
				a := newRecorder(1, func(env *RoundEnv) { env.Broadcast(body("a")) },
					func(env *RoundEnv) { env.Send(3, body("never heard from 3")) })
				for _, p := range []Process{a, newRecorder(2), newRecorder(3)} {
					if err := net.Add(p); err != nil {
						t.Fatal(err)
					}
				}
				if err := net.RunRound(); err != nil {
					t.Fatal(err)
				}
				if err := net.RunRound(); !errors.Is(err, ErrContactRule) {
					t.Fatalf("round 2 err = %v, want ErrContactRule", err)
				}
				if want := boundaryCalls(1); !slices.Equal(rec.calls, want) {
					t.Fatalf("observer calls = %v, want %v", rec.calls, want)
				}
			})
		}
	}
}
