package oracle

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"uba/internal/adversary"
	"uba/internal/core/relbcast"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/trace"
)

// This file tests the delivery-reading oracles against the engine's
// lazy simnet.Deliveries view: noForgedSender must reach the same
// verdicts through the view as through a full per-delivery event feed,
// under live link faults that corrupt and demote copies, and a wrapper
// between a suite and an oracle must hand the inner oracle the view.

// rbRun is a reliable-broadcast network: correct nodes (the first is
// the source) plus two Byzantine echo amplifiers pushing a forged pair
// for the correct source.
type rbRun struct {
	net     *simnet.Network
	nodes   []*relbcast.Node
	correct *ids.Set
	source  ids.ID
}

func newRBRun(t *testing.T, seed int64, cfg simnet.Config) *rbRun {
	t.Helper()
	all := ids.Sparse(rand.New(rand.NewSource(seed)), 9)
	correctIDs, byz := all[:7], all[7:]
	r := &rbRun{net: simnet.New(cfg), correct: ids.NewSet(correctIDs...), source: correctIDs[0]}
	t.Cleanup(r.net.Close)
	for i, id := range correctIDs {
		node := relbcast.NewRelay(id)
		if i == 0 {
			node = relbcast.NewSource(id, []byte("genuine"))
		}
		r.nodes = append(r.nodes, node)
		if err := r.net.Add(node); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range byz {
		if err := r.net.AddByzantine(adversary.NewEchoAmplifier(id, r.source, []byte("forged"))); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// accepted probes the run's acceptances, as ForBroadcast does.
func (r *rbRun) accepted() []RBAcceptance {
	var out []RBAcceptance
	for _, n := range r.nodes {
		for _, acc := range n.Accepted() {
			out = append(out, RBAcceptance{Node: n.ID(), Source: acc.Source, Body: acc.Body})
		}
	}
	return out
}

func (r *rbRun) rounds(t *testing.T, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		if err := r.net.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
}

// corruptPlan is a fault plan whose link corruption rule is live from
// round 1: corrupted copies, and every broadcast demoted to
// per-receiver unicast entries.
func corruptPlan(seed int64, rate float64) *simnet.FaultPlan {
	return &simnet.FaultPlan{Seed: seed, Events: []simnet.FaultEvent{
		{Round: 1, Kind: simnet.FaultCorrupt, Rate: rate},
	}}
}

// eventFeed attaches two suites to one network: view receives the
// engine's feed as is (ObserveDeliveries, ObserveRoundStats, then
// ObserveRound), while events receives each round's full EventLog record — engine events
// followed by every delivery event — through ObserveRound alone, the
// per-delivery feed the view replaced.
type eventFeed struct {
	view, events *Suite
	log          *trace.EventLog
	seen         int
}

func (f *eventFeed) ObserveDeliveries(round int, d simnet.Deliveries) {
	f.view.ObserveDeliveries(round, d)
}

func (f *eventFeed) ObserveRoundStats(round int, acct simnet.RoundAccounting) {
	f.view.ObserveRoundStats(round, acct)
}

func (f *eventFeed) ObserveRound(round int, events []trace.Event) {
	f.view.ObserveRound(round, events)
	logged := f.log.Events()
	f.events.ObserveRound(round, logged[f.seen:])
	f.seen = len(logged)
}

// TestNoForgedSenderViewMatchesEventFeed runs the unforgeability
// oracle through the view and through the per-delivery event feed side
// by side, under live link-corrupt rules at several rates: the
// violations — whether it fires, the round and the detail — must be
// identical. Corruption can flip an rbmessage's claimed source, so
// some runs must fire: the sweep covers both verdicts.
func TestNoForgedSenderViewMatchesEventFeed(t *testing.T) {
	t.Parallel()
	fired, quiet := 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		for _, rate := range []float64{0, 0.2, 0.6} {
			log := trace.NewEventLog(1 << 20)
			feed := &eventFeed{log: log}
			r := newRBRun(t, seed, simnet.Config{EventLog: log, Observer: feed, FaultPlan: corruptPlan(seed, rate)})
			feed.view = NewSuite(NewNoForgedSender("broadcast-unforgeability", r.correct, r.accepted))
			feed.events = NewSuite(NewNoForgedSender("broadcast-unforgeability", r.correct, r.accepted))
			r.rounds(t, 8)
			got, want := feed.view.Violations(), feed.events.Violations()
			if !slices.Equal(got, want) {
				t.Fatalf("seed=%d rate=%v: view verdicts %+v, event-feed verdicts %+v", seed, rate, got, want)
			}
			if len(got) > 0 {
				fired++
			} else {
				quiet++
			}
		}
	}
	if fired == 0 || quiet == 0 {
		t.Fatalf("sweep covered %d firing and %d quiet runs; want both", fired, quiet)
	}
}

// TestNoForgedSenderViewGenuineAndForged: with a live corrupt rule the
// oracle stays quiet on the genuine acceptances it learns through the
// view, and fires — naming the forged body — on the round a node
// accepts a pair the correct source never sent.
func TestNoForgedSenderViewGenuineAndForged(t *testing.T) {
	t.Parallel()
	var forged []RBAcceptance
	suite := NewSuite()
	r := newRBRun(t, 1, simnet.Config{Observer: suite, FaultPlan: corruptPlan(7, 0.05)})
	probe := func() []RBAcceptance { return append(r.accepted(), forged...) }
	suite.Add(NewNoForgedSender("forge", r.correct, probe))
	r.rounds(t, 5)
	if n := len(r.accepted()); n == 0 {
		t.Fatal("no node accepted the genuine broadcast; the run exercises nothing")
	}
	if v := suite.Violations(); len(v) > 0 {
		t.Fatalf("genuine acceptances fired through the view: %+v", v)
	}
	forged = []RBAcceptance{{Node: r.nodes[1].ID(), Source: r.source, Body: []byte("never-sent")}}
	r.rounds(t, 1)
	v := suite.First()
	if v == nil || v.Round != 6 || !strings.Contains(v.Detail, "never-sent") {
		t.Fatalf("forged acceptance verdict = %+v, want a round-6 violation naming the body", v)
	}
}

// hideDeliveries wraps an oracle and strips the round's view before
// the inner oracle sees it — what a suite attached without its
// ObserveDeliveries forward looks like to the oracle.
type hideDeliveries struct{ Oracle }

func (h hideDeliveries) Observe(r Round) *Violation {
	r.Deliveries = simnet.Deliveries{}
	return h.Oracle.Observe(r)
}

// TestDegradedForwardsDeliveries: a delivery oracle wrapped in
// NewDegraded must still see the view. Without it the inner
// noForgedSender learns no genuine pair and flags the first genuine
// acceptance, which the hideDeliveries control demonstrates.
func TestDegradedForwardsDeliveries(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		wrap func(Oracle) Oracle
		fire bool
	}{
		{"degraded", func(o Oracle) Oracle { return NewDegraded(o, 2) }, false},
		{"hidden", func(o Oracle) Oracle { return hideDeliveries{o} }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			suite := NewSuite()
			r := newRBRun(t, 2, simnet.Config{Observer: suite})
			suite.Add(tc.wrap(NewNoForgedSender("forge", r.correct, r.accepted)))
			r.rounds(t, 6)
			if len(r.accepted()) == 0 {
				t.Fatal("no node accepted the genuine broadcast; the run exercises nothing")
			}
			if got := suite.Failed(); got != tc.fire {
				t.Fatalf("%s wrapper: fired=%v (%+v), want %v", tc.name, got, suite.Violations(), tc.fire)
			}
			if tc.fire && !strings.Contains(fmt.Sprint(suite.First()), "correct source never sent it") {
				t.Fatalf("control fired for the wrong reason: %+v", suite.First())
			}
		})
	}
}
