package simnet

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"uba/internal/ids"
	"uba/internal/simnet/sched"
	"uba/internal/trace"
	"uba/internal/wire"
)

// This file tests the round-scheduled fault-injection layer (fault.go):
// plan validation, the semantics of every event kind, the determinism
// contract under a non-trivial plan (byte-identical transcripts across
// worker counts and concurrent jobs), and the quota × crash interplay.

// runFaultWorkload runs the sparsemix workload under the given plan and
// captures the observable state. workers > 0 forces that worker cap on
// a private scheduler (1 is the inline baseline); 0 keeps the Config
// default.
func runFaultWorkload(t *testing.T, plan *FaultPlan, seed int64, workers, rounds int) determinismOutcome {
	t.Helper()
	log := trace.NewEventLog(500_000)
	col := &trace.Collector{}
	net := New(Config{MaxRounds: rounds + 1, EventLog: log, Collector: col, FaultPlan: plan})
	defer net.Close()
	if workers > 0 {
		net.forceWorkers(workers)
	}
	rng := rand.New(rand.NewSource(seed))
	nodeIDs := ids.Sparse(rng, 12)
	out := determinismOutcome{logs: make(map[ids.ID][]string)}
	procs := make([]*sparseMix, 0, len(nodeIDs))
	for i, id := range nodeIDs {
		p := &sparseMix{id: id, idx: i, peers: nodeIDs}
		procs = append(procs, p)
		if err := net.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	mustRounds(t, net, rounds)
	for _, p := range procs {
		out.logs[p.id] = p.log
	}
	if log.Dropped() > 0 {
		t.Fatalf("transcript truncated (%d dropped)", log.Dropped())
	}
	out.events = log.Events()
	out.report = col.Report()
	return out
}

// faultPlanIDs returns the deterministic id layout runFaultWorkload uses.
func faultPlanIDs(seed int64) []ids.ID {
	return ids.Sparse(rand.New(rand.NewSource(seed)), 12)
}

// nontrivialPlan exercises every fault kind at once: a quorum-splitting
// partition with churn inside it, link loss/duplication/corruption,
// within-round reordering, a late joiner, and a quota change.
func nontrivialPlan(nodeIDs []ids.ID) *FaultPlan {
	raw := make([]uint64, len(nodeIDs))
	for i, id := range nodeIDs {
		raw[i] = uint64(id)
	}
	return &FaultPlan{
		Seed: 99,
		Events: []FaultEvent{
			{Round: 2, Kind: FaultJoin, Node: raw[11]},
			{Round: 2, Kind: FaultPartition, Groups: [][]uint64{raw[:6], raw[6:]}},
			{Round: 2, Kind: FaultDrop, Rate: 0.2},
			{Round: 3, Kind: FaultReorder, Rate: 0.5},
			{Round: 3, Kind: FaultCrash, Node: raw[2]},
			{Round: 4, Kind: FaultCorrupt, From: raw[1], Rate: 0.5},
			{Round: 5, Kind: FaultHeal},
			{Round: 5, Kind: FaultDuplicate, Node: raw[4], Rate: 0.4},
			{Round: 6, Kind: FaultRecover, Node: raw[2]},
			{Round: 6, Kind: FaultQuota, SendQuota: 3},
			{Round: 8, Kind: FaultDrop, Rate: 0},
		},
	}
}

// TestFaultPlanDeterminism asserts the acceptance-criteria contract:
// with a non-trivial fault plan active, the transcript, the traffic
// report and every process's observed deliveries are byte-identical
// across worker caps {1,0,2,3,5} (0 = the default cap), and stable
// across repeats.
func TestFaultPlanDeterminism(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			plan := nontrivialPlan(faultPlanIDs(seed))
			base := runFaultWorkload(t, plan, seed, 1, 10)
			if len(base.events) == 0 {
				t.Fatal("fault run recorded no events; comparison is vacuous")
			}
			var faults int
			for _, e := range base.events {
				switch e.Kind {
				case trace.KindPartition, trace.KindHeal, trace.KindLinkDrop,
					trace.KindLinkDup, trace.KindLinkCorrupt, trace.KindLinkReorder,
					trace.KindNodeJoined, trace.KindNodeRecovered, trace.KindQuotaChange:
					faults++
				}
			}
			if faults < 10 {
				t.Fatalf("plan injected only %d fault events; workload too tame to certify determinism", faults)
			}
			for _, workers := range []int{0, 2, 3, 5} {
				got := runFaultWorkload(t, plan, seed, workers, 10)
				diffOutcomes(t, fmt.Sprintf("workers=%d", workers), base, got)
			}
			again := runFaultWorkload(t, plan, seed, 3, 10)
			diffOutcomes(t, "workers=3 repeat", base, again)
		})
	}
}

// TestFaultPlanJobsDeterminism re-runs the non-trivial plan as several
// concurrent jobs multiplexed over one bounded scheduler (the campaign
// shape) and asserts every job, each at the default worker cap,
// reproduces the inline transcript, for scheduler budgets {1, 4}.
func TestFaultPlanJobsDeterminism(t *testing.T) {
	t.Parallel()
	const seed = int64(1)
	plan := nontrivialPlan(faultPlanIDs(seed))
	base := runFaultWorkload(t, plan, seed, 1, 10)
	for _, budget := range []int{1, 4} {
		jobs := faultJobs{
			t:    t,
			plan: plan,
			seed: seed,
			outs: make([]determinismOutcome, 4),
		}
		s := sched.New(budget)
		var phase sched.Phase
		s.Run(&phase, &jobs, len(jobs.outs), len(jobs.outs))
		s.Close()
		for j, got := range jobs.outs {
			diffOutcomes(t, fmt.Sprintf("budget=%d job=%d", budget, j), base, got)
		}
	}
}

// faultJobs runs one fault workload per task index, concurrently.
type faultJobs struct {
	t    *testing.T
	plan *FaultPlan
	seed int64
	outs []determinismOutcome
}

func (f *faultJobs) Run(i int) {
	f.outs[i] = runFaultWorkload(f.t, f.plan, f.seed, 0, 10)
}

// TestFaultPlanPresenceIsFree asserts that attaching a plan whose rules
// are never live does not change the execution: the transcript, report
// and delivery logs match a nil-plan run byte for byte.
func TestFaultPlanPresenceIsFree(t *testing.T) {
	t.Parallel()
	base := runFaultWorkload(t, nil, 3, 0, 8)
	got := runFaultWorkload(t, &FaultPlan{Seed: 42}, 3, 0, 8)
	diffOutcomes(t, "empty plan", base, got)
}

// TestFaultFilterDemotionIsInvisible asserts the broadcast-demotion
// path is semantically transparent: a plan whose only live rule has
// rate 0 forces the filter (and the dense per-receiver demotion) on
// every round, yet deliveries, inbox order, Broadcast flags, tallies
// and logs all match the nil-plan run. Only the rule-activation event
// itself may differ.
func TestFaultFilterDemotionIsInvisible(t *testing.T) {
	t.Parallel()
	base := runFaultWorkload(t, nil, 5, 0, 8)
	plan := &FaultPlan{Seed: 7, Events: []FaultEvent{{Round: 1, Kind: FaultDrop, Rate: 0}}}
	got := runFaultWorkload(t, plan, 5, 0, 8)
	activations := 0
	filtered := got.events[:0:0]
	for _, e := range got.events {
		if strings.HasPrefix(e.Enc, "rate=") {
			activations++
			continue
		}
		filtered = append(filtered, e)
	}
	if activations != 1 {
		t.Fatalf("expected exactly 1 rule-activation event, saw %d", activations)
	}
	got.events = filtered
	diffOutcomes(t, "rate-0 demotion", base, got)
}

// TestFaultPlanInvalid asserts an invalid plan latches as the network
// error and surfaces from the first RunRound.
func TestFaultPlanInvalid(t *testing.T) {
	t.Parallel()
	for _, plan := range []*FaultPlan{
		{Events: []FaultEvent{{Round: 0, Kind: FaultHeal}}},
		{Events: []FaultEvent{{Round: 1, Kind: "meteor"}}},
		{Events: []FaultEvent{{Round: 1, Kind: FaultDrop, Rate: 1.5}}},
		{Events: []FaultEvent{{Round: 1, Kind: FaultPartition}}},
		{Events: []FaultEvent{{Round: 1, Kind: FaultCrash}}},
	} {
		net := New(Config{MaxRounds: 5, FaultPlan: plan})
		err := net.Add(&ChatterProcess{Ident: 7})
		if err == nil {
			err = net.RunRound()
		}
		if err == nil {
			t.Fatalf("plan %+v: network accepted an invalid plan", plan.Events[0])
		}
		if !strings.Contains(err.Error(), "invalid fault plan") {
			t.Fatalf("plan %+v: error %q does not name the fault plan", plan.Events[0], err)
		}
	}
}

// deliveriesBetween counts transcript deliveries from -> to in the
// given (inclusive) round window.
func deliveriesBetween(events []trace.Event, from, to ids.ID, lo, hi int) int {
	count := 0
	for _, e := range events {
		if e.Round < lo || e.Round > hi || e.To != uint64(to) || e.From != uint64(from) {
			continue
		}
		switch e.Kind {
		case trace.KindPartition, trace.KindHeal, trace.KindLinkDrop,
			trace.KindLinkDup, trace.KindLinkCorrupt, trace.KindLinkReorder,
			trace.KindNodeJoined, trace.KindNodeRecovered, trace.KindQuotaChange,
			trace.KindNodeCrashed, trace.KindQuotaDrop:
			continue
		}
		count++
	}
	return count
}

// chatterNet builds a 4-chatter network with ids {10, 20, 30, 40} and a
// transcript log attached.
func chatterNet(t *testing.T, plan *FaultPlan) (*Network, *trace.EventLog) {
	t.Helper()
	log := trace.NewEventLog(0)
	net := New(Config{MaxRounds: 50, EventLog: log, FaultPlan: plan})
	for _, id := range []ids.ID{10, 20, 30, 40} {
		if err := net.Add(&ChatterProcess{Ident: id}); err != nil {
			t.Fatal(err)
		}
	}
	return net, log
}

// TestPartitionCutsCrossGroupDelivery asserts partition semantics: while
// {10,20} | {30,40} is live, broadcasts cross the cut in neither
// direction; after heal, full fan-out resumes.
func TestPartitionCutsCrossGroupDelivery(t *testing.T) {
	t.Parallel()
	net, log := chatterNet(t, &FaultPlan{
		Seed: 1,
		Events: []FaultEvent{
			{Round: 2, Kind: FaultPartition, Groups: [][]uint64{{10, 20}, {30, 40}}},
			{Round: 4, Kind: FaultHeal},
		},
	})
	mustRounds(t, net, 6)
	events := log.Events()
	// Sends of rounds 2 and 3 (delivered 3 and 4) are cut; sends of
	// round 4 (delivered 5) cross again.
	if got := deliveriesBetween(events, 10, 30, 3, 4); got != 0 {
		t.Fatalf("partition leaked: %d deliveries 10->30 in rounds 3-4", got)
	}
	if got := deliveriesBetween(events, 30, 10, 3, 4); got != 0 {
		t.Fatalf("partition leaked: %d deliveries 30->10 in rounds 3-4", got)
	}
	if got := deliveriesBetween(events, 10, 20, 3, 4); got != 2 {
		t.Fatalf("intra-group traffic disturbed: %d deliveries 10->20 in rounds 3-4, want 2", got)
	}
	if got := deliveriesBetween(events, 10, 30, 5, 6); got != 2 {
		t.Fatalf("heal did not restore delivery: %d deliveries 10->30 in rounds 5-6, want 2", got)
	}
	if got := deliveriesBetween(events, 10, 10, 3, 4); got != 2 {
		t.Fatalf("self-delivery must survive a partition: got %d", got)
	}
}

// TestPartitionIsolatesUnlistedNodes asserts nodes in no group are cut
// off from everyone but themselves.
func TestPartitionIsolatesUnlistedNodes(t *testing.T) {
	t.Parallel()
	net, log := chatterNet(t, &FaultPlan{
		Seed: 1,
		Events: []FaultEvent{
			{Round: 2, Kind: FaultPartition, Groups: [][]uint64{{10, 20, 30}}},
		},
	})
	mustRounds(t, net, 4)
	events := log.Events()
	if got := deliveriesBetween(events, 40, 10, 3, 4); got != 0 {
		t.Fatalf("isolated node still delivered %d messages", got)
	}
	if got := deliveriesBetween(events, 40, 40, 3, 4); got != 2 {
		t.Fatalf("isolated node should still reach itself: got %d", got)
	}
}

// TestFaultCrashRecoverChurn asserts plan crash/recover semantics: the
// node is silent while down, revives with an empty inbox, and the
// transcript shows the churn events.
func TestFaultCrashRecoverChurn(t *testing.T) {
	t.Parallel()
	net, log := chatterNet(t, &FaultPlan{
		Seed: 1,
		Events: []FaultEvent{
			{Round: 3, Kind: FaultCrash, Node: 20},
			{Round: 5, Kind: FaultRecover, Node: 20},
		},
	})
	mustRounds(t, net, 7)
	if net.Crashed(20) {
		t.Fatal("node 20 should have recovered")
	}
	crashes := net.Crashes()
	if len(crashes) != 1 || crashes[0].Node != 20 || crashes[0].Round != 3 {
		t.Fatalf("unexpected crash records: %+v", crashes)
	}
	events := log.Events()
	// Down rounds 3 and 4: no sends, so no deliveries in rounds 4 and
	// 5. Round-2 sends were routed while it was still up (delivery
	// events at round 3 exist), but rounds 3-4 route around it, so
	// nothing lands in rounds 4-5 and the round-5 revival starts with
	// an empty inbox.
	if got := deliveriesBetween(events, 20, 10, 4, 5); got != 0 {
		t.Fatalf("crashed node still sent: %d deliveries", got)
	}
	if got := deliveriesBetween(events, 10, 20, 4, 5); got != 0 {
		t.Fatalf("crashed node still received: %d deliveries", got)
	}
	// Back up from round 5: its round-5 send delivers in round 6.
	if got := deliveriesBetween(events, 20, 10, 6, 7); got != 2 {
		t.Fatalf("recovered node not sending: %d deliveries, want 2", got)
	}
	var kinds []string
	for _, e := range events {
		if e.Kind == trace.KindNodeCrashed || e.Kind == trace.KindNodeRecovered {
			kinds = append(kinds, fmt.Sprintf("%d:%s@%d", e.From, e.Kind, e.Round))
		}
	}
	want := []string{"20:node-crashed@3", "20:node-recovered@5"}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("churn events %v, want %v", kinds, want)
	}
}

// TestFaultJoinDormancy asserts a late participant neither steps nor
// receives before its join round, then participates fully.
func TestFaultJoinDormancy(t *testing.T) {
	t.Parallel()
	net, log := chatterNet(t, &FaultPlan{
		Seed:   1,
		Events: []FaultEvent{{Round: 4, Kind: FaultJoin, Node: 30}},
	})
	mustRounds(t, net, 6)
	events := log.Events()
	if got := deliveriesBetween(events, 30, 10, 1, 4); got != 0 {
		t.Fatalf("dormant joiner sent %d messages before its join round", got)
	}
	if got := deliveriesBetween(events, 10, 30, 1, 4); got != 0 {
		t.Fatalf("dormant joiner received %d messages before its join round", got)
	}
	if got := deliveriesBetween(events, 30, 10, 5, 5); got != 1 {
		t.Fatalf("joiner's first round not delivered: got %d, want 1", got)
	}
	joined := false
	for _, e := range events {
		if e.Kind == trace.KindNodeJoined && e.From == 30 && e.Round == 4 {
			joined = true
		}
	}
	if !joined {
		t.Fatal("no node-joined event recorded")
	}
}

// TestFaultQuotaChange asserts a quota event rewrites the live quotas
// and the transcript shows when.
func TestFaultQuotaChange(t *testing.T) {
	t.Parallel()
	log := trace.NewEventLog(0)
	peers := []ids.ID{10, 20}
	net := New(Config{
		MaxRounds: 10, EventLog: log,
		FaultPlan: &FaultPlan{
			Seed:   1,
			Events: []FaultEvent{{Round: 3, Kind: FaultQuota, SendQuota: 2}},
		},
	})
	if err := net.Add(&flood{Ident: 10, Peers: peers, Count: 3}); err != nil {
		t.Fatal(err)
	}
	if err := net.Add(&ChatterProcess{Ident: 20}); err != nil {
		t.Fatal(err)
	}
	mustRounds(t, net, 4)
	var drops, changes int
	for _, e := range log.Events() {
		switch e.Kind {
		case trace.KindQuotaDrop:
			drops++
			if e.Round < 3 {
				t.Fatalf("quota drop at round %d, before the quota existed", e.Round)
			}
			if e.Size != 4 { // flood queues 3*2 sends; 2 survive
				t.Fatalf("quota drop of %d sends, want 4", e.Size)
			}
		case trace.KindQuotaChange:
			changes++
			if e.Round != 3 || e.Size != 2 {
				t.Fatalf("unexpected quota-change event: %+v", e)
			}
		}
	}
	if drops != 2 || changes != 1 {
		t.Fatalf("drops=%d changes=%d, want 2 and 1", drops, changes)
	}
}

// TestFaultDuplicateDelivery asserts a rate-1 duplicate rule delivers
// the message twice within the round — the deliberate model violation —
// and records link-dup events.
func TestFaultDuplicateDelivery(t *testing.T) {
	t.Parallel()
	net, log := chatterNet(t, &FaultPlan{
		Seed:   1,
		Events: []FaultEvent{{Round: 2, Kind: FaultDuplicate, From: 10, To: 30, Rate: 1}},
	})
	mustRounds(t, net, 3)
	events := log.Events()
	if got := deliveriesBetween(events, 10, 30, 3, 3); got != 2 {
		t.Fatalf("duplicate rule delivered %d copies, want 2", got)
	}
	if got := deliveriesBetween(events, 10, 20, 3, 3); got != 1 {
		t.Fatalf("unscoped link affected: %d copies to 20, want 1", got)
	}
	// The rule is live for the routes of rounds 2 and 3 (one 10->30
	// send each); activation events carry Enc="rate=...", dup events
	// carry no Enc.
	dups := 0
	for _, e := range events {
		if e.Kind == trace.KindLinkDup && e.Enc == "" {
			dups++
		}
	}
	if dups != 2 {
		t.Fatalf("%d link-dup events, want 2", dups)
	}
}

// TestFaultCorruptDelivery asserts a rate-1 corrupt rule either mutates
// the delivered encoding (still decodable) or drops the message, and
// that the choice is deterministic.
func TestFaultCorruptDelivery(t *testing.T) {
	t.Parallel()
	run := func() (delivered []string, corrupts int) {
		net, log := chatterNet(t, &FaultPlan{
			Seed:   1,
			Events: []FaultEvent{{Round: 2, Kind: FaultCorrupt, From: 10, Rate: 1}},
		})
		mustRounds(t, net, 4)
		for _, e := range log.Events() {
			// Corruption events carry no Enc; the activation event does
			// (Enc="rate=1") and must not be counted.
			if e.Kind == trace.KindLinkCorrupt && e.Enc == "" {
				corrupts++
			}
			if e.From == 10 && e.Round >= 3 && e.Enc != "" {
				// A delivery at round R carries node 10's round R-1
				// broadcast; a surviving corrupted copy must differ
				// from that round's canonical encoding.
				orig := string(wire.Encode(wire.Input{X: wire.V(float64(e.Round - 1))}))
				if e.Enc == orig {
					t.Fatal("corrupt rule delivered an unmodified encoding")
				}
				delivered = append(delivered, fmt.Sprintf("%d->%d@%d:%x", e.From, e.To, e.Round, e.Enc))
			}
		}
		return delivered, corrupts
	}
	delivered, corrupts := run()
	if corrupts == 0 {
		t.Fatal("no corruption events recorded")
	}
	d2, c2 := run()
	if fmt.Sprint(delivered) != fmt.Sprint(d2) || corrupts != c2 {
		t.Fatal("corruption not deterministic across identical runs")
	}
}

// TestFaultReorderShufflesInboxOrder asserts a rate-1 reorder rule
// permutes a receiver's within-round inbox and records the event.
func TestFaultReorderShufflesInboxOrder(t *testing.T) {
	t.Parallel()
	run := func(rate float64) []string {
		rec := &orderRecorder{id: 50}
		log := trace.NewEventLog(0)
		net := New(Config{
			MaxRounds: 6, EventLog: log,
			FaultPlan: &FaultPlan{
				Seed:   3,
				Events: []FaultEvent{{Round: 1, Kind: FaultReorder, To: 50, Rate: rate}},
			},
		})
		for _, id := range []ids.ID{10, 20, 30, 40} {
			if err := net.Add(&ChatterProcess{Ident: id}); err != nil {
				t.Fatal(err)
			}
		}
		if err := net.Add(rec); err != nil {
			t.Fatal(err)
		}
		mustRounds(t, net, 3)
		if rate > 0 {
			found := false
			for _, e := range log.Events() {
				if e.Kind == trace.KindLinkReorder && e.To == 50 {
					found = true
				}
			}
			if !found {
				t.Fatal("no link-reorder event recorded")
			}
		}
		return rec.log
	}
	sorted := run(0)
	shuffled := run(1)
	if len(sorted) == 0 || len(shuffled) != len(sorted) {
		t.Fatalf("recorder saw %d vs %d messages", len(sorted), len(shuffled))
	}
	if fmt.Sprint(sorted) == fmt.Sprint(shuffled) {
		t.Fatal("rate-1 reorder left the inbox order unchanged")
	}
}

// orderRecorder logs its inbox order and never sends.
type orderRecorder struct {
	id  ids.ID
	log []string
}

func (o *orderRecorder) ID() ids.ID { return o.id }
func (o *orderRecorder) Done() bool { return false }
func (o *orderRecorder) Step(env *RoundEnv) {
	for m := range env.Inbox.All() {
		o.log = append(o.log, fmt.Sprintf("%d<-%d", env.Round, m.From))
	}
}

// floodPanic queues Count unicasts to each peer, then panics at Round —
// the same round it exceeds the send quota.
type floodPanic struct {
	flood
	Round int
}

func (f *floodPanic) Step(env *RoundEnv) {
	f.flood.Step(env)
	if env.Round == f.Round {
		panic("flood then die")
	}
}

// TestQuotaCrashSameRoundOrdering is the SendQuota × crash interplay
// contract: a node that panics in the same round it exceeds its quota
// produces quota-drop then node-crashed, adjacent and in that order, in
// byte-identical transcripts across worker caps {1,0,3,5} and
// concurrent jobs {1,4}.
func TestQuotaCrashSameRoundOrdering(t *testing.T) {
	t.Parallel()
	peers := []ids.ID{11, 22, 33}
	run := func(workers int) []trace.Event {
		log := trace.NewEventLog(0)
		net := New(Config{MaxRounds: 8, EventLog: log, SendQuota: 2})
		defer net.Close()
		if workers > 0 {
			net.forceWorkers(workers)
		}
		if err := net.Add(&floodPanic{
			flood: flood{Ident: 11, Peers: peers, Count: 3},
			Round: 2,
		}); err != nil {
			t.Fatal(err)
		}
		for _, id := range peers[1:] {
			if err := net.Add(&ChatterProcess{Ident: id}); err != nil {
				t.Fatal(err)
			}
		}
		mustRounds(t, net, 4)
		return log.Events()
	}
	base := run(1)
	idx := -1
	for i, e := range base {
		if e.Round == 2 && e.Kind == trace.KindQuotaDrop && e.From == 11 {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("no quota-drop event in the crash round")
	}
	if e := base[idx+1]; e.Kind != trace.KindNodeCrashed || e.From != 11 || e.Round != 2 {
		t.Fatalf("quota-drop not followed by node-crashed: next event %+v", e)
	}
	// flood queues 3 unicasts per peer = 9 sends; quota 2 → 7 dropped.
	if base[idx].Size != 7 {
		t.Fatalf("quota-drop of %d sends, want 7", base[idx].Size)
	}
	for _, workers := range []int{0, 3, 5} {
		got := run(workers)
		if fmt.Sprint(got) != fmt.Sprint(base) {
			t.Fatalf("workers=%d: transcript differs from the inline run", workers)
		}
	}
	for _, budget := range []int{1, 4} {
		outs := make([][]trace.Event, 4)
		jobs := eventJobs{run: func(i int) { outs[i] = run(0) }}
		s := sched.New(budget)
		var phase sched.Phase
		s.Run(&phase, &jobs, len(outs), len(outs))
		s.Close()
		for j, got := range outs {
			if fmt.Sprint(got) != fmt.Sprint(base) {
				t.Fatalf("budget=%d job=%d: transcript differs", budget, j)
			}
		}
	}
}

// eventJobs adapts a closure to sched.Task.
type eventJobs struct{ run func(i int) }

func (e *eventJobs) Run(i int) { e.run(i) }
