package oracle

import (
	"math/rand"
	"strings"
	"testing"

	"uba/internal/core/consensus"
	"uba/internal/core/relbcast"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/trace"
	"uba/internal/wire"
)

func TestAgreementOracle(t *testing.T) {
	t.Parallel()
	claims := []Claim{
		{Node: 1, Key: "decision", Value: "a"},
		{Node: 2, Key: "decision", Value: "a"},
		{Node: 3, Key: "other", Value: "b"},
	}
	o := NewAgreement("agree", func() []Claim { return claims })
	if v := o.Observe(Round{N: 1}); v != nil {
		t.Fatalf("agreeing claims fired: %+v", v)
	}
	claims = append(claims, Claim{Node: 4, Key: "decision", Value: "z"})
	v := o.Observe(Round{N: 2})
	if v == nil {
		t.Fatal("disagreement not detected")
	}
	if v.Oracle != "agree" || v.Round != 2 {
		t.Fatalf("violation = %+v", v)
	}
	if !strings.Contains(v.Detail, "nodes 1 and 4") {
		t.Fatalf("detail %q does not name the disagreeing nodes", v.Detail)
	}
}

func TestValidityOracle(t *testing.T) {
	t.Parallel()
	claims := []Claim{{Node: 7, Key: "decision", Value: "good"}}
	o := NewValidity("valid", func() []Claim { return claims },
		func(c Claim) bool { return c.Value == "good" })
	if v := o.Observe(Round{N: 1}); v != nil {
		t.Fatalf("valid claim fired: %+v", v)
	}
	claims[0].Value = "evil"
	if v := o.Observe(Round{N: 2}); v == nil || v.Round != 2 {
		t.Fatalf("invalid claim not detected: %+v", v)
	}
}

func TestTerminationBoundOracle(t *testing.T) {
	t.Parallel()
	pending := []ids.ID{4, 9}
	o := NewTerminationBound("term", 10, func() []ids.ID { return pending })
	if v := o.Observe(Round{N: 9}); v != nil {
		t.Fatalf("fired before the bound: %+v", v)
	}
	if v := o.Observe(Round{N: 10}); v == nil {
		t.Fatal("pending nodes at the bound not detected")
	}
	pending = nil
	if v := o.Observe(Round{N: 11}); v != nil {
		t.Fatalf("fired with nothing pending: %+v", v)
	}
}

// rbEvent fabricates a delivery event for an RBMessage.
func rbEvent(round int, from ids.ID, p wire.RBMessage) trace.Event {
	return trace.Event{
		Round: round,
		From:  uint64(from),
		To:    1,
		Kind:  p.Kind().String(),
		Enc:   string(wire.Encode(p)),
	}
}

func TestNoForgedSenderOracle(t *testing.T) {
	t.Parallel()
	correct := ids.NewSet(10, 20, 30)
	var accepted []RBAcceptance
	o := NewNoForgedSender("forge", correct, func() []RBAcceptance { return accepted })

	// Round 1: node 10 genuinely broadcasts (m, 10); node 20 accepts it.
	events := []trace.Event{rbEvent(1, 10, wire.RBMessage{Source: 10, Body: []byte("m")})}
	accepted = []RBAcceptance{{Node: 20, Source: 10, Body: []byte("m")}}
	if v := o.Observe(Round{N: 1, Events: events}); v != nil {
		t.Fatalf("genuine acceptance fired: %+v", v)
	}

	// Byzantine-source acceptances are never violations.
	accepted = append(accepted, RBAcceptance{Node: 20, Source: 99, Body: []byte("x")})
	if v := o.Observe(Round{N: 2}); v != nil {
		t.Fatalf("byzantine-source acceptance fired: %+v", v)
	}

	// Accepting a pair the correct source never sent is a violation.
	accepted = append(accepted, RBAcceptance{Node: 30, Source: 10, Body: []byte("forged")})
	v := o.Observe(Round{N: 3})
	if v == nil || !strings.Contains(v.Detail, "forged") {
		t.Fatalf("forged acceptance not detected: %+v", v)
	}

	// A correct node transmitting a foreign-source rbmessage is flagged.
	o2 := NewNoForgedSender("forge", correct, func() []RBAcceptance { return nil })
	bad := []trace.Event{rbEvent(1, 20, wire.RBMessage{Source: 10, Body: []byte("m")})}
	if v := o2.Observe(Round{N: 1, Events: bad}); v == nil {
		t.Fatal("correct node relaying a foreign source not detected")
	}
}

func TestSuiteRecordsFirstViolationPerOracle(t *testing.T) {
	t.Parallel()
	fires := 0
	always := NewFunc("always", func(r Round) *Violation {
		fires++
		return &Violation{Oracle: "always", Round: r.N, Detail: "boom"}
	})
	quiet := NewFunc("quiet", func(Round) *Violation { return nil })
	s := NewSuite(always, quiet)
	for r := 1; r <= 5; r++ {
		s.ObserveRound(r, nil)
	}
	if fires != 1 {
		t.Fatalf("fired oracle observed %d times, want 1", fires)
	}
	if got := s.Violations(); len(got) != 1 || got[0].Round != 1 {
		t.Fatalf("violations = %+v", got)
	}
	if !s.Failed() || s.First() == nil || s.First().Oracle != "always" {
		t.Fatalf("First() = %+v", s.First())
	}
}

// TestConsensusOraclesCleanRun attaches the consensus suite to a fully
// correct run and requires silence.
func TestConsensusOraclesCleanRun(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	nodeIDs := ids.Sparse(rng, 5)
	nodes := make([]*consensus.Node, 0, len(nodeIDs))
	inputs := make([]wire.Value, 0, len(nodeIDs))
	for i, id := range nodeIDs {
		in := wire.V(float64(i % 2))
		inputs = append(inputs, in)
		nodes = append(nodes, consensus.New(id, in))
	}
	suite := NewSuite(ForConsensus(nodes, inputs, 300)...)
	net := simnet.New(simnet.Config{MaxRounds: 300, Observer: suite})
	for _, n := range nodes {
		if err := net.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Run(simnet.AllDone(nodeIDs)); err != nil {
		t.Fatal(err)
	}
	if suite.Failed() {
		t.Fatalf("clean run violated: %+v", suite.Violations())
	}
}

// TestBroadcastOraclesCleanRun feeds the unforgeability monitor real
// wire traffic: a correct source's broadcast must be learned as genuine
// and the acceptances must pass.
func TestBroadcastOraclesCleanRun(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	nodeIDs := ids.Sparse(rng, 5)
	nodes := make([]*relbcast.Node, 0, len(nodeIDs))
	for i, id := range nodeIDs {
		if i == 0 {
			nodes = append(nodes, relbcast.NewSource(id, []byte("hello")))
		} else {
			nodes = append(nodes, relbcast.NewRelay(id))
		}
	}
	suite := NewSuite(ForBroadcast(nodes, ids.NewSet(nodeIDs...))...)
	net := simnet.New(simnet.Config{MaxRounds: 50, Observer: suite})
	for _, n := range nodes {
		if err := net.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := net.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := nodes[1].HasAccepted(nodeIDs[0], []byte("hello")); !ok {
		t.Fatal("fixture broken: broadcast never accepted")
	}
	if suite.Failed() {
		t.Fatalf("clean broadcast run violated: %+v", suite.Violations())
	}
}

// TestSuiteViolationIsDeterministic runs the same planted-disagreement
// scenario twice and requires identical violations.
func TestSuiteViolationIsDeterministic(t *testing.T) {
	t.Parallel()
	run := func() []Violation {
		rng := rand.New(rand.NewSource(9))
		nodeIDs := ids.Sparse(rng, 4)
		round := 0
		probe := func() []Claim {
			if round < 3 {
				return nil
			}
			// Planted: nodes report diverging decisions from round 3 on.
			return []Claim{
				{Node: nodeIDs[0], Key: "decision", Value: "0"},
				{Node: nodeIDs[1], Key: "decision", Value: "1"},
			}
		}
		suite := NewSuite(NewAgreement("planted-agreement", probe))
		net := simnet.New(simnet.Config{MaxRounds: 10, Observer: suite})
		for _, id := range nodeIDs {
			if err := net.Add(&simnet.ChatterProcess{Ident: id}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			round = i + 1
			if err := net.RunRound(); err != nil {
				t.Fatal(err)
			}
		}
		return suite.Violations()
	}
	a := run()
	b := run()
	if len(a) != 1 || a[0].Round != 3 {
		t.Fatalf("violations = %+v, want one at round 3", a)
	}
	if len(b) != 1 || a[0] != b[0] {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
}
