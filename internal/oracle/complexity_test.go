package oracle

import (
	"strings"
	"testing"

	"uba/internal/complexity"
	"uba/internal/simnet"
	"uba/internal/trace"
)

func acct(nodes, maxB, maxU int) simnet.RoundAccounting {
	return simnet.RoundAccounting{
		Nodes:                nodes,
		CorrectMaxBroadcasts: maxB,
		CorrectMaxUnicasts:   maxU,
	}
}

// TestComplexityOracleBounds pins the firing boundary on both kinds: a
// Linear broadcast contract with slack 2 allows exactly 2n per node,
// and a None unicast contract tolerates nothing.
func TestComplexityOracleBounds(t *testing.T) {
	t.Parallel()
	o := NewComplexity("fam", complexity.Contract{Broadcasts: complexity.Linear}, 2)
	if o.Name() != "complexity:fam" {
		t.Errorf("Name() = %q", o.Name())
	}
	if v := o.Observe(Round{N: 3, Acct: acct(10, 20, 0)}); v != nil {
		t.Errorf("at the bound (20 = 2*10): unexpected violation %+v", v)
	}
	v := o.Observe(Round{N: 3, Acct: acct(10, 21, 0)})
	if v == nil {
		t.Fatal("one past the bound: no violation")
	}
	if v.Round != 3 || !strings.Contains(v.Detail, "21 broadcasts") {
		t.Errorf("violation = %+v", v)
	}
	if v := o.Observe(Round{N: 4, Acct: acct(10, 0, 1)}); v == nil {
		t.Error("unicast under a 0 contract: no violation")
	} else if !strings.Contains(v.Detail, "unicasts") {
		t.Errorf("violation blames the wrong kind: %+v", v)
	}
	if v := o.Observe(Round{N: 5, Acct: acct(10, 0, 0)}); v != nil {
		t.Errorf("silent round: unexpected violation %+v", v)
	}
}

// TestNewComplexityFor checks the registry lookup path: certified
// families get an oracle, unknown ones get nil (attach nothing).
func TestNewComplexityFor(t *testing.T) {
	t.Parallel()
	o := NewComplexityFor("relbcast", 0)
	if o == nil {
		t.Fatal("no oracle for relbcast")
	}
	// relbcast is broadcasts=O(n) unicasts=0 with the default slack.
	n := 5
	bound := DefaultComplexitySlack * n
	if v := o.Observe(Round{N: 1, Acct: acct(n, bound, 0)}); v != nil {
		t.Errorf("at default bound: %+v", v)
	}
	if v := o.Observe(Round{N: 1, Acct: acct(n, bound+1, 0)}); v == nil {
		t.Error("past default bound: no violation")
	}
	if o := NewComplexityFor("earlydecide", 0); o != nil {
		t.Errorf("oracle for unregistered family: %v", o.Name())
	}
}

// TestSuiteObserveRoundStats checks the suite hands each round's
// accounting to its oracles in the sweep that ObserveRound closes,
// records the first violation, and never re-fires an oracle that
// already reported.
func TestSuiteObserveRoundStats(t *testing.T) {
	t.Parallel()
	s := NewSuite()
	s.Add(NewComplexity("fam", complexity.Contract{}, 1)) // all-zero contract
	round := func(n int, a simnet.RoundAccounting) {
		s.ObserveRoundStats(n, a)
		s.ObserveRound(n, nil)
	}
	round(1, acct(4, 0, 0))
	if s.Failed() {
		t.Fatalf("clean round fired: %+v", s.Violations())
	}
	round(2, acct(4, 1, 1))
	round(3, acct(4, 1, 1))
	vs := s.Violations()
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1 (oracle must fire once)", len(vs))
	}
	if vs[0].Round != 2 || vs[0].Oracle != "complexity:fam" {
		t.Errorf("first violation = %+v", vs[0])
	}
	// ObserveRound consumed round 3's accounting: a round closed
	// without any is checked against a zero ledger.
	s2 := NewSuite(NewComplexity("fam", complexity.Contract{}, 1))
	s2.ObserveRoundStats(1, acct(4, 1, 1))
	s2.ObserveRound(1, nil)
	s2.ObserveRound(2, nil)
	if vs := s2.Violations(); len(vs) != 1 || vs[0].Round != 1 {
		t.Errorf("violations = %+v, want exactly round 1's", vs)
	}
}

// TestDegradedForwardsAccounting: a complexity oracle wrapped in
// NewDegraded still sees each undisrupted round's accounting, so an
// over-budget round fires, stamped with the real round.
func TestDegradedForwardsAccounting(t *testing.T) {
	t.Parallel()
	s := NewSuite(NewDegraded(NewComplexity("fam", complexity.Contract{}, 1), 2))
	s.ObserveRoundStats(1, acct(4, 0, 0))
	s.ObserveRound(1, nil)
	s.ObserveRoundStats(2, acct(4, 3, 0))
	s.ObserveRound(2, []trace.Event{partitionEvent(2)}) // suspended: not charged
	s.ObserveRound(3, []trace.Event{healEvent(3)})
	s.ObserveRound(4, nil) // recovery window
	s.ObserveRoundStats(5, acct(4, 3, 0))
	s.ObserveRound(5, nil)
	vs := s.Violations()
	if len(vs) != 1 {
		t.Fatalf("violations = %+v, want the over-budget round 5", vs)
	}
	if vs[0].Oracle != "complexity:fam" || vs[0].Round != 5 || !strings.Contains(vs[0].Detail, "3 broadcasts") {
		t.Errorf("violation = %+v", vs[0])
	}
}
