package oracle

import (
	"fmt"
	"strconv"
	"strings"

	"uba/internal/core/approx"
	"uba/internal/core/consensus"
	"uba/internal/core/ordering"
	"uba/internal/core/relbcast"
	"uba/internal/core/renaming"
	"uba/internal/core/rotor"
	"uba/internal/ids"
	"uba/internal/wire"
)

// This file builds the standard oracle set for each protocol family of
// the library. Every constructor takes the *correct* protocol nodes (the
// monitors state properties over correct nodes only; Byzantine slots may
// do anything) and returns oracles ready for a Suite.

// ForConsensus monitors a consensus run (Algorithm 3 / parallel
// consensus instance 0): agreement (no two decided nodes output
// different values), validity (every output was some node's input), and
// termination within `bound` rounds.
func ForConsensus(nodes []*consensus.Node, inputs []wire.Value, bound int) []Oracle {
	probe := func() []Claim {
		out := make([]Claim, 0, len(nodes))
		for _, n := range nodes {
			if v, ok := n.Output(); ok {
				out = append(out, Claim{Node: n.ID(), Key: "decision", Value: ValueString(v)})
			}
		}
		return out
	}
	valid := make(map[string]bool, len(inputs))
	for _, x := range inputs {
		valid[ValueString(x)] = true
	}
	return []Oracle{
		NewAgreement("consensus-agreement", probe),
		NewValidity("consensus-validity", probe, func(c Claim) bool { return valid[c.Value] }),
		NewTerminationBound("consensus-termination", bound, func() []ids.ID {
			return pendingIDs(len(nodes), func(i int) (ids.ID, bool) {
				return nodes[i].ID(), nodes[i].Done()
			})
		}),
	}
}

// ForBroadcast monitors reliable broadcast (Algorithm 1): unforgeability
// (no acceptance of a pair a correct source never sent) and totality
// (a pair accepted in round r is accepted everywhere by r+1).
func ForBroadcast(nodes []*relbcast.Node, correct *ids.Set) []Oracle {
	accepted := func() []RBAcceptance {
		var out []RBAcceptance
		for _, n := range nodes {
			for _, acc := range n.Accepted() {
				out = append(out, RBAcceptance{Node: n.ID(), Source: acc.Source, Body: acc.Body})
			}
		}
		return out
	}
	totality := func(r Round) *Violation {
		for _, n := range nodes {
			for _, acc := range n.Accepted() {
				if acc.Round+1 > r.N {
					continue // grace round still open
				}
				for _, other := range nodes {
					if _, ok := other.HasAccepted(acc.Source, acc.Body); !ok {
						return &Violation{
							Oracle: "broadcast-totality",
							Round:  r.N,
							Detail: fmt.Sprintf("node %d accepted (%q, %d) in round %d but node %d has not by round %d",
								n.ID(), acc.Body, acc.Source, acc.Round, other.ID(), r.N),
						}
					}
				}
			}
		}
		return nil
	}
	return []Oracle{
		NewNoForgedSender("broadcast-unforgeability", correct, accepted),
		NewFunc("broadcast-totality", totality),
	}
}

// ForRotor monitors the rotor-coordinator (Algorithm 2): agreement on
// accepted opinions (no two nodes accept different opinions from the
// same coordinator slot) and termination within `bound` rounds.
func ForRotor(nodes []*rotor.Node, bound int) []Oracle {
	var accepted []rotor.AcceptedOpinion
	tail := func(seen []int, dst []Claim) []Claim {
		for i, n := range nodes {
			accepted = n.AppendAcceptedOpinions(accepted[:0], seen[i])
			for _, a := range accepted {
				dst = append(dst, Claim{
					Node:  n.ID(),
					Key:   fmt.Sprintf("opinion:r%d:%d", a.Round, a.From),
					Value: ValueString(a.X),
				})
			}
			seen[i] += len(accepted)
		}
		return dst
	}
	return []Oracle{
		newGrowingAgreement("rotor-agreement", len(nodes), tail),
		NewTerminationBound("rotor-termination", bound, func() []ids.ID {
			return pendingIDs(len(nodes), func(i int) (ids.ID, bool) {
				return nodes[i].ID(), nodes[i].Done()
			})
		}),
	}
}

// ForApprox monitors approximate agreement (Algorithm 4): outputs of
// terminated nodes within eps of each other, outputs inside the correct
// input range [lo, hi], and termination within `bound` rounds.
func ForApprox(nodes []*approx.Node, eps, lo, hi float64, bound int) []Oracle {
	band := func(r Round) *Violation {
		haveFirst := false
		var min, max float64
		var minNode, maxNode ids.ID
		for _, n := range nodes {
			out, ok := n.Output()
			if !ok {
				continue
			}
			if !haveFirst || out < min {
				min, minNode = out, n.ID()
			}
			if !haveFirst || out > max {
				max, maxNode = out, n.ID()
			}
			haveFirst = true
		}
		if haveFirst && max-min > eps {
			return &Violation{
				Oracle: "approx-agreement",
				Round:  r.N,
				Detail: fmt.Sprintf("outputs %g (node %d) and %g (node %d) differ by more than eps=%g",
					min, minNode, max, maxNode, eps),
			}
		}
		return nil
	}
	inRange := func(r Round) *Violation {
		for _, n := range nodes {
			x, ok := n.Output()
			if ok && (x < lo || x > hi) {
				return &Violation{
					Oracle: "approx-validity",
					Round:  r.N,
					Detail: fmt.Sprintf("node %d output %g outside correct input range [%g, %g]",
						n.ID(), x, lo, hi),
				}
			}
		}
		return nil
	}
	return []Oracle{
		NewFunc("approx-agreement", band),
		NewFunc("approx-validity", inRange),
		NewTerminationBound("approx-termination", bound, func() []ids.ID {
			return pendingIDs(len(nodes), func(i int) (ids.ID, bool) {
				return nodes[i].ID(), nodes[i].Done()
			})
		}),
	}
}

// ForRenaming monitors Byzantine renaming: terminated nodes agree on the
// final id set, new names are unique, every correct id is named, and
// termination within `bound` rounds.
func ForRenaming(nodes []*renaming.Node, bound int) []Oracle {
	// A terminated node is never stepped again, so its final set is one
	// claim, made once.
	tail := func(seen []int, dst []Claim) []Claim {
		for i, n := range nodes {
			if seen[i] == 0 && n.Done() {
				dst = append(dst, Claim{Node: n.ID(), Key: "final-set", Value: setString(n.FinalSet())})
				seen[i] = 1
			}
		}
		return dst
	}
	unique := func(r Round) *Violation {
		taken := make(map[int]ids.ID)
		for _, n := range nodes {
			name, ok := n.NewName()
			if !ok {
				continue
			}
			if prev, dup := taken[name]; dup {
				return &Violation{
					Oracle: "renaming-uniqueness",
					Round:  r.N,
					Detail: fmt.Sprintf("nodes %d and %d both renamed to %d", prev, n.ID(), name),
				}
			}
			taken[name] = n.ID()
		}
		return nil
	}
	return []Oracle{
		newGrowingAgreement("renaming-agreement", len(nodes), tail),
		NewFunc("renaming-uniqueness", unique),
		NewTerminationBound("renaming-termination", bound, func() []ids.ID {
			return pendingIDs(len(nodes), func(i int) (ids.ID, bool) {
				return nodes[i].ID(), nodes[i].Done()
			})
		}),
	}
}

// ForOrdering monitors the dynamic total-ordering protocol: finalized
// chains are prefix-consistent across nodes (keyed by chain position, so
// nodes at different finalization horizons compare only the shared
// prefix). Chains are append-only, so each round reads and formats only
// the entries finalized since the last one.
func ForOrdering(nodes []*ordering.Node) []Oracle {
	var entries []ordering.ChainEntry
	tail := func(seen []int, dst []Claim) []Claim {
		for i, n := range nodes {
			entries = n.AppendChain(entries[:0], seen[i])
			for j, e := range entries {
				dst = append(dst, Claim{
					Node:  n.ID(),
					Key:   "chain:" + strconv.Itoa(seen[i]+j),
					Value: e.String(),
				})
			}
			seen[i] += len(entries)
		}
		return dst
	}
	return []Oracle{newGrowingAgreement("ordering-agreement", len(nodes), tail)}
}

// pendingIDs collects the ids of not-yet-done nodes.
func pendingIDs(n int, at func(i int) (ids.ID, bool)) []ids.ID {
	var out []ids.ID
	for i := 0; i < n; i++ {
		id, done := at(i)
		if !done {
			out = append(out, id)
		}
	}
	return out
}

// setString canonically encodes an id set (members are sorted).
func setString(s *ids.Set) string {
	var b strings.Builder
	for i, id := range s.Members() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", id)
	}
	return b.String()
}
