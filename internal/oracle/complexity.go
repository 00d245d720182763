// The complexity oracle is the runtime half of the message-complexity
// certification (DESIGN.md §8.7): ubalint proves each protocol's
// declared per-round send classes against its Step implementation
// statically, and this oracle cross-checks the same contract against
// the engine's observed per-round tallies during every campaign. The
// two halves fail independently — a lint pass bug cannot silently
// void the runtime bound, and vice versa.
package oracle

import (
	"fmt"

	"uba/internal/complexity"
)

// DefaultComplexitySlack is the constant-factor slack the campaigns
// grant a contract's leading term: a Linear contract allows a correct
// node slack·n sends per round. The protocols here have small
// constants (the widest is relbcast's per-key echo fan, bounded by the
// distinct accepted keys per round), so a one-digit slack holds with
// room while still catching a quadratic regression at realistic n.
const DefaultComplexitySlack = 8

// NewComplexity builds the runtime complexity oracle for one protocol
// family: each round, the largest per-node broadcast and unicast
// tallies among correct senders must stay within the declared class's
// bound for the round's live-node count. Byzantine senders are already
// excluded by the engine's accounting — an adversary is free to flood.
// A zero or negative slack selects DefaultComplexitySlack.
func NewComplexity(family string, ct complexity.Contract, slack int) Oracle {
	if slack <= 0 {
		slack = DefaultComplexitySlack
	}
	return &complexityOracle{
		name:  "complexity:" + family,
		ct:    ct,
		slack: slack,
	}
}

// NewComplexityFor is NewComplexity with the contract looked up in the
// certified registry; it returns nil (attach nothing) for families
// without a registered contract.
func NewComplexityFor(family string, slack int) Oracle {
	ct, ok := complexity.Lookup(family)
	if !ok {
		return nil
	}
	return NewComplexity(family, ct, slack)
}

type complexityOracle struct {
	name  string
	ct    complexity.Contract
	slack int
}

func (o *complexityOracle) Name() string { return o.name }

// Observe implements Oracle; the complexity oracle reads the round's
// ledger, not its events or deliveries.
func (o *complexityOracle) Observe(r Round) *Violation {
	if v := o.exceeds(r.N, "broadcasts", o.ct.Broadcasts, r.Acct.CorrectMaxBroadcasts, r.Acct.Nodes); v != nil {
		return v
	}
	return o.exceeds(r.N, "unicasts", o.ct.Unicasts, r.Acct.CorrectMaxUnicasts, r.Acct.Nodes)
}

func (o *complexityOracle) exceeds(round int, kind string, c complexity.Class, observed, nodes int) *Violation {
	bound := c.Bound(nodes, o.slack)
	if observed <= bound {
		return nil
	}
	return &Violation{
		Oracle: o.name,
		Round:  round,
		Detail: fmt.Sprintf("correct node sent %d %s in round %d: contract %s allows at most %d (n=%d, slack=%d)",
			observed, kind, round, c, bound, nodes, o.slack),
	}
}
