// Package oracle provides online safety monitors for simulator runs: small
// observers that watch a run round by round and report the first round in
// which a protocol-level safety or liveness property is violated.
//
// An Oracle is fed each completed round as one Round value — its number,
// engine events, accounting and lazy simnet.Deliveries view, gathered by
// a Suite attached as the network's simnet.RoundObserver — and may
// additionally probe protocol node state through Prober callbacks
// supplied by the per-family constructors (ForConsensus, ForBroadcast,
// ...). The few oracles that read the round's deliveries range over the
// view, so a suite of oracles that never do costs the round nothing per
// delivery. Catching a violation *online*, in the round it first becomes
// observable, is what makes the chaos campaign's failure shrinking
// (internal/chaos) possible: the shrinker re-runs a candidate
// configuration and asks only "does the same oracle still fire?".
//
// The agreement monitors of ForOrdering, ForRotor and ForRenaming rely on
// an append-only contract: a node's claims only grow at the end, and a
// claim, once made, keeps its key and value (finalized chain positions,
// accepted rotor opinions, a terminated node's final set). They format
// only the claims made since the previous round and fall back to the
// full check on a mismatch, so their per-round cost does not grow with
// the run and their violations equal NewAgreement's. An ordering node
// releases each execution once it is final, so the ordering arena's
// memory is bounded by the finality horizon as well.
//
// Oracles must be deterministic: given the same run they must report the
// same violation in the same round with the same detail string. All
// constructors here preserve that property (claims are compared in probe
// order, never in map-iteration order), which the determinism lint pass
// machine-checks (`make lint`).
package oracle

import (
	"fmt"
	"math"

	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/trace"
	"uba/internal/wire"
)

// Violation is one observed safety failure. It is serialized into chaos
// repro files, so the Detail string must be deterministic across runs.
type Violation struct {
	// Oracle is the name of the monitor that fired.
	Oracle string `json:"oracle"`
	// Round is the simulation round the violation became observable in.
	Round int `json:"round"`
	// Detail describes the failure (nodes and values involved).
	Detail string `json:"detail"`
}

// Round is one completed round as an oracle sees it.
type Round struct {
	// N is the round number (warped by NewDegraded for the oracle it
	// wraps).
	N int
	// Events are the round's engine events — fault-plan, containment
	// and link-fault events; see simnet.Config.Observer — or recorded
	// transcript events when a test replays one. The slice is reused
	// by the engine and must not be retained.
	Events []trace.Event
	// Acct is the round's traffic ledger; zero when the round reached
	// the suite without one.
	Acct simnet.RoundAccounting
	// Deliveries is the round's lazy delivery view, valid only for the
	// duration of Observe; the zero view is empty.
	Deliveries simnet.Deliveries
}

// Oracle is one online safety monitor. Observe is called once per
// completed round; a non-nil return stops further Observe calls to
// this oracle.
type Oracle interface {
	// Name identifies the monitor in violations and repro files.
	Name() string
	// Observe checks one round; nil means no violation yet.
	Observe(r Round) *Violation
}

// Claim is one node's statement about its protocol state, produced by a
// Prober. Claims with the same Key are compared across nodes: the
// agreement monitor requires their Values to be equal.
type Claim struct {
	// Node is the claiming node.
	Node ids.ID
	// Key names the decided quantity (e.g. "decision", "chain:3").
	Key string
	// Value is a canonical string encoding of the node's answer.
	Value string
}

// Prober extracts the current claims from protocol node state. Probers
// run at round boundaries on the driving goroutine, so they may touch
// node state freely; they must emit claims in deterministic order.
type Prober func() []Claim

// ValueString canonically encodes an opinion for Claim values: exact
// (bit-level, so Byzantine NaN payloads stay distinguishable) and
// deterministic.
func ValueString(v wire.Value) string {
	if v.IsBot {
		return "⊥"
	}
	return fmt.Sprintf("%g(%x)", v.X, math.Float64bits(v.X))
}

// agreement fires when two claims for the same key carry different values.
type agreement struct {
	name  string
	probe Prober
}

// NewAgreement returns a monitor of keyed agreement: for every Key, all
// nodes that claim it must claim the same Value. Nodes that have not yet
// decided simply emit no claim for the key, so the monitor is safe to run
// every round of an ongoing protocol.
func NewAgreement(name string, probe Prober) Oracle {
	return &agreement{name: name, probe: probe}
}

// Name implements Oracle.
func (a *agreement) Name() string { return a.name }

// Observe implements Oracle.
func (a *agreement) Observe(r Round) *Violation {
	claims := a.probe()
	first := make(map[string]Claim, len(claims))
	for _, c := range claims {
		prev, ok := first[c.Key]
		if !ok {
			first[c.Key] = c
			continue
		}
		if prev.Value != c.Value {
			return &Violation{
				Oracle: a.name,
				Round:  r.N,
				Detail: fmt.Sprintf("nodes %d and %d disagree on %q: %q vs %q",
					prev.Node, c.Node, c.Key, prev.Value, c.Value),
			}
		}
	}
	return nil
}

// tailProber appends to dst the claims node i made since the first
// seen[i] it made, for every node i in probe order, advances seen, and
// returns the extended slice. It is the Prober of an append-only claim
// stream: a node's claims only ever grow at the end, and a claim, once
// made, keeps its key and value. Finalized chain positions, accepted
// rotor opinions and a terminated node's final set all qualify.
type tailProber func(seen []int, dst []Claim) []Claim

// growingAgreement is keyed agreement over append-only claim streams. It
// formats only the claims made since the last round and checks each
// against the value first claimed for its key, so a round costs time in
// the new claims, not in everything claimed so far. While no two claims
// conflict, that is exactly the full check's verdict. On the first
// conflict it runs the full check, so the reported nodes, claims and
// order are byte-identical to NewAgreement's.
type growingAgreement struct {
	full   agreement
	tail   tailProber
	seen   []int
	values map[string]string
	fresh  []Claim // reused buffer for the round's new claims
}

// newGrowingAgreement returns the agreement monitor over the append-only
// claim streams of the given number of nodes. Its full check probes
// every stream from its start.
func newGrowingAgreement(name string, nodes int, tail tailProber) Oracle {
	return &growingAgreement{
		full: agreement{name: name, probe: func() []Claim {
			return tail(make([]int, nodes), nil)
		}},
		tail:   tail,
		seen:   make([]int, nodes),
		values: make(map[string]string),
	}
}

// Name implements Oracle.
func (g *growingAgreement) Name() string { return g.full.name }

// Observe implements Oracle.
func (g *growingAgreement) Observe(r Round) *Violation {
	g.fresh = g.tail(g.seen, g.fresh[:0])
	for _, c := range g.fresh {
		v, ok := g.values[c.Key]
		if !ok {
			g.values[c.Key] = c.Value
			continue
		}
		if v != c.Value {
			return g.full.Observe(r)
		}
	}
	return nil
}

// validity fires when a claim fails a predicate.
type validity struct {
	name  string
	probe Prober
	valid func(Claim) bool
}

// NewValidity returns a monitor that checks every claim against a
// predicate — e.g. "every decided value was some node's input".
func NewValidity(name string, probe Prober, valid func(Claim) bool) Oracle {
	return &validity{name: name, probe: probe, valid: valid}
}

// Name implements Oracle.
func (v *validity) Name() string { return v.name }

// Observe implements Oracle.
func (v *validity) Observe(r Round) *Violation {
	for _, c := range v.probe() {
		if !v.valid(c) {
			return &Violation{
				Oracle: v.name,
				Round:  r.N,
				Detail: fmt.Sprintf("node %d claims invalid %q = %q", c.Node, c.Key, c.Value),
			}
		}
	}
	return nil
}

// terminationBound fires when nodes are still pending past a round bound.
type terminationBound struct {
	name    string
	bound   int
	pending func() []ids.ID
}

// NewTerminationBound returns a liveness monitor: by round `bound` the
// pending set must be empty. Crashed or removed nodes should be excluded
// by the caller's pending function.
func NewTerminationBound(name string, bound int, pending func() []ids.ID) Oracle {
	return &terminationBound{name: name, bound: bound, pending: pending}
}

// Name implements Oracle.
func (t *terminationBound) Name() string { return t.name }

// Observe implements Oracle.
func (t *terminationBound) Observe(r Round) *Violation {
	if r.N < t.bound {
		return nil
	}
	if p := t.pending(); len(p) > 0 {
		return &Violation{
			Oracle: t.name,
			Round:  r.N,
			Detail: fmt.Sprintf("%d nodes undecided at round bound %d (first: %d)",
				len(p), t.bound, p[0]),
		}
	}
	return nil
}

// funcOracle adapts a bare function to the Oracle interface.
type funcOracle struct {
	name string
	fn   func(Round) *Violation
}

// NewFunc wraps a function as an Oracle, for family-specific checks that
// do not fit the keyed-claim monitors (approximate agreement's epsilon
// band, renaming's name uniqueness, ...).
func NewFunc(name string, fn func(Round) *Violation) Oracle {
	return &funcOracle{name: name, fn: fn}
}

// Name implements Oracle.
func (f *funcOracle) Name() string { return f.name }

// Observe implements Oracle.
func (f *funcOracle) Observe(r Round) *Violation {
	return f.fn(r)
}

// RBAcceptance is one reliable-broadcast acceptance probed from node
// state, checked by NewNoForgedSender.
type RBAcceptance struct {
	// Node is the accepting node.
	Node ids.ID
	// Source is s of the accepted (m, s).
	Source ids.ID
	// Body is m of the accepted (m, s).
	Body []byte
}

// noForgedSender tracks genuine reliable broadcasts from the wire and
// fires when a node accepts a (m, s) pair that a correct s never sent.
type noForgedSender struct {
	name     string
	correct  *ids.Set
	accepted func() []RBAcceptance
	// genuine holds (source, body) pairs actually broadcast by their
	// claimed source (delivery events where the engine-stamped sender
	// equals the payload's Source field).
	genuine map[string]struct{}
}

// NewNoForgedSender returns the unforgeability monitor for reliable
// broadcast: no node may accept (m, s) for a *correct* source s unless s
// really broadcast m. Genuine broadcasts are learned from the round's
// deliveries (the engine stamps true senders, so an rbmessage whose
// stamped sender equals its claimed source is genuine) — every delivered
// copy, corrupted and fault-demoted ones included — read through the
// round's simnet.Deliveries view, or from delivery events in its
// Events (replaying a recorded transcript). Acceptances are probed
// from node state. It also flags a correct node transmitting an
// rbmessage with a foreign source — something no correct implementation
// does.
func NewNoForgedSender(name string, correct *ids.Set, accepted func() []RBAcceptance) Oracle {
	return &noForgedSender{
		name:     name,
		correct:  correct,
		accepted: accepted,
		genuine:  make(map[string]struct{}),
	}
}

// Name implements Oracle.
func (o *noForgedSender) Name() string { return o.name }

// pairKey keys a (source, body) pair.
func pairKey(source ids.ID, body []byte) string {
	return fmt.Sprintf("%d|%x", source, body)
}

// delivered folds one delivery event into the genuine set, or returns
// the violation of a correct node transmitting a foreign-source
// rbmessage.
func (o *noForgedSender) delivered(round int, e *trace.Event) *Violation {
	if e.Kind != wire.KindRBMessage.String() || e.Enc == "" {
		return nil
	}
	p, err := wire.Decode([]byte(e.Enc))
	if err != nil {
		return nil // engine fuzzing can deliver anything; not this oracle's concern
	}
	m, ok := p.(wire.RBMessage)
	if !ok {
		return nil
	}
	if ids.ID(e.From) == m.Source {
		o.genuine[pairKey(m.Source, m.Body)] = struct{}{}
		return nil
	}
	if o.correct.Contains(ids.ID(e.From)) {
		return &Violation{
			Oracle: o.name,
			Round:  round,
			Detail: fmt.Sprintf("correct node %d transmitted rbmessage claiming source %d",
				e.From, m.Source),
		}
	}
	return nil
}

// Observe implements Oracle: it learns the round's genuine broadcasts
// from the Deliveries view, then from the Events, stopping at the
// first foreign-source rbmessage from a correct node, and then checks
// the probed acceptances.
func (o *noForgedSender) Observe(r Round) *Violation {
	for e := range r.Deliveries.All() {
		if v := o.delivered(r.N, &e); v != nil {
			return v
		}
	}
	for i := range r.Events {
		if v := o.delivered(r.N, &r.Events[i]); v != nil {
			return v
		}
	}
	for _, acc := range o.accepted() {
		if !o.correct.Contains(acc.Source) {
			continue // Byzantine sources may "send" anything
		}
		if _, ok := o.genuine[pairKey(acc.Source, acc.Body)]; !ok {
			return &Violation{
				Oracle: o.name,
				Round:  r.N,
				Detail: fmt.Sprintf("node %d accepted forged (%q, %d): correct source never sent it",
					acc.Node, acc.Body, acc.Source),
			}
		}
	}
	return nil
}

// Suite runs a set of oracles over a simulation, one Observe sweep per
// round in suite order. It implements simnet.RoundObserver, so it
// attaches directly as Config.Observer, and simnet.DeliveryObserver:
// ObserveDeliveries and ObserveRoundStats gather the round's view and
// accounting, and ObserveRound, which closes the round, hands every
// not-yet-fired oracle the whole Round. A wrapper that attaches a suite
// indirectly must forward ObserveDeliveries too: without it the
// oracles see no deliveries (NewNoForgedSender would then flag every
// genuine acceptance). Each oracle reports at most one violation (its
// first); the suite keeps observing the remaining oracles after one
// fires.
type Suite struct {
	oracles    []Oracle
	fired      []bool
	violations []Violation
	// round gathers the current round's pieces until ObserveRound
	// sweeps and clears it.
	round Round
}

var (
	_ simnet.RoundObserver    = (*Suite)(nil)
	_ simnet.DeliveryObserver = (*Suite)(nil)
)

// NewSuite builds a suite over the given oracles.
func NewSuite(oracles ...Oracle) *Suite {
	return &Suite{oracles: oracles, fired: make([]bool, len(oracles))}
}

// Add appends another oracle to the suite.
func (s *Suite) Add(o Oracle) {
	s.oracles = append(s.oracles, o)
	s.fired = append(s.fired, false)
}

// ObserveDeliveries implements simnet.DeliveryObserver: it holds the
// round's view for the ObserveRound sweep.
func (s *Suite) ObserveDeliveries(_ int, d simnet.Deliveries) { s.round.Deliveries = d }

// ObserveRoundStats implements simnet.RoundObserver: it holds the
// round's accounting for the ObserveRound sweep.
func (s *Suite) ObserveRoundStats(_ int, acct simnet.RoundAccounting) { s.round.Acct = acct }

// ObserveRound implements simnet.RoundObserver: every not-yet-fired
// oracle checks the gathered round, in suite order.
func (s *Suite) ObserveRound(round int, events []trace.Event) {
	r := s.round
	s.round = Round{}
	r.N, r.Events = round, events
	for i, o := range s.oracles {
		if s.fired[i] {
			continue
		}
		if v := o.Observe(r); v != nil {
			s.fired[i] = true
			s.violations = append(s.violations, *v)
		}
	}
}

// Violations returns all recorded violations in firing order.
func (s *Suite) Violations() []Violation {
	out := make([]Violation, len(s.violations))
	copy(out, s.violations)
	return out
}

// First returns the first violation recorded, or nil.
func (s *Suite) First() *Violation {
	if len(s.violations) == 0 {
		return nil
	}
	v := s.violations[0]
	return &v
}

// Failed reports whether any oracle has fired.
func (s *Suite) Failed() bool { return len(s.violations) > 0 }
