package simnet

import (
	"errors"
	"iter"

	"uba/internal/trace"
)

// This file is the round boundary: how a routed round reaches its
// consumers — the EventLog transcript and the Config.Observer feed.
// Deliveries are never materialized as trace events by the route pass.
// A consumer that wants them ranges over a Deliveries view, which
// expands the round's inbox views on demand in the canonical transcript
// order; an observer that only reads accounting or engine events (the
// complexity oracle, liveness monitors) costs the round nothing per
// delivery.

// Deliveries is a read-only view of the deliveries routed by the round
// that just ran — the messages that land at the start of the next
// round. It is handed to a DeliveryObserver at the round boundary and
// stays valid until the network next changes: the next RunRound, Add,
// Remove or Close. Ranging over a view after that panics with
// ErrStaleDeliveries rather than yielding another round's traffic. The
// zero Deliveries is an empty view.
type Deliveries struct {
	n     *Network
	epoch uint64
}

// ErrStaleDeliveries is the panic value of ranging over a Deliveries
// view after its window closed (see Deliveries).
var ErrStaleDeliveries = errors.New("simnet: Deliveries used after the next RunRound, Add, Remove or Close")

// DeliveryObserver is the one optional extension of RoundObserver, for
// consumers that read a round's deliveries: an observer that also
// implements it receives each successful round's Deliveries view
// first, before ObserveRoundStats and ObserveRound. The view is
// expanded only if the observer ranges over it, so implementing the
// interface and not iterating is free.
type DeliveryObserver interface {
	ObserveDeliveries(round int, d Deliveries)
}

// noDeliveries is the iterator of the zero view.
var noDeliveries iter.Seq[trace.Event] = func(func(trace.Event) bool) {}

// All returns an iterator over the view's deliveries as trace events,
// in the canonical transcript order: receiver-major (receivers in
// ascending node order, done and crashed receivers skipped), each
// receiver's messages in its inbox order — the round's broadcast block
// merged with the receiver's unicast segment by global send index.
// Every event carries the delivery round, the stamped sender, the
// receiver, the payload kind, the encoded size, the broadcast flag and
// the delivered encoding, exactly as the EventLog records them.
//
// The iterator reads through the engine's recycled round buffers: like
// the view, it must not be used past the view's window.
//
//lint:noalloc returns the network's pre-bound iterator; a view costs nothing until it is ranged over
func (d Deliveries) All() iter.Seq[trace.Event] {
	if d.n == nil {
		return noDeliveries
	}
	if d.epoch != d.n.epoch {
		panic(ErrStaleDeliveries)
	}
	return d.n.deliverySeq
}

// eachDelivery is the body behind Deliveries.All, bound once per
// Network (a per-view closure would allocate every round). It walks
// the inbox views routeShardDeliver handed out — done receivers hold
// an empty view — merging each by send index exactly as Inbox.All
// does.
func (n *Network) eachDelivery(yield func(trace.Event) bool) {
	round := n.round + 1 // deliveries land at the start of the next round
	for _, st := range n.live {
		in := &st.inbox
		bi, nb := 0, len(in.bcast)
		ui, nu := 0, len(in.uni)
		for bi < nb || ui < nu {
			var m *Received
			if ui >= nu || (bi < nb && in.bkeys[bi] < in.ukeys[ui]) {
				m = &in.bcast[bi]
				bi++
			} else {
				m = &in.uni[ui]
				ui++
			}
			if !yield(trace.Event{
				Round:     round,
				From:      uint64(m.From),
				To:        uint64(st.id),
				Kind:      m.Payload.Kind().String(),
				Size:      len(m.encoded),
				Broadcast: m.bcast,
				Enc:       m.encoded,
			}) {
				return
			}
		}
	}
}

// engineEvents returns the round's engine events in the canonical
// record order: fault-plan events (plan order), containment events
// (node order, from the step merge), then link-fault events (send
// order, from the serial filter). Without a fault plan that is just
// the containment events, handed out without a copy.
//
//lint:noalloc the fault-free case returns the step scratch as is; the fault case appends into the recycled roundEvents buffer
func (n *Network) engineEvents() []trace.Event {
	if n.faults == nil {
		return n.stepEvents
	}
	ev := n.roundEvents[:0]
	ev = append(ev, n.faults.planEvents...)
	ev = append(ev, n.stepEvents...)
	ev = append(ev, n.faults.linkEvents...)
	n.roundEvents = ev
	return ev
}

// publishRound hands a successfully routed round to its consumers:
// the EventLog records the engine events followed by the deliveries,
// and the observer receives the Deliveries view (DeliveryObserver),
// the accounting (ObserveRoundStats) and the engine events
// (ObserveRound), in that order, so ObserveRound closes the round. The
// transcript and the observer feed are therefore the same record:
// engine events, then Deliveries.All.
//
//lint:noalloc the observer dispatch runs every observed round; the view is two words and the engine events are recycled scratch
func (n *Network) publishRound(acct RoundAccounting) {
	log, obs := n.cfg.EventLog, n.cfg.Observer
	if log == nil && obs == nil {
		return
	}
	ev := n.engineEvents()
	if log != nil {
		log.RecordBatch(ev)
		log.RecordSeq(n.deliverySeq)
	}
	if obs == nil {
		return
	}
	if do, ok := obs.(DeliveryObserver); ok {
		do.ObserveDeliveries(n.round, Deliveries{n: n, epoch: n.epoch})
	}
	obs.ObserveRoundStats(n.round, acct)
	obs.ObserveRound(n.round, ev)
}
