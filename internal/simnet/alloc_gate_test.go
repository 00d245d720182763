package simnet

import (
	"fmt"
	"runtime"
	"testing"

	"uba/internal/trace"
)

// countingObserver is the observer=stats gate's observer: it implements
// every round-boundary interface and only counts the calls — it never
// ranges over the Deliveries view, which is exactly the consumer the
// lazy view makes free.
type countingObserver struct {
	rounds, stats, views int
}

func (o *countingObserver) ObserveRound(int, []trace.Event)        { o.rounds++ }
func (o *countingObserver) ObserveRoundStats(int, RoundAccounting) { o.stats++ }
func (o *countingObserver) ObserveDeliveries(int, Deliveries)      { o.views++ }

// TestRouteHotPathZeroAlloc is the runtime half of the //lint:noalloc
// contract on the round hot path: after the warm-up rounds that grow
// the recycled arenas to their high-water mark, a steady-state
// account + route pass must perform zero heap allocations per round,
// at worker caps 1 (inline) and 4 (dispatched over the shared
// scheduler), across three network sizes.
//
// The plan=idle variants re-certify the same bound with a fault plan
// attached but never live: plan presence routes through the
// fault-aware branches (scratch resets, the keyed delivery copy), and
// those must be as allocation-free as the nil-plan path — attaching a
// FaultPlan may never cost a healthy round an allocation.
//
// The observer=stats variants attach an observer implementing
// RoundObserver, RoundStatsObserver and DeliveryObserver that never
// ranges over the view, and run the full round-boundary dispatch
// (publishRound) every measured round: an attached observer must not
// make the engine build a single delivery event. Steady-state zero
// allocations alone cannot show that — recycled per-round event
// buffers would be allocation-free too once grown — so these variants
// also bound the warm-up rounds' allocated bytes below one byte per
// delivery of a single round: materializing the n² delivery events
// even once costs ~88 bytes each.
//
// The measured body is RouteOnly minus the Collector flush: AddRound
// appends one RoundStats to the report's per-round ledger every round,
// which is genuinely amortized O(1) allocation — the ledger is a
// product of the run, not round scratch — and is deliberately outside
// the noalloc certification (it carries no //lint:noalloc directive).
func TestRouteHotPathZeroAlloc(t *testing.T) {
	for _, plan := range []*FaultPlan{nil, {Seed: 1}} {
		label := "plan=nil"
		if plan != nil {
			label = "plan=idle"
		}
		for _, workers := range []int{1, 4} {
			for _, n := range []int{256, 1024, 4096} {
				t.Run(fmt.Sprintf("%s/workers=%d/n=%d", label, workers, n), func(t *testing.T) {
					checkRouteZeroAlloc(t, n, workers, plan, nil)
				})
			}
		}
	}
	for _, workers := range []int{1, 4} {
		for _, n := range []int{1024, 4096} {
			t.Run(fmt.Sprintf("observer=stats/workers=%d/n=%d", workers, n), func(t *testing.T) {
				obs := &countingObserver{}
				checkRouteZeroAlloc(t, n, workers, nil, obs)
				// Every measured round went through the whole dispatch.
				if obs.views != obs.rounds || obs.stats != obs.rounds || obs.rounds < 100 {
					t.Fatalf("observer saw %d views, %d rounds, %d stats; want equal counts over >= 100 rounds",
						obs.views, obs.rounds, obs.stats)
				}
			})
		}
	}
}

// checkRouteZeroAlloc measures one steady-state account + route pass
// on the n-node chatter fixture — plus the observer dispatch when obs
// is attached — and fails unless it allocates zero times per round.
func checkRouteZeroAlloc(t *testing.T, n, workers int, plan *FaultPlan, obs *countingObserver) {
	t.Helper()
	rp, err := NewRoundPhasesPlan(n, workers, plan)
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	if obs != nil {
		rp.SetObserver(obs)
	}
	// Warm-up: grow the broadcast block, unicast arena, shard table and
	// done mask to their steady-state sizes, and let the runtime's
	// channel/park caches populate for dispatched phases.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 3; i++ {
		rp.RouteOnly()
	}
	runtime.ReadMemStats(&after)
	if warm := after.TotalAlloc - before.TotalAlloc; obs != nil && warm >= uint64(n)*uint64(n) {
		t.Errorf("observed warm-up at n=%d (workers=%d) allocated %d bytes, want < n^2 = %d: delivery events are being built for an observer that never reads them",
			n, workers, warm, n*n)
	}
	var deliveries, bcasts int64
	avg := testing.AllocsPerRun(100, func() {
		rp.net.epoch++
		rp.net.round++
		outs := rp.scratch[:len(rp.template)]
		copy(outs, rp.template)
		acct := rp.net.accountRound(outs)
		deliveries, _ = rp.net.route(outs)
		acct.Deliveries = deliveries
		rp.net.publishRound(acct)
		bcasts = acct.Broadcasts
	})
	if deliveries != int64(n)*int64(n) || bcasts != int64(n) {
		t.Fatalf("fixture routed %d deliveries / %d broadcasts per round, want n^2 = %d / n = %d",
			deliveries, bcasts, int64(n)*int64(n), n)
	}
	if avg != 0 {
		t.Errorf("steady-state route at n=%d (workers=%d, plan=%v, observed=%v) allocates %.2f times per round, want 0 — the //lint:noalloc contract is broken at runtime",
			n, workers, plan != nil, obs != nil, avg)
	}
}
