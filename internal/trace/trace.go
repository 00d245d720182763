// Package trace collects execution metrics from simulator runs.
//
// The paper argues (Discussion section) that dropping the knowledge of n
// and f leaves the usual complexity metrics — round complexity and message
// complexity — essentially unchanged relative to the classic algorithms.
// The experiment harness verifies this quantitatively, so the simulator
// reports, per run: rounds executed, send operations, delivered messages,
// and delivered bytes, with a per-round breakdown for latency histograms.
package trace

import (
	"fmt"
	"sync"
)

// RoundStats aggregates traffic observed in a single round.
type RoundStats struct {
	// Round is the 1-based round number.
	Round int
	// Sends counts send operations performed by processes (a broadcast
	// is one send operation): Broadcasts + Unicasts.
	Sends int64
	// Broadcasts and Unicasts split Sends by kind.
	Broadcasts int64
	Unicasts   int64
	// Deliveries counts point-to-point deliveries after fan-out and
	// duplicate filtering (a broadcast to n live nodes is n deliveries);
	// this is the conventional "message complexity" unit.
	Deliveries int64
	// Bytes counts encoded payload bytes across deliveries.
	Bytes int64
}

// Report summarizes a complete run.
type Report struct {
	// Rounds is the number of rounds the network executed.
	Rounds int
	// Sends, Deliveries and Bytes are totals over all rounds;
	// Broadcasts and Unicasts split the Sends total.
	Sends      int64
	Broadcasts int64
	Unicasts   int64
	Deliveries int64
	Bytes      int64
	// PerRound has one entry per executed round, in order.
	PerRound []RoundStats
}

// MessagesPerNodePerRound returns Deliveries normalized by nodes·rounds,
// the unit used for cross-n comparisons in the experiment tables.
func (r Report) MessagesPerNodePerRound(nodes int) float64 {
	if nodes <= 0 || r.Rounds == 0 {
		return 0
	}
	return float64(r.Deliveries) / float64(nodes) / float64(r.Rounds)
}

// String renders a one-line summary.
func (r Report) String() string {
	return fmt.Sprintf("rounds=%d sends=%d deliveries=%d bytes=%d",
		r.Rounds, r.Sends, r.Deliveries, r.Bytes)
}

// Collector accumulates a Report. It is safe for concurrent use, so
// callers may record from many goroutines without extra coordination
// (the round engine records via AddRound, once per round). The zero
// value is ready to use.
//
// The lock is per-Collector, never process-wide, and each simulation
// owns its own Collector — so a campaign running many simulations over
// the shared scheduler records with zero cross-job contention: one
// uncontended acquisition per simulation per round. Nothing in this
// package is shared between concurrently running jobs.
type Collector struct {
	mu     sync.Mutex
	report Report
}

// AddRound records a complete round's traffic under one lock
// acquisition. This is the simulator's hot path — the round engine accumulates broadcast/unicast/delivery/byte
// tallies in round-local counters and flushes them here once per round,
// only after the round validated and routed (an aborted round
// contributes nothing).
func (c *Collector) AddRound(round int, broadcasts, unicasts, deliveries, bytes int64) {
	sends := broadcasts + unicasts
	c.mu.Lock()
	defer c.mu.Unlock()
	c.report.Rounds = round
	c.report.PerRound = append(c.report.PerRound, RoundStats{
		Round:      round,
		Sends:      sends,
		Broadcasts: broadcasts,
		Unicasts:   unicasts,
		Deliveries: deliveries,
		Bytes:      bytes,
	})
	c.report.Sends += sends
	c.report.Broadcasts += broadcasts
	c.report.Unicasts += unicasts
	c.report.Deliveries += deliveries
	c.report.Bytes += bytes
}

// Report returns a copy of the accumulated report.
func (c *Collector) Report() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.report
	out.PerRound = make([]RoundStats, len(c.report.PerRound))
	copy(out.PerRound, c.report.PerRound)
	return out
}
