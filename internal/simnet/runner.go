package simnet

import (
	"runtime"

	"uba/internal/simnet/sched"
)

// This file is the round pipeline's dispatch layer: how a Network's
// two round phases — step-by-node and route-by-shard — become indexed
// batches on the process-wide bounded scheduler (internal/simnet/sched).
// There is one pipeline for every Network; the only runner setting is
// Config.Workers, the cap on how many goroutines may drain one phase
// (see workersCap). At a cap of 1 the scheduler runs the batch inline
// on the calling goroutine with no coordination at all, so a
// single-worker network pays nothing for the dispatch layer.
//
// A Network owns no worker goroutines. It binds to a scheduler on its
// first dispatch (the shared sched.Default unless a test injected a
// private one) and submits each phase as one barriered dispatch,
// reusing a single Phase record and a single phase-tagged poolTask so
// the steady-state round performs no allocation. The cap is not a
// reservation: a campaign running many simulations keeps total
// parallelism at the scheduler's budget no matter how many networks
// are in flight.
//
// Determinism does not depend on the cap: which goroutine runs which
// index varies run to run, but the step merge reads result slots in
// node order and the route merge reads shards in receiver order, so
// transcripts and accounting are independent of scheduling.

// poolPhase selects which half of a round a dispatched task runs.
type poolPhase uint8

const (
	phaseStep poolPhase = iota
	phaseRoute
)

// poolTask is one phase's work order: the Network's sched.Task. It is
// embedded in the Network and re-tagged per dispatch, so handing it to
// the scheduler costs a field rewrite, never an allocation.
type poolTask struct {
	net   *Network
	phase poolPhase
	live  []*procState // step phase
	res   []stepResult // step phase
}

// Run executes one index of the dispatched phase: a node step into its
// result slot, or a shard delivery. Indices are disjoint per call, and
// both bodies write only index-owned state, so concurrent Run calls
// never conflict.
//
//lint:noalloc both phase bodies run over recycled per-node and per-shard state
//lint:nonblock phase bodies run to the scheduler's dispatch barrier; a blocking index would stall every job sharing the budget
func (t *poolTask) Run(i int) {
	switch t.phase {
	case phaseStep:
		t.res[i] = t.net.stepOne(t.live[i])
	case phaseRoute:
		t.net.routeShardDeliver(&t.net.shards[i])
	}
}

// scheduler returns the scheduler this network dispatches on, binding
// to the process-wide default on first use. Tests inject a private
// scheduler (with ownsSched set) to force real parallelism on any
// host; everything else shares one budget.
func (n *Network) scheduler() *sched.Scheduler {
	if n.sched == nil {
		//lint:coldpath binding to the shared scheduler runs once per Network, on its first dispatch
		n.sched = sched.Default()
	}
	return n.sched
}

// workersCap is the network's concurrency cap: how many goroutines may
// drain one of its phase dispatches at once. Config.Workers when
// positive; otherwise GOMAXPROCS capped at the live process count.
//
//lint:noalloc pure arithmetic over the config, computed per dispatch
func (n *Network) workersCap() int {
	w := n.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
		if len(n.live) < w {
			w = len(n.live)
		}
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runStep dispatches the step phase: every process in live is stepped,
// its result written to the node's slot of res, and runStep returns at
// the phase barrier, after which the caller merges the slots in node
// order.
//
//lint:noalloc the step dispatch re-tags the embedded task and reuses the network's Phase record
func (n *Network) runStep(live []*procState, res []stepResult) {
	n.task = poolTask{net: n, phase: phaseStep, live: live, res: res}
	n.scheduler().Run(&n.phase, &n.task, len(live), n.workersCap())
}

// runRouteShards dispatches the delivery phase over n.shards[:nshards]
// and returns at the phase barrier, after which the caller merges the
// shards in receiver order.
//
//lint:noalloc the route dispatch re-tags the embedded task and reuses the network's Phase record
func (n *Network) runRouteShards(nshards int) {
	n.task = poolTask{net: n, phase: phaseRoute}
	n.scheduler().Run(&n.phase, &n.task, nshards, n.workersCap())
}

// Close retires the network: a privately owned scheduler (test hook) is
// closed, every live node's inbox view is zeroed, and the round-scoped
// scratch buffers are cleared and returned to the process-wide
// recycling pool so the next Network — a later campaign cell, often on
// another goroutine — starts at this one's high-water mark instead of
// re-growing from nil. The inbox views read through that scratch, so
// they must not outlive it: the next owner overwrites the arrays.
// Close is idempotent, and RunRound on a closed network returns
// ErrClosed. It is optional (an abandoned Network is ordinary garbage —
// no goroutines or finalizers are attached), but campaigns that run
// thousands of cells want the buffer recycling.
func (n *Network) Close() {
	if n.closed {
		return
	}
	n.closed = true
	if n.ownsSched && n.sched != nil {
		n.sched.Close()
	}
	n.sched = nil
	for _, st := range n.live {
		st.inbox = Inbox{}
	}
	n.releaseScratch()
}
