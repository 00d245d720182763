package simnet

import (
	"math/rand"
	"runtime"

	"uba/internal/ids"
	"uba/internal/simnet/sched"
	"uba/internal/trace"
	"uba/internal/wire"
)

// ChatterProcess broadcasts one distinct payload every round and never
// terminates: the broadcast-heavy workload (n² deliveries per round) that
// the paper's protocols put on the engine in their all-to-all phases. It
// is exported so the round-engine micro-benchmarks in this package and in
// cmd/ubabench measure the identical workload.
type ChatterProcess struct {
	Ident ids.ID
}

// ID returns the process identifier.
func (c *ChatterProcess) ID() ids.ID { return c.Ident }

// Done always reports false; a chatter process never halts.
func (c *ChatterProcess) Done() bool { return false }

// Step broadcasts one payload whose content varies by round, so
// cross-round dedup state cannot short-circuit the work.
func (c *ChatterProcess) Step(env *RoundEnv) {
	env.Broadcast(wire.Input{X: wire.V(float64(env.Round))})
}

// NewBroadcastBench builds a network of n chatter processes with traffic
// accounting attached — the standard fixture for BenchmarkRoundEngine*
// and the `ubabench -benchjson` harness. maxRounds bounds RunRound calls;
// workers is the network's Config.Workers cap (0 = the default cap).
// Errors are returned, not panicked, so a campaign driver embedding the
// fixture can fail one cell without killing the process.
func NewBroadcastBench(n, maxRounds, workers int) (*Network, *trace.Collector, error) {
	return newBroadcastBench(n, maxRounds, workers, nil)
}

func newBroadcastBench(n, maxRounds, workers int, plan *FaultPlan) (*Network, *trace.Collector, error) {
	rng := rand.New(rand.NewSource(1))
	nodeIDs := ids.Sparse(rng, n)
	col := &trace.Collector{}
	net := New(Config{
		MaxRounds: maxRounds,
		Workers:   workers,
		Collector: col,
		FaultPlan: plan,
	})
	for _, id := range nodeIDs {
		if err := net.Add(&ChatterProcess{Ident: id}); err != nil {
			// Unreachable with ids.Sparse (no duplicates), but a
			// benchmark fixture must not be able to kill a campaign.
			return nil, nil, err
		}
	}
	return net, col, nil
}

// RoundPhases drives the two halves of a round — step and
// routing/delivery — in isolation on the broadcast-heavy fixture, so
// the phase-split benchmarks (BenchmarkStepPhase*/BenchmarkRoutePhase*
// and the `ubabench -benchjson`/`-perfsmoke` harness) can attribute
// time to the half that spends it. It lives in the library (not a
// _test.go file) so cmd/ubabench can run the identical workload.
type RoundPhases struct {
	net      *Network
	col      *trace.Collector
	template []send // one round's unsorted, undeduped send stream
	scratch  []send
}

// NewRoundPhases builds the phase-split fixture: n chatter processes
// plus a frozen template of one round's sends for RouteOnly. Like
// NewBroadcastBench, failures are returned rather than panicked, and
// workers is the network's Config.Workers cap.
func NewRoundPhases(n, workers int) (*RoundPhases, error) {
	return NewRoundPhasesPlan(n, workers, nil)
}

// NewRoundPhasesPlan is NewRoundPhases with a fault plan attached to
// the underlying network. With an idle plan (non-nil but scheduling no
// events for the measured rounds) the fixture measures the cost of plan
// *presence* alone: the route path takes its fault-aware branches —
// scratch resets, the keyed copy loop — but no rule ever goes live, so
// the row isolates what attaching a plan costs a healthy round. The
// perf-smoke plan rows and the zero-alloc gate both certify that cost
// stays allocation-free; a nil plan compiles the plan machinery away
// entirely (see Config.FaultPlan).
func NewRoundPhasesPlan(n, workers int, plan *FaultPlan) (*RoundPhases, error) {
	net, col, err := newBroadcastBench(n, DefaultMaxRounds, workers, plan)
	if err != nil {
		return nil, err
	}
	rp := &RoundPhases{net: net, col: col}
	// One step phase seeds the route template. The template keeps the
	// pre-sort, pre-dedup stream, so every RouteOnly pays the full
	// block-sort + dedup + classify + delivery cost of a live round.
	net.round++
	outs, err := net.step()
	if err != nil {
		// Unreachable for chatter processes (no contact rule, no
		// quotas), but returned so an embedding driver stays alive.
		net.Close()
		return nil, err
	}
	rp.template = append([]send(nil), outs...)
	return rp, nil
}

// StepOnly runs one step phase (every process steps, sends are merged
// in node order) without routing the result. Inboxes are empty, as in
// the first round of the full benchmark.
func (rp *RoundPhases) StepOnly() error {
	rp.net.round++
	_, err := rp.net.step()
	return err
}

// RouteOnly routes one frozen round's send stream — block-local sort,
// dedup, arena sizing, sharded delivery, Collector flush — without
// stepping any process. The template is copied first, so the in-place
// sort cannot make later iterations cheaper.
func (rp *RoundPhases) RouteOnly() {
	rp.net.round++
	if cap(rp.scratch) < len(rp.template) {
		rp.scratch = make([]send, len(rp.template))
	}
	outs := rp.scratch[:len(rp.template)]
	copy(outs, rp.template)
	acct := rp.net.accountRound(outs)
	deliveries, bytes := rp.net.route(outs)
	rp.col.AddRound(rp.net.round, acct.Broadcasts, acct.Unicasts, deliveries, bytes)
}

// Close retires the underlying network and recycles its scratch.
func (rp *RoundPhases) Close() { rp.net.Close() }

// CampaignBench is the campaign-scale throughput fixture: jobs
// independent single-worker chatter networks multiplexed over one bounded
// scheduler, exactly the shape chaos.RunCampaign and `ubasweep -jobs`
// put on the engine. One RunChunk advances every simulation by a fixed
// number of rounds through a single scheduler phase (cap = jobs), so a
// benchmark op measures aggregate rounds across concurrent simulations,
// including the admission/fairness cost of the scheduler itself.
//
// The fixture owns its scheduler (budget = GOMAXPROCS at construction)
// rather than using sched.Default, so GOMAXPROCS-pinned benchmark rows
// measure the budget they name instead of whatever budget the process
// singleton was first created with. The dispatch path — Scheduler.Run
// over a reused Phase — is the same code the campaign drivers use.
type CampaignBench struct {
	sched *sched.Scheduler
	nets  []*Network
	errs  []error
	chunk int
	phase sched.Phase
}

// NewCampaignBench builds jobs broadcast-bench networks of n chatter
// processes each, every one capped at a single worker so its rounds run
// inline on whichever goroutine claimed its campaign index. Failures are returned, not panicked, matching
// the other fixtures in this file.
func NewCampaignBench(jobs, n int) (*CampaignBench, error) {
	cb := &CampaignBench{
		sched: sched.New(runtime.GOMAXPROCS(0)),
		nets:  make([]*Network, jobs),
		errs:  make([]error, jobs),
	}
	for j := range cb.nets {
		net, _, err := NewBroadcastBench(n, DefaultMaxRounds, 1)
		if err != nil {
			cb.Close()
			return nil, err
		}
		cb.nets[j] = net
	}
	return cb, nil
}

// Run advances one simulation by the current chunk; it is the
// sched.Task body of the campaign phase. Each network is capped at one
// worker, so the rounds run inline on whichever worker (or submitter)
// claimed the index — parallelism comes only from the campaign layer.
func (cb *CampaignBench) Run(i int) {
	net := cb.nets[i]
	for r := 0; r < cb.chunk; r++ {
		if err := net.RunRound(); err != nil {
			cb.errs[i] = err
			return
		}
	}
}

// RunChunk is one benchmark op: every simulation advances rounds rounds,
// dispatched as one scheduler phase with at most len(nets) in flight.
// After the first call the op is allocation-free in steady state: the
// Phase and its completion channel are reused, and each network's round
// buffers are already sized.
func (cb *CampaignBench) RunChunk(rounds int) error {
	cb.chunk = rounds
	cb.sched.Run(&cb.phase, cb, len(cb.nets), len(cb.nets))
	for _, err := range cb.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Close releases every network's buffers and the fixture's scheduler.
func (cb *CampaignBench) Close() {
	for _, net := range cb.nets {
		if net != nil {
			net.Close()
		}
	}
	cb.sched.Close()
}
