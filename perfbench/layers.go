package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	"uba"
	"uba/internal/adversary"
	"uba/internal/chaos"
	"uba/internal/core/consensus"
	"uba/internal/core/ordering"
	"uba/internal/ids"
	"uba/internal/oracle"
	"uba/internal/simnet"
	"uba/internal/trace"
	"uba/internal/wire"
)

// The traced run rebuilds each workload from the layers' public
// constructors and times every call into a layer from outside: Step of
// each correct process (core) and each Byzantine process (adversary),
// the oracle suite's observer callbacks (oracle), network construction
// (build) and RunRound. Nothing inside the program is instrumented.
// The engine's share is RunRound wall time minus the Step and observer
// time inside it. A replica's numbers count only if it reproduces the
// facade run it shadows exactly (the fidelity gate): same trace.Report
// and same outcome.

// layerClock accumulates the wall time spent in each layer.
type layerClock struct {
	step    time.Duration // correct Process.Step
	byz     time.Duration // Byzantine Process.Step
	observe time.Duration // oracle.Suite ObserveRound + ObserveRoundStats
	build   time.Duration // node construction, simnet.New, Add
	rounds  time.Duration // RunRound / Run wall time
}

// timedProc times a process's Step calls into *d.
type timedProc struct {
	simnet.Process
	d *time.Duration
}

func (p timedProc) Step(env *simnet.RoundEnv) {
	t := time.Now()
	p.Process.Step(env)
	*p.d += time.Since(t)
}

// timedSuite times an oracle suite's observer callbacks into *d.
type timedSuite struct {
	suite *oracle.Suite
	d     *time.Duration
}

func (o timedSuite) ObserveRound(round int, events []trace.Event) {
	t := time.Now()
	o.suite.ObserveRound(round, events)
	*o.d += time.Since(t)
}

func (o timedSuite) ObserveRoundStats(round int, acct simnet.RoundAccounting) {
	t := time.Now()
	o.suite.ObserveRoundStats(round, acct)
	*o.d += time.Since(t)
}

// counters are the runtime's heap and GC counters at one instant.
type counters struct {
	allocBytes uint64 // heap bytes allocated so far
	gcCycles   uint64 // GC cycles completed so far
}

// readCounters reads the counters. Unlike runtime.ReadMemStats it does
// not stop the world, so it can bracket every call.
func readCounters() counters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return counters{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

// addRuntime adds the allocation and GC work between two readings.
func (t *layerTotals) addRuntime(c0, c1 counters) {
	t.allocBytes += c1.allocBytes - c0.allocBytes
	t.gcCycles += c1.gcCycles - c0.gcCycles
}

// layerTotals sums what the traced replicas measured over whole op
// sequences (runs, sessions, sweeps), so the sim.* counts are exact and
// independent of how many sequences fit in the window.
type layerTotals struct {
	ops        int
	clock      layerClock
	replica    time.Duration // traced replica wall time
	facade     time.Duration // untraced wall time of the same ops
	allocBytes uint64
	gcCycles   uint64
	report     trace.Report // summed counts (PerRound unused)
	lagSum     float64      // finality lag, summed over sequences
	chainSum   int          // longest chain, summed over sequences
	sequences  int
	cellMS     map[chaos.Arena][]float64
	speedups   []float64
}

func (t *layerTotals) addReport(r trace.Report) {
	t.report.Rounds += r.Rounds
	t.report.Sends += r.Sends
	t.report.Deliveries += r.Deliveries
	t.report.Bytes += r.Bytes
}

// metrics returns every per-layer metric. Layers a workload does not
// exercise read 0.
func (t *layerTotals) metrics() []metric {
	n := float64(t.ops)
	c := t.clock
	engine := c.rounds - c.step - c.byz - c.observe
	perDelivery := func(d time.Duration) float64 {
		if t.report.Deliveries == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(t.report.Deliveries)
	}
	perSeq := func(x float64) float64 {
		if t.sequences == 0 {
			return 0
		}
		return x / float64(t.sequences)
	}
	out := []metric{
		{"simnet.engine_ms", "ms", ms(engine) / n, t.ops},
		{"simnet.engine_ns_per_delivery", "ns", perDelivery(engine), t.ops},
		{"core.step_ms", "ms", ms(c.step) / n, t.ops},
		{"core.step_ns_per_delivery", "ns", perDelivery(c.step), t.ops},
		{"adversary.step_ms", "ms", ms(c.byz) / n, t.ops},
		{"oracle.observe_ms", "ms", ms(c.observe) / n, t.ops},
		{"simnet.build_ms", "ms", ms(c.build) / n, t.ops},
		{"runtime.alloc_mb", "MB", float64(t.allocBytes) / 1e6 / n, t.ops},
		{"runtime.gc_cycles", "count", float64(t.gcCycles) / n, t.ops},
		{"runtime.heap_sys_mb", "MB", heapSysMB(), 1},
	}
	for _, a := range chaos.DefaultCampaign().Arenas {
		cells := t.cellMS[a]
		out = append(out, metric{"chaos.cell_ms." + a.String(), "ms", quantile(cells, 0.5), len(cells)})
	}
	out = append(out,
		metric{"sched.jobs_speedup", "x", quantile(t.speedups, 0.5), len(t.speedups)},
		metric{"sim.rounds", "count", float64(t.report.Rounds) / n, t.ops},
		metric{"sim.sends", "count", float64(t.report.Sends) / n, t.ops},
		metric{"sim.deliveries", "count", float64(t.report.Deliveries) / n, t.ops},
		metric{"sim.bytes", "B", float64(t.report.Bytes) / n, t.ops},
		metric{"sim.finality_lag_rounds", "rounds", perSeq(t.lagSum), t.sequences},
		metric{"sim.chain_len", "count", perSeq(float64(t.chainSum)), t.sequences},
		metric{"trace.overhead_pct", "%", 100 * (t.replica.Seconds()/t.facade.Seconds() - 1), t.ops},
	)
	return out
}

// heapSysMB is the heap memory the process holds from the OS.
func heapSysMB() float64 {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapSys) / 1e6
}

// measureLayers runs the workload's traced replicas for opts.seconds.
func measureLayers(opts options, sz sizes) (*result, error) {
	tot := &layerTotals{cellMS: map[chaos.Arena][]float64{}}
	res := &result{}
	window := time.Duration(opts.seconds * float64(time.Second))
	if err := findWorkload(opts.workload).trace(opts, sz, window, tot, res); err != nil {
		return nil, err
	}
	if tot.ops == 0 {
		return nil, fmt.Errorf("%s: no traced op passed its checks", opts.workload)
	}
	res.metrics = tot.metrics()
	return res, nil
}

// traceConsensus alternates a facade uba.Consensus run with a traced
// replica of it.
func traceConsensus(opts options, sz sizes, window time.Duration, tot *layerTotals, res *result) error {
	w := newConsensusRun(sz, opts.seed, opts.jobs).(*consensusRun)
	if err := w.setup(); err != nil {
		return fmt.Errorf("consensus set-up: %w", err)
	}
	start := time.Now()
	for first := true; first || time.Since(start) < window; first = false {
		t := time.Now()
		w.call()
		facade := time.Since(t)
		ops, fails := w.check()
		res.attempted += ops
		res.failures = append(res.failures, fails...)
		if len(fails) > 0 {
			continue
		}
		var clk layerClock
		c0 := readCounters()
		t = time.Now()
		got, err := consensusReplica(w.cfg, w.inputs, &clk)
		replica := time.Since(t)
		c1 := readCounters()
		if err != nil {
			return fmt.Errorf("consensus replica: %w", err)
		}
		want := w.res
		if !reflect.DeepEqual(got.Report, want.Report) || got.Rounds != want.Rounds ||
			got.Decision != want.Decision || !reflect.DeepEqual(got.DecisionRounds, want.DecisionRounds) {
			return fmt.Errorf("fidelity gate: consensus replica (rounds %d, decision %v, %v) differs from the facade run (rounds %d, decision %v, %v)",
				got.Rounds, got.Decision, got.Report, want.Rounds, want.Decision, want.Report)
		}
		tot.ops++
		tot.sequences++
		tot.clock = addClock(tot.clock, clk)
		tot.replica += replica
		tot.facade += facade
		tot.addRuntime(c0, c1)
		tot.addReport(got.Report)
	}
	return nil
}

func addClock(a, b layerClock) layerClock {
	return layerClock{
		step:    a.step + b.step,
		byz:     a.byz + b.byz,
		observe: a.observe + b.observe,
		build:   a.build + b.build,
		rounds:  a.rounds + b.rounds,
	}
}

// consensusReplica rebuilds uba.Consensus for cfg (AdversarySplit) from
// the layers' constructors: the same id layout, nodes, coalition and
// complexity oracle the facade attaches.
func consensusReplica(cfg uba.Config, inputs []float64, clk *layerClock) (*uba.ConsensusResult, error) {
	t := time.Now()
	all := ids.Sparse(rand.New(rand.NewSource(cfg.Seed)), cfg.Correct+cfg.Byzantine)
	correct, byz := all[:cfg.Correct], all[cfg.Correct:]
	dir := adversary.NewDirectory(all, byz)
	suite := oracle.NewSuite(oracle.NewComplexityFor("consensus", 0))
	col := &trace.Collector{}
	net := simnet.New(simnet.Config{Collector: col, Observer: timedSuite{suite, &clk.observe}})
	defer net.Close()
	nodes := make([]*consensus.Node, 0, len(correct))
	for i, id := range correct {
		node := consensus.New(id, wire.V(inputs[i]))
		nodes = append(nodes, node)
		if err := net.Add(timedProc{node, &clk.step}); err != nil {
			return nil, err
		}
	}
	// The facade's split voter pushes the two smallest distinct inputs:
	// 0 and 1 for the alternating inputs.
	for _, id := range byz {
		p := adversary.NewSplitVoter(id, dir, wire.V(0), wire.V(1))
		if err := net.AddByzantine(timedProc{p, &clk.byz}); err != nil {
			return nil, err
		}
	}
	clk.build += time.Since(t)

	t = time.Now()
	rounds, err := net.Run(simnet.AllDone(correct))
	clk.rounds += time.Since(t)
	if err != nil {
		return nil, err
	}
	if v := suite.First(); v != nil {
		return nil, fmt.Errorf("%s oracle fired in round %d: %s", v.Oracle, v.Round, v.Detail)
	}
	res := &uba.ConsensusResult{Rounds: rounds, Report: col.Report()}
	for _, node := range nodes {
		out, ok := node.Output()
		if !ok {
			return nil, fmt.Errorf("node %v did not decide", node.ID())
		}
		res.Decision = out.X
		res.DecisionRounds = append(res.DecisionRounds, node.DecidedRound())
	}
	return res, nil
}

// orderingReplica rebuilds an OrderingCluster from the layers'
// constructors and drives it through the same orderingHandle ops.
type orderingReplica struct {
	net      *simnet.Network
	col      *trace.Collector
	suite    *oracle.Suite
	clk      *layerClock
	joinIDs  *rand.Rand
	nodes    map[uint64]*ordering.Node
	founders []uint64
	joiners  []uint64
	members  []uint64
	values   *rand.Rand
}

func newOrderingReplica(cfg uba.Config, clk *layerClock) (*orderingReplica, error) {
	t := time.Now()
	defer func() { clk.build += time.Since(t) }()
	all := ids.Sparse(rand.New(rand.NewSource(cfg.Seed)), cfg.Correct+cfg.Byzantine)
	members := ids.NewSet(all...)
	r := &orderingReplica{
		col:   &trace.Collector{},
		suite: oracle.NewSuite(oracle.NewComplexityFor("ordering", 0)),
		clk:   clk,
		// NewOrderingCluster draws joiner ids from this stream.
		joinIDs: rand.New(rand.NewSource(cfg.Seed + 7919)),
		nodes:   map[uint64]*ordering.Node{},
		values:  rand.New(rand.NewSource(cfg.Seed)),
	}
	r.net = simnet.New(simnet.Config{Collector: r.col, Observer: timedSuite{r.suite, &clk.observe}})
	for _, id := range all[:cfg.Correct] {
		node, err := ordering.NewFounder(id, members)
		if err != nil {
			return nil, err
		}
		r.nodes[uint64(id)] = node
		r.founders = append(r.founders, uint64(id))
		if err := r.net.Add(timedProc{node, &clk.step}); err != nil {
			return nil, err
		}
	}
	r.members = append([]uint64(nil), r.founders...)
	for _, id := range all[cfg.Correct:] {
		if err := r.net.AddByzantine(timedProc{adversary.NewSilent(id), &clk.byz}); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *orderingReplica) handle() orderingHandle {
	return orderingHandle{
		join: func() error {
			t := time.Now()
			defer func() { r.clk.build += time.Since(t) }()
			id := ids.Sparse(r.joinIDs, 1)[0]
			node, err := ordering.NewJoiner(id)
			if err != nil {
				return err
			}
			if err := r.net.Add(timedProc{node, &r.clk.step}); err != nil {
				return err
			}
			r.nodes[uint64(id)] = node
			r.joiners = append(r.joiners, uint64(id))
			r.members = append(r.members, uint64(id))
			return nil
		},
		leave: func() error {
			r.nodes[r.joiners[0]].Leave()
			r.joiners = r.joiners[1:]
			return nil
		},
		joiners: func() int { return len(r.joiners) },
		submit: func(i int, v float64) error {
			r.nodes[r.founders[i]].SubmitEvent(v)
			return nil
		},
		round: func() error {
			t := time.Now()
			err := r.net.RunRound()
			r.clk.rounds += time.Since(t)
			if err != nil {
				return err
			}
			if v := r.suite.First(); v != nil {
				return fmt.Errorf("%s oracle fired in round %d: %s", v.Oracle, v.Round, v.Detail)
			}
			return nil
		},
	}
}

// chainStats returns the mean finality lag (Round − FinalizedThrough)
// over the given nodes and the longest chain among them.
func chainStats(nodes []*ordering.Node) (lag float64, longest int) {
	for _, n := range nodes {
		lag += float64(n.Round() - n.FinalizedThrough())
		longest = max(longest, len(n.Chain()))
	}
	return lag / float64(len(nodes)), longest
}

// traceOrdering runs whole sessions of the ordering workload with a
// traced replica in lockstep: every facade op is followed by the same
// op on the replica, and at the end of each session the replica's
// report, chains and finality must equal the facade cluster's.
func traceOrdering(opts options, sz sizes, window time.Duration, tot *layerTotals, res *result) error {
	w := newOrderingRun(sz, opts.seed, opts.jobs).(*orderingRun)
	if err := w.newSession(); err != nil {
		return fmt.Errorf("ordering set-up: %w", err)
	}
	defer w.close()
	start := time.Now()
	for first := true; first || time.Since(start) < window; first = false {
		var clk layerClock
		rep, err := newOrderingReplica(w.config(), &clk)
		if err != nil {
			return fmt.Errorf("ordering replica: %w", err)
		}
		h := rep.handle()
		var seq layerTotals
		failed := false
		for op := 0; op < sz.sessionOps; op++ {
			t := time.Now()
			w.call()
			seq.facade += time.Since(t)
			ops, fails := w.check()
			res.attempted += ops
			res.failures = append(res.failures, fails...)
			failed = failed || len(fails) > 0
			c0 := readCounters()
			t = time.Now()
			err := orderingOp(op, sz, rep.values, h)
			seq.replica += time.Since(t)
			c1 := readCounters()
			if err != nil {
				rep.net.Close()
				return fmt.Errorf("ordering replica op %d: %w", op, err)
			}
			seq.addRuntime(c0, c1)
		}
		rep.net.Close()
		if failed {
			continue
		}
		// check() ended the facade session at the last op.
		got := rep.col.Report()
		if err := orderingFidelity(rep, got, w.lastReport, w.lastChains); err != nil {
			return err
		}
		founders := make([]*ordering.Node, 0, len(rep.founders))
		for _, id := range rep.founders {
			founders = append(founders, rep.nodes[id])
		}
		lag, longest := chainStats(founders)
		tot.ops += sz.sessionOps
		tot.sequences++
		tot.clock = addClock(tot.clock, clk)
		tot.replica += seq.replica
		tot.facade += seq.facade
		tot.allocBytes += seq.allocBytes
		tot.gcCycles += seq.gcCycles
		tot.addReport(got)
		tot.lagSum += lag
		tot.chainSum += longest
	}
	return nil
}

// orderingFidelity is the gate for an ordering replica session.
func orderingFidelity(rep *orderingReplica, got, want trace.Report, chains map[uint64][]uba.Event) error {
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("fidelity gate: ordering replica report %v differs from the facade's %v", got, want)
	}
	if len(chains) != len(rep.members) {
		return fmt.Errorf("fidelity gate: ordering replica has %d members, the facade %d", len(rep.members), len(chains))
	}
	for _, m := range rep.members {
		var chain []uba.Event
		for _, e := range rep.nodes[m].Chain() {
			chain = append(chain, uba.Event{Round: e.Round, Submitter: uint64(e.Submitter), Value: e.Value})
		}
		want, ok := chains[m]
		if !ok {
			return fmt.Errorf("fidelity gate: ordering replica member %d is not a facade member", m)
		}
		if !slices.Equal(chain, want) {
			return fmt.Errorf("fidelity gate: ordering replica chain of member %d differs from the facade's", m)
		}
	}
	return nil
}

// traceCampaign alternates a facade campaign sweep with: the same sweep
// at Jobs = 1 (for sched.jobs_speedup), every cell of the sweep run
// alone through chaos.Run (chaos.cell_ms.<arena>), and a traced replica
// of every ordering-arena cell, the arena that dominates the campaign.
func traceCampaign(opts options, sz sizes, window time.Duration, tot *layerTotals, res *result) error {
	w := newCampaignRun(sz, opts.seed, opts.jobs).(*campaignRun)
	if err := w.setup(); err != nil {
		return fmt.Errorf("campaign set-up: %w", err)
	}
	start := time.Now()
	for first := true; first || time.Since(start) < window; first = false {
		t := time.Now()
		w.call()
		parallel := time.Since(t)
		ops, fails := w.check()
		res.attempted += ops
		res.failures = append(res.failures, fails...)
		if len(fails) > 0 {
			continue
		}
		serial := w.cfg
		serial.Jobs = 1
		t = time.Now()
		rep, err := chaos.RunCampaign(serial, nil)
		sequential := time.Since(t)
		if err != nil || !rep.Clean() {
			return fmt.Errorf("campaign at Jobs=1 not clean: %v %+v", err, rep)
		}
		tot.speedups = append(tot.speedups, sequential.Seconds()/parallel.Seconds())

		for _, arena := range w.cfg.Arenas {
			for seed := int64(1); seed <= int64(w.cfg.Seeds); seed++ {
				if err := traceCell(w, arena, seed, tot); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// cellScenario builds the scenario RunCampaign runs for one cell.
func cellScenario(cfg chaos.CampaignConfig, arena chaos.Arena, seed int64) chaos.Scenario {
	c := chaos.NewCoalition(arena, nil, seed*101+int64(arena))
	s := chaos.Scenario{
		Arena:     arena,
		Correct:   cfg.Correct,
		Seed:      seed,
		MaxRounds: cfg.MaxRounds,
		Twin:      cfg.Twin,
		Slots:     c.Plan(cfg.Byzantine, true),
	}
	if cfg.Faults == chaos.FaultsByzantine {
		s.Faults = chaos.PlanFaults(s)
	}
	return s
}

// traceCell times one campaign cell through chaos.Run, checks it against
// the facade sweep's log, and for an ordering cell runs the traced
// replica and gates it on chaos.Run's outcome.
func traceCell(w *campaignRun, arena chaos.Arena, seed int64, tot *layerTotals) error {
	s := cellScenario(w.cfg, arena, seed)
	t := time.Now()
	out, err := chaos.Run(s)
	cell := time.Since(t)
	if err != nil {
		return fmt.Errorf("chaos.Run %v seed=%d: %w", arena, seed, err)
	}
	if len(out.Violations) > 0 || out.Rounds != w.cells[cellKey{arena, seed}] {
		return fmt.Errorf("fidelity gate: chaos.Run %v seed=%d ran %d rounds with %d violations; the sweep logged %d clean rounds",
			arena, seed, out.Rounds, len(out.Violations), w.cells[cellKey{arena, seed}])
	}
	tot.cellMS[arena] = append(tot.cellMS[arena], ms(cell))
	if arena != chaos.ArenaOrdering {
		return nil
	}
	var clk layerClock
	c0 := readCounters()
	t = time.Now()
	got, rep, nodes, err := orderingArenaReplica(s, &clk)
	replica := time.Since(t)
	c1 := readCounters()
	if err != nil {
		return fmt.Errorf("ordering arena replica seed=%d: %w", seed, err)
	}
	if !reflect.DeepEqual(got, out) {
		return fmt.Errorf("fidelity gate: ordering arena replica seed=%d outcome %+v differs from chaos.Run's %+v", seed, got, out)
	}
	lag, longest := chainStats(nodes)
	tot.ops++
	tot.sequences++
	tot.clock = addClock(tot.clock, clk)
	tot.replica += replica
	tot.facade += cell
	tot.addRuntime(c0, c1)
	tot.addReport(rep)
	tot.lagSum += lag
	tot.chainSum += longest
	return nil
}

// orderingArenaReplica rebuilds chaos.Run for an ordering-arena scenario
// from the layers' constructors: the arena's founders (founder i
// submits event i), its oracle suite plus the complexity oracle,
// liveness degradation under a fault plan, and the materialized
// coalition.
func orderingArenaReplica(s chaos.Scenario, clk *layerClock) (*chaos.Outcome, trace.Report, []*ordering.Node, error) {
	t := time.Now()
	all := ids.Sparse(rand.New(rand.NewSource(s.Seed)), s.Correct+len(s.Slots))
	correct, byz := all[:s.Correct], all[s.Correct:]
	dir := adversary.NewDirectory(all, byz)
	members := ids.NewSet(all...)
	nodes := make([]*ordering.Node, 0, len(correct))
	for i, id := range correct {
		node, err := ordering.NewFounder(id, members)
		if err != nil {
			return nil, trace.Report{}, nil, err
		}
		node.SubmitEvent(float64(i))
		nodes = append(nodes, node)
	}
	suite := oracle.NewSuite(oracle.ForOrdering(nodes)...)
	suite.Add(oracle.NewComplexityFor("ordering", 0))
	if s.Faults != nil && len(s.Faults.Events) > 0 {
		suite.Wrap(degradeLiveness)
	}
	twin := func(id ids.ID) simnet.Process {
		node, err := ordering.NewFounder(id, members)
		if err != nil {
			return adversary.NewSilent(id)
		}
		return node
	}
	col := &trace.Collector{}
	net := simnet.New(simnet.Config{
		MaxRounds: s.MaxRounds + 1,
		Collector: col,
		Observer:  timedSuite{suite, &clk.observe},
		FaultPlan: s.Faults,
	})
	defer net.Close()
	for _, node := range nodes {
		if err := net.Add(timedProc{node, &clk.step}); err != nil {
			return nil, trace.Report{}, nil, err
		}
	}
	for i, id := range byz {
		p, err := chaos.Materialize(s.Slots[i], id, byz, dir, twin)
		if err != nil {
			return nil, trace.Report{}, nil, err
		}
		if err := net.AddByzantine(timedProc{p, &clk.byz}); err != nil {
			return nil, trace.Report{}, nil, err
		}
	}
	clk.build += time.Since(t)

	rounds := 0
	t = time.Now()
	for rounds < s.MaxRounds && !suite.Failed() {
		if err := net.RunRound(); err != nil {
			clk.rounds += time.Since(t)
			return nil, trace.Report{}, nil, err
		}
		rounds++
	}
	clk.rounds += time.Since(t)
	return &chaos.Outcome{Rounds: rounds, Violations: suite.Violations()}, col.Report(), nodes, nil
}

// degradeLiveness is the campaign's degradation policy under a fault
// plan: liveness oracles (named *-termination or *-totality) are
// suspended while the network is disrupted and for 6 rounds after.
func degradeLiveness(o oracle.Oracle) oracle.Oracle {
	name := o.Name()
	if strings.HasSuffix(name, "-termination") || strings.HasSuffix(name, "-totality") {
		return oracle.NewDegraded(o, 6)
	}
	return nil
}
