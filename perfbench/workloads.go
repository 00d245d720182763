package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"time"

	"uba"
	"uba/internal/chaos"
	"uba/internal/trace"
)

// workload is one benchmark workload driven through the public surface
// only: the timed calls go to uba.Consensus, the uba.OrderingCluster
// methods or chaos.RunCampaign, and never set Config.Observer,
// EventLog, Concurrent or Workers.
type workload interface {
	// setup builds the inputs and makes one untimed warm-up call.
	setup() error
	// call makes one timed call into the public surface.
	call()
	// check verifies the last call's outputs, untimed. It returns how
	// many workload ops the call completed and one labelled line per
	// failed op.
	check() (ops int, failures []string)
	close()
}

// workloadSpec names a workload, builds its facade loop and runs its
// traced replica (layers.go).
type workloadSpec struct {
	name  string
	build func(sz sizes, seed int64, jobs int) workload
	trace func(opts options, sz sizes, window time.Duration, tot *layerTotals, res *result) error
}

// workloads lists the benchmark's workloads; README.md gives the reason
// for each.
var workloads = []workloadSpec{
	{"consensus-n128", newConsensusRun, traceConsensus},
	{"ordering-n32", newOrderingRun, traceOrdering},
	{"campaign-faults", newCampaignRun, traceCampaign},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// coldStart runs two collections, which empty every sync.Pool (primary
// and victim cache), so each set-up pays the scratch-buffer growth of a
// process's first run.
func coldStart() {
	runtime.GC()
	runtime.GC()
}

// A set-up shorter than minSetupSeconds/sz.setupReps is repeated (up to
// maxSetupReps times) until minSetupSeconds were spent in set-up, so a
// millisecond set-up still gets a steady median.
const (
	minSetupSeconds = 0.25
	maxSetupReps    = 200
)

// measureEndToEnd sets the workload up at least sz.setupReps times, then calls it
// in a closed loop for opts.seconds, timing each call and checking each
// result. Tracing is off: nothing but the public surface is called.
func measureEndToEnd(opts options, sz sizes) (*result, error) {
	build := findWorkload(opts.workload).build
	var w workload
	var setups []float64
	var spent float64
	for i := 0; i < sz.setupReps || (spent < minSetupSeconds && i < maxSetupReps); i++ {
		if w != nil {
			w.close()
		}
		coldStart()
		start := time.Now()
		w = build(sz, opts.seed, opts.jobs)
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", opts.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		spent += setups[i]
	}
	defer w.close()

	res := &result{}
	var calls, allocs []float64
	var busy time.Duration
	window := time.Duration(opts.seconds * float64(time.Second))
	start := time.Now()
	for len(calls) == 0 || time.Since(start) < window {
		c0 := readCounters()
		t := time.Now()
		w.call()
		d := time.Since(t)
		c1 := readCounters()
		ops, fails := w.check()
		res.attempted += ops
		res.failures = append(res.failures, fails...)
		busy += d
		calls = append(calls, ms(d))
		allocs = append(allocs, float64(c1.allocBytes-c0.allocBytes)/1e6/float64(ops))
	}
	res.metrics = []metric{
		{"setup_s", "s", quantile(setups, 0.5), len(setups)},
		{"call_ms_p50", "ms", quantile(calls, 0.5), len(calls)},
		{"ops_per_s", "1/s", float64(res.attempted) / busy.Seconds(), res.attempted},
		{"alloc_mb_per_op", "MB", quantile(allocs, 0.5), len(allocs)},
	}
	return res, nil
}

// consensusRun: one op is one uba.Consensus run to termination, g
// alternating 0/1 inputs against an AdversarySplit coalition of f.
type consensusRun struct {
	cfg    uba.Config
	inputs []float64
	res    *uba.ConsensusResult
	err    error
	ref    *trace.Report // counts of the warm-up run; every run must repeat them
}

func newConsensusRun(sz sizes, seed int64, _ int) workload {
	return &consensusRun{cfg: uba.Config{
		Correct:   sz.consensusG,
		Byzantine: sz.consensusF,
		Adversary: uba.AdversarySplit,
		Seed:      seed,
	}}
}

func (w *consensusRun) setup() error {
	w.inputs = make([]float64, w.cfg.Correct)
	for i := range w.inputs {
		w.inputs[i] = float64(i % 2)
	}
	w.call()
	if bad := w.verify(); bad != "" {
		return fmt.Errorf("warm-up run: %s", bad)
	}
	w.ref = &w.res.Report
	return nil
}

func (w *consensusRun) call() { w.res, w.err = uba.Consensus(w.cfg, w.inputs) }

func (w *consensusRun) check() (int, []string) {
	if bad := w.verify(); bad != "" {
		return 1, []string{bad}
	}
	return 1, nil
}

// verify labels the first check the last run fails, or returns "".
func (w *consensusRun) verify() string {
	if w.err != nil {
		return "consensus: run error: " + w.err.Error()
	}
	if d := w.res.Decision; d != 0 && d != 1 {
		return fmt.Sprintf("consensus: decision %v not in {0, 1}", d)
	}
	for i, r := range w.res.DecisionRounds {
		if r < 1 || r > w.res.Rounds {
			return fmt.Sprintf("consensus: node %d decided in round %d, outside [1, %d]", i, r, w.res.Rounds)
		}
	}
	if w.ref != nil && !reflect.DeepEqual(*w.ref, w.res.Report) {
		return "consensus: simulated counts differ from the warm-up run"
	}
	return ""
}

func (w *consensusRun) close() {}

// orderingRun: a closed loop on one OrderingCluster. Each op is a
// SubmitEvent at founder (op mod g) followed by RunRounds(1); a Join
// happens every joinEvery ops and the oldest joiner Leaves leaveAfter
// ops later. After sessionOps ops the cluster is checked, closed and
// rebuilt (untimed) with the same inputs, so every session repeats the
// same op sequence and per-op work does not drift with run length.
type orderingRun struct {
	sz   sizes
	seed int64

	oc       *uba.OrderingCluster
	handle   orderingHandle
	founders []uint64
	joiners  []uint64 // live joiners, oldest first
	members  []uint64 // every member ever driven, founders first
	values   *rand.Rand
	op       int // op index within the session
	sessions int
	err      error
	final    map[uint64]uint64  // last FinalizedThrough per member
	ref      []trace.RoundStats // per-round counts of the first session

	// What the last finished session ended with, for the traced
	// replica's fidelity gate.
	lastReport trace.Report
	lastChains map[uint64][]uba.Event
}

func newOrderingRun(sz sizes, seed int64, _ int) workload {
	w := &orderingRun{sz: sz, seed: seed}
	w.handle = orderingHandle{
		join: func() error {
			id, err := w.oc.Join()
			if err == nil {
				w.joiners = append(w.joiners, id)
				w.members = append(w.members, id)
			}
			return err
		},
		leave: func() error {
			id := w.joiners[0]
			w.joiners = w.joiners[1:]
			return w.oc.Leave(id)
		},
		joiners: func() int { return len(w.joiners) },
		submit:  func(i int, v float64) error { return w.oc.SubmitEvent(w.founders[i], v) },
		round:   func() error { return w.oc.RunRounds(1) },
	}
	return w
}

func (w *orderingRun) config() uba.Config {
	return uba.Config{
		Correct:   w.sz.orderingG,
		Byzantine: w.sz.orderingF,
		Adversary: uba.AdversarySilent,
		Seed:      w.seed,
	}
}

// newSession boots a fresh cluster with the run's inputs.
func (w *orderingRun) newSession() error {
	oc, err := uba.NewOrderingCluster(w.config())
	if err != nil {
		return err
	}
	w.oc = oc
	w.founders = oc.Members()
	w.members = append([]uint64(nil), w.founders...)
	w.joiners = nil
	w.values = rand.New(rand.NewSource(w.seed))
	w.op = 0
	w.final = map[uint64]uint64{}
	return nil
}

func (w *orderingRun) setup() error {
	if err := w.newSession(); err != nil {
		return err
	}
	w.call()
	if _, fails := w.check(); len(fails) > 0 {
		return fmt.Errorf("warm-up op: %s", fails[0])
	}
	return nil
}

func (w *orderingRun) call() { w.err = orderingOp(w.op, w.sz, w.values, w.handle) }

// orderingHandle is the part of a cluster one ordering op drives, so the
// facade loop and the traced replica run the identical op sequence.
type orderingHandle struct {
	join, leave func() error
	joiners     func() int
	submit      func(founder int, value float64) error
	round       func() error
}

// orderingOp runs op number op of a session: churn when due, one event
// submission, one round.
func orderingOp(op int, sz sizes, values *rand.Rand, h orderingHandle) error {
	if op > 0 && op%sz.joinEvery == 0 {
		if err := h.join(); err != nil {
			return fmt.Errorf("join: %w", err)
		}
	}
	if op%sz.joinEvery == sz.leaveAfter && h.joiners() > 0 {
		if err := h.leave(); err != nil {
			return fmt.Errorf("leave: %w", err)
		}
	}
	if err := h.submit(op%sz.orderingG, float64(values.Intn(1_000_000))); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	return h.round()
}

func (w *orderingRun) check() (int, []string) {
	bad := w.verify()
	w.op++
	if w.op == w.sz.sessionOps {
		if bad == "" {
			bad = w.verifySession()
		}
		w.oc.Close()
		w.sessions++
		if err := w.newSession(); err != nil && bad == "" {
			bad = "ordering: new session: " + err.Error()
		}
	}
	if bad != "" {
		return 1, []string{bad}
	}
	return 1, nil
}

// verify labels the first check the last op fails, or returns "". It
// allocates nothing, so the next call's allocation count stays its own.
func (w *orderingRun) verify() string {
	if w.err != nil {
		return fmt.Sprintf("ordering: op %d: %v", w.op, w.err)
	}
	for _, m := range w.members {
		f, err := w.oc.FinalizedThrough(m)
		if err != nil {
			return "ordering: " + err.Error()
		}
		if f < w.final[m] {
			return fmt.Sprintf("ordering: op %d: member %d FinalizedThrough fell from %d to %d", w.op, m, w.final[m], f)
		}
		w.final[m] = f
	}
	return ""
}

// verifySession checks a finished session: one round per op, the same
// simulated counts op by op as the first session, and consistent
// chains.
func (w *orderingRun) verifySession() string {
	rep := w.oc.Report()
	w.lastReport = rep
	if rep.Rounds != w.sz.sessionOps {
		return fmt.Sprintf("ordering: session ran %d rounds in %d ops", rep.Rounds, w.sz.sessionOps)
	}
	if w.sessions == 0 {
		w.ref = rep.PerRound
	} else if !slices.Equal(rep.PerRound, w.ref) {
		return "ordering: simulated counts differ from the first session's"
	}
	return w.verifyChains()
}

// verifyChains checks that every member's finalized chain is consistent
// with the longest founder chain: founders hold a prefix of it, joiners
// a contiguous run of it starting at their first finalized round.
func (w *orderingRun) verifyChains() string {
	chains := map[uint64][]uba.Event{}
	var ref []uba.Event
	for _, m := range w.members {
		c, err := w.oc.Chain(m)
		if err != nil {
			return "ordering: " + err.Error()
		}
		chains[m] = c
		if len(c) > len(ref) {
			ref = c
		}
	}
	w.lastChains = chains
	if len(ref) == 0 {
		return "ordering: no member finalized an event"
	}
	for _, m := range w.members {
		if bad := chainConsistent(ref, chains[m]); bad != "" {
			return fmt.Sprintf("ordering: member %d: %s", m, bad)
		}
	}
	return ""
}

// chainConsistent checks that c equals ref from the first entry of ref
// in c's first round on.
func chainConsistent(ref, c []uba.Event) string {
	if len(c) == 0 {
		return ""
	}
	at := 0
	for at < len(ref) && ref[at].Round < c[0].Round {
		at++
	}
	for i, e := range c {
		if at+i >= len(ref) || ref[at+i] != e {
			return fmt.Sprintf("chain entry %d (%+v) disagrees with the reference chain", i, e)
		}
	}
	return ""
}

func (w *orderingRun) close() { w.oc.Close() }

// campaignRun: each call is one chaos.RunCampaign sweep of
// DefaultCampaign with Byzantine-scoped fault plans and Jobs = jobs; one
// op is one cell (arena × seed).
type campaignRun struct {
	cfg   chaos.CampaignConfig
	rep   *chaos.CampaignReport
	err   error
	cells map[cellKey]int // rounds each cell ran, from the campaign log
	ref   map[cellKey]int // cell rounds of the warm-up sweep
}

type cellKey struct {
	arena chaos.Arena
	seed  int64
}

// cleanLine is the format RunCampaign logs a clean cell with.
const cleanLine = "chaos %v seed=%d: clean after %d rounds"

func newCampaignRun(sz sizes, seed int64, jobs int) workload {
	return &campaignRun{cfg: campaignConfig(sz, seed, jobs)}
}

// campaignConfig is the benchmark's campaign. RunCampaign numbers its
// cells' seeds 1..Seeds itself, so the workload seed only permutes the
// arena order, which changes the order cells are dispatched in and not
// the work of any cell.
func campaignConfig(sz sizes, seed int64, jobs int) chaos.CampaignConfig {
	cfg := chaos.DefaultCampaign()
	cfg.Seeds = sz.campaignSeeds
	cfg.MaxRounds = sz.campaignRounds
	cfg.Faults = chaos.FaultsByzantine
	cfg.Jobs = jobs
	rand.New(rand.NewSource(seed)).Shuffle(len(cfg.Arenas), func(i, j int) {
		cfg.Arenas[i], cfg.Arenas[j] = cfg.Arenas[j], cfg.Arenas[i]
	})
	return cfg
}

func (w *campaignRun) setup() error {
	full := w.cfg
	w.cfg.Seeds = 1
	w.call()
	_, fails := w.check()
	w.cfg, w.ref = full, nil
	if len(fails) > 0 {
		return fmt.Errorf("warm-up sweep: %s", fails[0])
	}
	return nil
}

func (w *campaignRun) call() {
	w.cells = make(map[cellKey]int, len(w.cfg.Arenas)*w.cfg.Seeds)
	w.rep, w.err = chaos.RunCampaign(w.cfg, w.logf)
}

// logf records each clean cell's round count. RunCampaign serializes
// logf calls under its own mutex.
func (w *campaignRun) logf(format string, args ...any) {
	if format == cleanLine {
		w.cells[cellKey{args[0].(chaos.Arena), args[1].(int64)}] = args[2].(int)
	}
}

func (w *campaignRun) check() (int, []string) {
	want := len(w.cfg.Arenas) * w.cfg.Seeds
	if w.err != nil {
		return want, []string{"campaign: " + w.err.Error()}
	}
	var fails []string
	for _, e := range w.rep.Errors {
		fails = append(fails, "campaign: cell error: "+e)
	}
	for _, r := range w.rep.Repros {
		fails = append(fails, fmt.Sprintf("campaign: %v seed=%d: oracle %s fired in round %d",
			r.ShrunkFrom.Arena, r.ShrunkFrom.Seed, r.Violation.Oracle, r.Violation.Round))
	}
	if w.rep.Runs != want {
		fails = append(fails, fmt.Sprintf("campaign: %d cells ran, want %d", w.rep.Runs, want))
	}
	if len(fails) == 0 {
		if w.ref == nil {
			w.ref = w.cells
		} else if !reflect.DeepEqual(w.ref, w.cells) {
			fails = append(fails, "campaign: cell round counts differ from the first sweep")
		}
	}
	return want, fails
}

func (w *campaignRun) close() {}
