// Command ubasim runs a single protocol instance of the library and
// prints its outcome and traffic report.
//
// Usage:
//
//	ubasim -protocol consensus -g 7 -f 2 -adversary split -seed 3
//	ubasim -protocol rotor -g 10 -f 3 -adversary ghost
//	ubasim -protocol approx -g 7 -f 2 -adversary split
//	ubasim -protocol rb -g 7 -f 2
//	ubasim -protocol trb -g 7 -f 2
//	ubasim -protocol renaming -g 9 -f 2 -adversary ghost
//	ubasim -protocol vector -g 7 -f 2
//	ubasim -protocol impossibility -timing async
//	ubasim -repro shrunk.json
//
// With -repro, ubasim replays a minimized chaos repro file (produced by
// `ubasweep -chaos` or internal/chaos.Shrink) and reports whether the
// recorded oracle violation reproduces.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"uba"
	"uba/internal/chaos"
	"uba/internal/simnet/sched"
	"uba/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ubasim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ubasim", flag.ContinueOnError)
	protocol := fs.String("protocol", "consensus", "consensus|rotor|rb|trb|approx|renaming|vector|impossibility")
	g := fs.Int("g", 7, "number of correct nodes")
	f := fs.Int("f", 2, "number of Byzantine nodes")
	advName := fs.String("adversary", "silent", "none|silent|crash|split|ghost|noise")
	seed := fs.Int64("seed", 1, "deterministic seed")
	timing := fs.String("timing", "async", "impossibility timing: sync|semisync|async")
	traceRounds := fs.Int("trace", 0, "print a message transcript of the first N rounds")
	reproPath := fs.String("repro", "", "replay a chaos repro JSON file and exit")
	jobs := fs.Int("jobs", 0, "worker budget of the shared simulation scheduler (0 = GOMAXPROCS); output is identical for every value")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jobs < 0 {
		return fmt.Errorf("-jobs must be >= 0")
	}
	if *jobs > 0 {
		// Bound the process-wide scheduler: every simulation in this
		// process — every round's step and route phases, a -repro replay —
		// draws from this one budget, so jobs×workers cannot
		// oversubscribe the machine.
		sched.SetDefaultBudget(*jobs)
	}
	if *reproPath != "" {
		return replayRepro(*reproPath, out)
	}

	adv, err := uba.ParseAdversary(*advName)
	if err != nil {
		return err
	}
	cfg := uba.Config{
		Correct: *g, Byzantine: *f, Adversary: adv,
		Seed: *seed,
	}
	var transcript *trace.EventLog
	if *traceRounds > 0 {
		transcript = trace.NewEventLog(0)
		cfg.EventLog = transcript
	}
	defer func() {
		if transcript != nil {
			fmt.Fprintln(out, "--- transcript ---")
			_ = transcript.Render(out, *traceRounds)
		}
	}()
	fmt.Fprintf(out, "n=%d (g=%d, f=%d)  adversary=%v  seed=%d  resilient(n>3f)=%v\n",
		cfg.N(), *g, *f, adv, *seed, cfg.Resilient())

	switch *protocol {
	case "consensus":
		inputs := make([]float64, *g)
		for i := range inputs {
			inputs[i] = float64(i % 2)
		}
		res, err := uba.Consensus(cfg, inputs)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "decision=%v rounds=%d\n%v\n", res.Decision, res.Rounds, res.Report)
	case "rotor":
		res, err := uba.Rotor(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "rounds=%d goodRound=%d coordinators=%d\n%v\n",
			res.Rounds, res.GoodRound, len(res.Coordinators), res.Report)
	case "rb":
		res, err := uba.ReliableBroadcast(cfg, []byte("payload"), 8)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "allAccepted=%v acceptRounds=%v\n%v\n",
			res.AllAccepted, res.AcceptRounds, res.Report)
	case "trb":
		res, err := uba.TerminatingBroadcast(cfg, []byte("payload"), true)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "delivered=%v body=%q rounds=%d\n%v\n",
			res.Delivered, res.Body, res.Rounds, res.Report)
	case "approx":
		inputs := make([]float64, *g)
		for i := range inputs {
			inputs[i] = float64(i * 10)
		}
		res, err := uba.ApproximateAgreement(cfg, inputs)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "inputs=[%v,%v] outputs=[%v,%v] ratio=%.3f\n%v\n",
			res.InputLo, res.InputHi, res.OutputLo, res.OutputHi, res.RangeRatio(), res.Report)
	case "renaming":
		res, err := uba.Renaming(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "rounds=%d setSize=%d\n", res.Rounds, res.SetSize)
		type entry struct {
			id   uint64
			name int
		}
		entries := make([]entry, 0, len(res.Names))
		for id, name := range res.Names {
			entries = append(entries, entry{id, name})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
		for _, e := range entries {
			fmt.Fprintf(out, "  %d -> %d\n", e.id, e.name)
		}
		fmt.Fprintf(out, "%v\n", res.Report)
	case "vector":
		inputs := make([]float64, *g)
		for i := range inputs {
			inputs[i] = float64(i * 100)
		}
		res, err := uba.InteractiveConsistency(cfg, inputs)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "rounds=%d vector entries=%d\n", res.Rounds, len(res.Vector))
		for _, e := range res.Vector {
			fmt.Fprintf(out, "  node %d -> %g\n", e.Node, e.Value)
		}
		fmt.Fprintf(out, "%v\n", res.Report)
	case "impossibility":
		var model uba.TimingModel
		switch *timing {
		case "sync":
			model = uba.TimingSynchronous
		case "semisync":
			model = uba.TimingSemiSync
		case "async":
			model = uba.TimingAsync
		default:
			return fmt.Errorf("unknown timing %q", *timing)
		}
		res, err := uba.ImpossibilityDemo(model, *g, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "model=%v agreement=%v decisions=%d\n", model, res.Agreement, len(res.Decisions))
	default:
		return fmt.Errorf("unknown protocol %q", *protocol)
	}
	return nil
}

// replayRepro loads a minimized chaos repro and re-runs its scenario.
// Exit status is non-zero when the recorded oracle does not fire again
// (which, scenarios being deterministic, indicates the repro file does
// not match the library version).
func replayRepro(path string, out io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	repro, err := chaos.DecodeRepro(data)
	if err != nil {
		return err
	}
	s := repro.Scenario
	fmt.Fprintf(out, "repro: arena=%v g=%d f=%d seed=%d maxRounds=%d",
		s.Arena, s.Correct, len(s.Slots), s.Seed, s.MaxRounds)
	if s.Twin != "" {
		fmt.Fprintf(out, " twin=%s", s.Twin)
	}
	fmt.Fprintln(out)
	for i, slot := range s.Slots {
		fmt.Fprintf(out, "  slot %d: %s", i, slot.Strategy)
		if slot.Seed != 0 {
			fmt.Fprintf(out, " seed=%d", slot.Seed)
		}
		if slot.Crash != 0 {
			fmt.Fprintf(out, " crashAfter=%d", slot.Crash)
		}
		fmt.Fprintln(out)
	}
	if s.Faults != nil {
		fmt.Fprintf(out, "  faults: seed=%d\n", s.Faults.Seed)
		for _, e := range s.Faults.Events {
			fmt.Fprintf(out, "    round %d: %s", e.Round, e.Kind)
			if len(e.Groups) > 0 {
				fmt.Fprintf(out, " groups=%v", e.Groups)
			}
			if e.Node != 0 {
				fmt.Fprintf(out, " node=%d", e.Node)
			}
			if e.From != 0 {
				fmt.Fprintf(out, " from=%d", e.From)
			}
			if e.To != 0 {
				fmt.Fprintf(out, " to=%d", e.To)
			}
			if e.Rate != 0 {
				fmt.Fprintf(out, " rate=%g", e.Rate)
			}
			if e.SendQuota != 0 || e.ByteQuota != 0 {
				fmt.Fprintf(out, " sendQuota=%d byteQuota=%d", e.SendQuota, e.ByteQuota)
			}
			fmt.Fprintln(out)
		}
	}
	fmt.Fprintf(out, "expected: %s at round %d: %s\n",
		repro.Violation.Oracle, repro.Violation.Round, repro.Violation.Detail)
	outcome, err := repro.Replay()
	if err != nil {
		return err
	}
	v, _ := outcome.Fired(repro.Violation.Oracle)
	fmt.Fprintf(out, "replayed: %s at round %d: %s\n", v.Oracle, v.Round, v.Detail)
	if v != repro.Violation {
		return fmt.Errorf("replayed violation differs from recorded one")
	}
	fmt.Fprintln(out, "verdict reproduced")
	return nil
}
