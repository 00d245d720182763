package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// smokeSpecs is the perf-smoke subset: the n=256 full-round and
// phase-split benchmarks at both worker-axis points (workers=1 and the
// default cap), plus the route-only rows at
// the two sizes the zero-alloc gate certifies (n=1024, n=4096) — the
// allocs/op band on those rows is the perf-trajectory counterpart of
// the //lint:noalloc contract, so an allocation creeping back into the
// certified route path fails the smoke even where the AllocsPerRun
// gate is not running. The plan=idle route rows re-pin the same band
// with a fault plan attached but never live, so plan presence staying
// free on a healthy round (0 allocs/op, flat ns/op) is part of the
// smoke contract. The observed route rows (n=4096, a no-op observer
// attached) pin the price of an observer that reads no deliveries: the
// smoke also divides each by its unobserved twin from the same run and
// fails above maxObservedRatio. The campaign row (4 concurrent
// simulations at the perf-gate size, 4 pinned procs) covers the shared
// scheduler's admission path the same way: its allocs/op band certifies that
// multiplexing simulations adds no per-op allocations, and its ns/op
// band catches a regression in the dispatch or fairness machinery.
// Small enough to finish in seconds on a CI runner, broad enough that
// a regression in either phase, at either cap, or in the campaign layer
// moves at least one row.
func smokeSpecs() []benchSpec {
	var specs []benchSpec
	for _, runner := range runners {
		specs = append(specs, roundSpec(runner, 256))
		for _, phase := range []string{"step", "route"} {
			specs = append(specs, phaseSpec(phase, runner, 256))
		}
		for _, n := range []int{1024, 4096} {
			specs = append(specs, phaseSpec("route", runner, n))
		}
		specs = append(specs, planPhaseSpec("route", runner, 1024, true))
		specs = append(specs, observedRouteSpec(runner, 4096))
	}
	specs = append(specs, procsSpec(campaignSpec(4, 256), 4))
	return specs
}

// maxObservedRatio bounds an observed row's ns/op over its unobserved
// twin's, both measured in the same smoke run (so host speed cancels
// out; see ratioPairs). Deliveries reach observers through a lazy view, so attaching an
// observer that never ranges over it must leave the route phase
// essentially as fast as running unobserved; a per-delivery cost
// creeping back into the dispatch shows up as a ratio of 10× or more.
const maxObservedRatio = 1.2

// allocSlack is the absolute allocs/op headroom added on top of the
// relative band: allocation counts are deterministic for this engine,
// but the testing harness itself can contribute a couple of allocations
// at low iteration counts, and a zero baseline row would otherwise
// admit no slack at all.
const allocSlack = 2

// runPerfSmoke re-measures the smoke subset and diffs it against the
// committed baseline, enforcing a per-row tolerance band on ns/op AND
// on allocs/op. Timing gets a wide band (nsTol, default +50%) because
// shared CI runners are noisy; allocation counts get a tight band
// (allocTol + allocSlack) because they are schedule-independent — an
// allocs/op regression is a real code change, not jitter.
//
// A row outside either band fails the run unless warnOnly is set — the
// one-flag escape hatch (-warn-only) for landing a change whose cost is
// understood before the baseline is regenerated.
func runPerfSmoke(baselinePath string, nsTol, allocTol float64, warnOnly bool, out io.Writer) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("perf smoke: %w", err)
	}
	var baseline engineBenchFile
	if err := json.Unmarshal(data, &baseline); err != nil {
		return fmt.Errorf("perf smoke: parsing %s: %w", baselinePath, err)
	}
	fmt.Fprintf(out, "perf smoke vs %s (baseline %s gomaxprocs=%d; here %s gomaxprocs=%d; bands ns/op +%.0f%%, allocs/op +%.0f%%+%d)\n",
		baselinePath, baseline.GoVersion, baseline.GOMAXPROCS,
		runtime.Version(), runtime.GOMAXPROCS(0), nsTol*100, allocTol*100, allocSlack)
	violations, err := perfSmokeDiff(baseline, smokeSpecs(), nsTol, allocTol, out)
	if err != nil {
		return err
	}
	if violations == 0 {
		fmt.Fprintln(out, "perf smoke: all benchmarks within tolerance")
		return nil
	}
	if warnOnly {
		fmt.Fprintf(out, "perf smoke: %d row(s) out of tolerance — -warn-only set, build not failed; regenerate the baseline with `make bench-json` if the change is intentional\n",
			violations)
		return nil
	}
	return fmt.Errorf("perf smoke: %d row(s) out of tolerance; regenerate the baseline with `make bench-json` if the change is intentional, or pass -warn-only to land first and re-baseline after",
		violations)
}

// perfSmokeDiff measures each spec and reports its ns/op and allocs/op
// deltas against the baseline row of the same name, returning how many
// rows broke their band.
func perfSmokeDiff(baseline engineBenchFile, specs []benchSpec, nsTol, allocTol float64, out io.Writer) (int, error) {
	byName := make(map[string]engineBenchResult, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		byName[b.Name] = b
	}
	violations := 0
	measured := make(map[string]engineBenchResult, len(specs))
	for _, spec := range specs {
		r, err := measure(spec)
		if err != nil {
			return violations, fmt.Errorf("perf smoke: %w", err)
		}
		measured[r.Name] = r
		base, ok := byName[r.Name]
		if !ok {
			fmt.Fprintf(out, "%-40s %12.0f ns/op   (no baseline row; skipped)\n", r.Name, r.NsPerOp)
			continue
		}
		nsDelta := (r.NsPerOp - base.NsPerOp) / base.NsPerOp
		allocBand := float64(base.AllocsPerOp)*(1+allocTol) + allocSlack
		verdict := "ok"
		switch {
		case nsDelta > nsTol && float64(r.AllocsPerOp) > allocBand:
			verdict = "FAIL: ns/op and allocs/op over band"
			violations++
		case nsDelta > nsTol:
			verdict = "FAIL: ns/op over band"
			violations++
		case float64(r.AllocsPerOp) > allocBand:
			verdict = "FAIL: allocs/op over band"
			violations++
		}
		fmt.Fprintf(out, "%-40s %12.0f ns/op (base %12.0f, %+7.1f%%)  %6d allocs/op (band %6.0f)  %s\n",
			r.Name, r.NsPerOp, base.NsPerOp, nsDelta*100, r.AllocsPerOp, allocBand, verdict)
	}
	ratioViolations, err := observedRatios(specs, measured, measure, out)
	return violations + ratioViolations, err
}

// ratioPairs is how many (unobserved, observed) measurements the ratio
// gate compares per observed row: the pair the band check already took
// plus ratioPairs-1 interleaved re-measurements. Shared runners swing
// single measurements by ±20%; the minimum of each side over several
// pairs cancels that drift, where one pair would make a 1.2× bound
// flaky.
const ratioPairs = 3

// observedRatios compares every observed spec with its unobserved twin
// (the same name without the "/observed" suffix): starting from the
// band check's measurements of both, it takes ratioPairs-1 more
// alternating pairs, prints the ratio of the two sides' fastest ns/op,
// and returns how many exceed maxObservedRatio. An observed spec whose
// twin is not in specs is reported and counted: the gate must not pass
// by omission.
func observedRatios(specs []benchSpec, measured map[string]engineBenchResult, measure func(benchSpec) (engineBenchResult, error), out io.Writer) (int, error) {
	byName := make(map[string]benchSpec, len(specs))
	for _, spec := range specs {
		byName[spec.name] = spec
	}
	violations := 0
	for _, spec := range specs {
		if spec.observer == "" {
			continue
		}
		twinName := strings.TrimSuffix(spec.name, "/observed")
		twin, ok := byName[twinName]
		if !ok {
			fmt.Fprintf(out, "%-40s observed/unobserved: FAIL: no twin row %s\n", spec.name, twinName)
			violations++
			continue
		}
		best := [2]float64{measured[twinName].NsPerOp, measured[spec.name].NsPerOp}
		for p := 1; p < ratioPairs; p++ {
			for side, s := range []benchSpec{twin, spec} {
				r, err := measure(s)
				if err != nil {
					return violations, fmt.Errorf("perf smoke: %w", err)
				}
				best[side] = min(best[side], r.NsPerOp)
			}
		}
		ratio := best[1] / best[0]
		verdict := "ok"
		if ratio > maxObservedRatio {
			verdict = "FAIL: over bound"
			violations++
		}
		fmt.Fprintf(out, "%-40s observed/unobserved %6.2fx (best of %d pairs: %.0f / %.0f ns/op; bound %.2fx)  %s\n",
			spec.name, ratio, ratioPairs, best[1], best[0], maxObservedRatio, verdict)
	}
	return violations, nil
}
