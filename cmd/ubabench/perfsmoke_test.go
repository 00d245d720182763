package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fastSpec is a benchmark spec with a near-free loop body, so the diff
// logic can be tested without paying for a real engine benchmark.
func fastSpec(name string) benchSpec {
	return benchSpec{
		name:   name,
		runner: inlineRunner,
		n:      1,
		bench: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = i
			}
		},
	}
}

// allocSink defeats allocation sinking in allocSpec's loop body.
var allocSink []byte

// allocSpec is a benchmark spec whose loop body performs a fixed number
// of heap allocations, for exercising the allocs/op band.
func allocSpec(name string) benchSpec {
	return benchSpec{
		name:   name,
		runner: inlineRunner,
		n:      1,
		bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := 0; j < 64; j++ {
					allocSink = make([]byte, 1)
				}
			}
		},
	}
}

func TestPerfSmokeDiffVerdicts(t *testing.T) {
	t.Parallel()
	baseline := engineBenchFile{
		Benchmarks: []engineBenchResult{
			// A sub-nanosecond loop body is far below this baseline, so
			// the row lands inside both bands.
			{Name: "fast/ok", NsPerOp: 1e9, AllocsPerOp: 100},
			// And far above this one, so the row must break the ns band.
			{Name: "fast/regressed", NsPerOp: 1e-6, AllocsPerOp: 100},
			// Generous time budget but a near-zero alloc budget: the 64
			// allocations per op break the allocs band on their own.
			{Name: "alloc/regressed", NsPerOp: 1e9, AllocsPerOp: 1},
		},
	}
	specs := []benchSpec{
		fastSpec("fast/ok"),
		fastSpec("fast/regressed"),
		allocSpec("alloc/regressed"),
		fastSpec("fast/unknown"),
	}
	var buf bytes.Buffer
	violations, err := perfSmokeDiff(baseline, specs, 0.5, 0.1, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if violations != 2 {
		t.Fatalf("violations = %d, want 2:\n%s", violations, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"fast/ok", "ok",
		"fast/regressed", "FAIL: ns/op over band",
		"alloc/regressed", "FAIL: allocs/op over band",
		"fast/unknown", "no baseline row",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("diff output missing %q:\n%s", want, out)
		}
	}
}

func TestPerfSmokeDiffAllWithinTolerance(t *testing.T) {
	t.Parallel()
	baseline := engineBenchFile{
		Benchmarks: []engineBenchResult{{Name: "fast/ok", NsPerOp: 1e9}},
	}
	var buf bytes.Buffer
	violations, err := perfSmokeDiff(baseline, []benchSpec{fastSpec("fast/ok")}, 0.5, 0.1, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Fatalf("violations = %d, want 0:\n%s", violations, buf.String())
	}
}

// A band violation fails the run by default and is downgraded to a
// report by the -warn-only escape hatch.
func TestPerfSmokeGateFailsAndWarnOnlyBypasses(t *testing.T) {
	if testing.Short() {
		t.Skip("measures the real n=256 smoke benchmarks")
	}
	t.Parallel()
	path := filepath.Join(t.TempDir(), "baseline.json")
	baseline := engineBenchFile{
		Benchmarks: []engineBenchResult{{Name: smokeSpecs()[0].name, NsPerOp: 1e-6}},
	}
	data, err := json.Marshal(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The baseline holds one row with an impossibly fast ns/op, so the
	// matching smoke spec must break its band; every other measured row
	// has no baseline row and is skipped without counting.
	var buf bytes.Buffer
	if err := runPerfSmoke(path, 0.5, 0.1, false, &buf); err == nil {
		t.Fatalf("band violation did not fail the gate:\n%s", buf.String())
	} else if !strings.Contains(err.Error(), "out of tolerance") {
		t.Fatalf("unexpected gate error: %v", err)
	}
	buf.Reset()
	if err := runPerfSmoke(path, 0.5, 0.1, true, &buf); err != nil {
		t.Fatalf("-warn-only still failed the gate: %v", err)
	}
	if !strings.Contains(buf.String(), "-warn-only set, build not failed") {
		t.Fatalf("warn-only run missing its report line:\n%s", buf.String())
	}
}

func TestPerfSmokeMissingBaseline(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := run([]string{"-perfsmoke", "-baseline", filepath.Join(t.TempDir(), "nope.json")}, &buf); err == nil {
		t.Fatal("missing baseline accepted")
	}
}

func TestPerfSmokeMalformedBaseline(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-perfsmoke", "-baseline", path}, &buf); err == nil {
		t.Fatal("malformed baseline accepted")
	}
}

// The committed baseline must contain every row the smoke subset
// measures, under the exact names the differ looks up — otherwise the
// CI step silently degrades to "no baseline row" skips.
func TestCommittedBaselineCoversSmokeSpecs(t *testing.T) {
	t.Parallel()
	data, err := os.ReadFile("../../BENCH_simnet.json")
	if err != nil {
		t.Fatal(err)
	}
	var baseline engineBenchFile
	if err := json.Unmarshal(data, &baseline); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]bool, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		byName[b.Name] = true
	}
	for _, spec := range smokeSpecs() {
		if !byName[spec.name] {
			t.Errorf("baseline has no row for smoke spec %q", spec.name)
		}
	}
}
