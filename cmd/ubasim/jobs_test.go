package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"uba/internal/chaos"
)

// TestRunJobsOutputIdentical pins the -jobs determinism contract: the
// flag only rebudgets the shared simulation scheduler, so a protocol
// run prints the identical report for every budget — whether its round
// pipeline runs sequentially (GOMAXPROCS=1: a default worker cap of 1,
// every phase inline) or concurrently (GOMAXPROCS=4: phases dispatched
// over the scheduler). It changes GOMAXPROCS, so it must not run in
// parallel with other tests.
func TestRunJobsOutputIdentical(t *testing.T) {
	for _, mode := range []struct {
		name  string
		procs int
	}{{"sequential", 1}, {"concurrent", 4}} {
		t.Run(mode.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(mode.procs))
			base := []string{"-protocol", "consensus", "-g", "7", "-f", "2", "-adversary", "split", "-seed", "3"}
			var baseline bytes.Buffer
			if err := run(base, &baseline); err != nil {
				t.Fatal(err)
			}
			for _, jobs := range []string{"1", "2", "4"} {
				var buf bytes.Buffer
				if err := run(append(append([]string{}, base...), "-jobs", jobs), &buf); err != nil {
					t.Fatal(err)
				}
				if buf.String() != baseline.String() {
					t.Fatalf("-jobs %s output diverged:\n got: %q\nwant: %q", jobs, buf.String(), baseline.String())
				}
			}
		})
	}
}

// TestRunReproJobsOutputIdentical replays the same shrunk repro under
// several scheduler budgets; the replay verdict and every printed line
// must be identical.
func TestRunReproJobsOutputIdentical(t *testing.T) {
	s := chaos.Scenario{
		Arena:     chaos.ArenaConsensus,
		Correct:   6,
		Seed:      1,
		MaxRounds: 30,
		Twin:      chaos.TwinEarlyDecide,
		Slots: []chaos.SlotSpec{
			{Strategy: chaos.StrategySplitVoter},
			{Strategy: chaos.StrategySilent},
		},
	}
	out, err := chaos.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) == 0 {
		t.Skip("planted scenario did not fire; nothing to replay")
	}
	repro := chaos.Repro{Scenario: s, Violation: out.Violations[0], ShrunkFrom: s}
	data, err := chaos.EncodeRepro(repro)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var baseline bytes.Buffer
	if err := run([]string{"-repro", path}, &baseline); err != nil {
		t.Fatalf("%v\n%s", err, baseline.String())
	}
	for _, jobs := range []string{"1", "3"} {
		var buf bytes.Buffer
		if err := run([]string{"-jobs", jobs, "-repro", path}, &buf); err != nil {
			t.Fatalf("-jobs %s: %v\n%s", jobs, err, buf.String())
		}
		if buf.String() != baseline.String() {
			t.Fatalf("-jobs %s replay diverged:\n got: %q\nwant: %q", jobs, buf.String(), baseline.String())
		}
	}
}

func TestRunRejectsNegativeJobs(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-jobs", "-1"}, &buf); err == nil {
		t.Fatal("negative -jobs accepted")
	}
}
