package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// tinySizes runs every workload through the same code at a size that
// takes well under a second per call.
var tinySizes = sizes{
	consensusG: 11, consensusF: 5,
	orderingG: 4, orderingF: 1,
	sessionOps: 30, joinEvery: 10, leaveAfter: 5,
	campaignSeeds: 1, campaignRounds: 120,
	setupReps: 1,
}

// declaredMetrics reads the metric names BENCHMARK.json declares for
// the end-to-end and the traced run.
func declaredMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	if !slices.Equal(workloads, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", workloads, workloadNames())
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func TestWorkloadsSmoke(t *testing.T) {
	endToEnd, perLayer := declaredMetrics(t)
	for _, wl := range workloadNames() {
		for _, traced := range []bool{false, true} {
			name := wl + "/trace=0"
			want := endToEnd
			if traced {
				name, want = wl+"/trace=1", perLayer
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				res, err := bench(options{workload: wl, seed: defaultSeed, seconds: 0.3, trace: traced}, tinySizes, &out)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.failures) > 0 || res.attempted < 1 {
					t.Fatalf("attempted %d, failures %q", res.attempted, res.failures)
				}
				if err := printResult(&out, res); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !last.Correct || last.Failed != 0 || last.Attempted != res.attempted {
					t.Fatalf("result line %+v", last)
				}
				var got []string
				for k, m := range last.Metrics {
					got = append(got, k)
					if m.Unit == "" {
						t.Errorf("metric %s has no unit", k)
					}
				}
				slices.Sort(got)
				want = slices.Sorted(slices.Values(want))
				if !slices.Equal(got, want) {
					t.Fatalf("metrics %v, BENCHMARK.json declares %v", got, want)
				}
				if !traced {
					for k, m := range last.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", k, m.Value)
						}
					}
				}
			})
		}
	}
}

func TestJobsAboveNprocRefused(t *testing.T) {
	if _, err := checkJobs(runtime.NumCPU() + 1); err == nil {
		t.Fatal("jobs > nproc accepted")
	}
	if jobs, err := checkJobs(0); err != nil || jobs != runtime.NumCPU() {
		t.Fatalf("checkJobs(0) = %d, %v; want nproc", jobs, err)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "ordering-n32", "--trace", "2"},
		{"--workload", "ordering-n32", "--seconds", "-1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("run(%q) exited 0", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%q) printed %q", args, stdout.String())
		}
	}
}
