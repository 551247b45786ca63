package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"tlc/internal/experiment"
)

// benchmarkFile is the contract file's metric lists.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestContractMatchesCode keeps BENCHMARK.json and the metric tables
// here in step: every contract workload is one the code runs, and the
// metrics have the same names, units and directions, in order.
func TestContractMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) == 0 {
		t.Error("BENCHMARK.json lists no workload")
	}
	for _, w := range bf.Workloads {
		if _, ok := workloadFuncs[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not one of %v", w.Name, allWorkloads)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, code has %s/%s/%s",
					kind, i, m.Name, m.Unit, m.Better, w.name, w.unit, w.better)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// TestPinnedValuesAreSequential re-derives the pinned simulator outputs
// from the sequential path, so the pins cannot drift from the code.
func TestPinnedValuesAreSequential(t *testing.T) {
	city, err := cityRep(cityConfig(cityDuration, 0))
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkPinned(city, cityPinned, cityPinnedText); bad != "" {
		t.Errorf("city sequential path: %s", bad)
	}
	res := experiment.Table2(testbedOptions(testbedDuration, 0))
	if bad := checkPinned(simRep{metrics: res.Metrics, text: res.Text}, testbedPinned, testbedPinnedText); bad != "" {
		t.Errorf("testbed sequential path: %s", bad)
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced,
// and asserts each named metric is emitted and finite, and non-zero
// wherever the workload does the work it measures, so an instrument
// cannot silently go dead.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range allWorkloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var stdout bytes.Buffer
				args := []string{"--workload", w, "--seed", "3", "--seconds", "1", "--trace", trace, "--out", t.TempDir()}
				if code := run(args, &stdout); code != 0 {
					t.Fatalf("exit %d:\n%s", code, stdout.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res jsonResult
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				specs := endToEnd
				if trace == "1" {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := res.Metrics[s.name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", s.name)
					case m.Unit != s.unit:
						t.Errorf("%s unit %q, want %q", s.name, m.Unit, s.unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s = %v", s.name, m.Value)
					case m.Value == 0 && needed(s, w):
						t.Errorf("%s reads 0 although %s does its work", s.name, w)
					}
				}
			})
		}
	}
}

// TestUnknownWorkloadFails checks the result line is withheld for an
// unknown workload.
func TestUnknownWorkloadFails(t *testing.T) {
	var stdout bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile([]float64{1, 2, math.Inf(1)}, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with a failure = %v, want +Inf", got)
	}
}

func TestFoldProfileGroups(t *testing.T) {
	for fn, want := range map[string]string{
		"tlc/internal/session.(*Engine).drain":             "session",
		"tlc/internal/sim.(*Scheduler).Step":               "sim",
		"tlc/internal/stats.(*Sample).Add":                 "other",
		"crypto/internal/fips140/bigmod.(*Nat).montgomery": "crypto",
		"internal/poll.(*FD).Write":                        "syscall",
		"runtime.mallocgc":                                 "runtime",
		"main.run":                                         "other",
	} {
		if got := packageGroup(fn); got != want {
			t.Errorf("packageGroup(%q) = %q, want %q", fn, got, want)
		}
	}
}
