package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runTiny runs one workload at smoke-test sizes and returns its result line.
func runTiny(t *testing.T, cfg config) resultJSON {
	t.Helper()
	cfg.seed, cfg.window, cfg.tiny, cfg.outDir = 1, time.Second, true, t.TempDir()
	var out bytes.Buffer
	if err := run(context.Background(), cfg, &out); err != nil {
		t.Fatalf("%s trace=%v: %v", cfg.workload, cfg.trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%v: last line is not a result: %v", cfg.workload, cfg.trace, err)
	}
	return res
}

// TestEveryMetricPrinted runs every workload of BENCHMARK.json untraced and
// traced, and checks that each names exactly the metrics of its kind, with
// their units, and that the seed code's outputs check out.
func TestEveryMetricPrinted(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			res := runTiny(t, config{workload: w.Name, trace: trace})
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}

// TestCorruptReferenceFails proves the output checks bite: with the
// reference perturbed at set-up, every workload must report failures.
func TestCorruptReferenceFails(t *testing.T) {
	for _, w := range loadSpec(t).Workloads {
		res := runTiny(t, config{workload: w.Name, corruptReference: true})
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted reference went unnoticed: correct=%v failed=%d of %d", w.Name, res.Correct, res.Failed, res.Attempted)
		}
		if sr := res.Metrics["success_rate"].Value; sr >= 1 {
			t.Errorf("%s: success_rate %v with a corrupted reference", w.Name, sr)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Op: 1, Name: "client.op", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Op: 1, Name: "fastod.run", Start: 1 * ms, End: 9 * ms},
		{ID: 3, Parent: 2, Op: 1, Name: "lattice.level.1", Start: 2 * ms, End: 5 * ms},
		{ID: 4, Parent: 2, Op: 1, Name: "lattice.level.2", Start: 4 * ms, End: 7 * ms},
	}
	got := selfTimes(spans)
	want := map[string]float64{"client": 2, "fastod": 3, "lattice": 6}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %v ms, want %v", k, got[k], v)
		}
	}
}
