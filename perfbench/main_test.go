package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestSmallRuns is the benchmark's self-test: every workload, end-to-end
// and traced, at the -small size, must pass its gates and report exactly
// its metrics.
func TestSmallRuns(t *testing.T) {
	for _, s := range specs {
		for _, trace := range []string{"0", "1"} {
			t.Run(s.name+"/trace"+trace, func(t *testing.T) {
				var out, stderr bytes.Buffer
				args := []string{"--workload", s.name, "--small", "--seconds", "0", "--trace", trace, "--trace-dir", t.TempDir()}
				if code := run(args, &out, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var cfg struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(cfg.Workloads), len(specs))
	}
	for i, w := range cfg.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in code", i, w.Name, specs[i].name)
		}
	}
	for _, c := range []struct {
		json []named
		code []metricDef
	}{{cfg.EndToEnd, endToEnd}, {cfg.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("%d metrics in BENCHMARK.json, %d in code", len(c.json), len(c.code))
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("metric %d: %s %s in BENCHMARK.json, %s %s in code", i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "dense", "--trace", "2"},
		{"--no-such-flag"},
	} {
		var out, stderr bytes.Buffer
		if code := run(args, &out, &stderr); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q", args, out.String())
		}
	}
}
