// Command perfbench is the repository benchmark. It generates a
// workload's request stream from a seed, matches it through the public
// API (exp.BuildWorld, exp.World.NewOracle, dispatch.New, Engine.Submit,
// and ingest.Gateway for the paced workload), checks the results, and
// prints the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced pass (--trace 1). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Run from the repository root:
//
//	bash perfbench/run.sh --workload dense --seed 105 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	spec      spec
	seed      int64
	fleetSeed int64
	seconds   float64
	traced    bool
	traceDir  string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "dense, city-offpeak, paced, or all (every workload, end-to-end and traced, each in its own process)")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("workload seed: the request stream (held-out seed for gain claims: %d)", heldOutSeed))
	fleetSeed := fs.Int64("fleet-seed", defaultFleetSeed, "fleet seed: vehicle placement and idle cruising")
	seconds := fs.Float64("seconds", 20, "closed-loop passes repeat until this much time is measured (at least two passes)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from traced passes")
	traceDir := fs.String("trace-dir", "traces", "directory for the traced pass's span JSONL (readable by cmd/tracetool)")
	small := fs.Bool("small", false, "shrink every workload to a few seconds (self-test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *name == "all" {
		common := []string{"--seed", fmt.Sprint(*seed), "--fleet-seed", fmt.Sprint(*fleetSeed),
			"--seconds", fmt.Sprint(*seconds), "--trace-dir", *traceDir, fmt.Sprintf("--small=%v", *small)}
		return runAll(common, stdout, stderr)
	}
	s, err := lookup(*name)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if *small {
		s = s.shrink()
	}
	o := options{spec: s, seed: *seed, fleetSeed: *fleetSeed, seconds: *seconds, traced: *trace == 1, traceDir: *traceDir}
	res, err := measure(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", s.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runAll runs every workload, untraced then traced, each in a child
// process so peak_rss_mb is per workload, and passes their output on.
func runAll(common []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	status := 0
	for _, s := range specs {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(self, append([]string{"--workload", s.name, "--trace", trace}, common...)...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "perfbench: %s --trace %s: %v\n", s.name, trace, err)
				status = 1
			}
		}
	}
	return status
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs one workload and prints the human-readable report.
func measure(o options, w io.Writer) (*result, error) {
	s := o.spec
	reqs, err := inputs(s, o.seed, s.requests)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d fleet_seed=%d trace=%d requests=%d fleet=%d %s nproc=%d\n",
		s.name, o.seed, o.fleetSeed, btoi(o.traced), len(reqs), s.fleet, runtime.Version(), runtime.NumCPU())
	var r *outcome
	if o.traced {
		r, err = tracedRun(o, reqs)
	} else {
		r, err = endToEndRun(o, reqs)
	}
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	res := &result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not computed", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "  %-28s %14.6g %-6s %s\n", d.name, v, d.unit, d.layer)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if res.Correct {
		fmt.Fprintf(w, "  gates: determinism and correctness hold over %d passes\n", r.passes)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	return res, nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err = strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}

func traceFile(o options) string {
	if o.traceDir == "" {
		return ""
	}
	return filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", o.spec.name, o.seed))
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
