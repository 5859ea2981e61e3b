// Command perfbench is the repository benchmark: it drives the porting
// pipeline, the incremental daemon and the checker/weakener/stress
// loop through their public Go functions on inputs generated from a
// seed, checks every output against references that do not come from
// the code under test, and prints every metric by name with its unit.
// README.md holds the metric catalog and the workload definitions.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload port-cold --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; the end-to-end metrics
// untraced (--trace 0), the per-layer metrics traced (--trace 1). A
// readable report, host facts included, goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(Config) (*Result, error){
	"port-cold":       runPortCold,
	"serve-edit":      runServeEdit,
	"verify-optimize": runVerifyOptimize,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: port-cold, serve-edit or verify-optimize")
	seed := fs.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Float64("seconds", 25, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
	outDir := fs.String("out", ".", "directory for the traced run's trace file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (port-cold|serve-edit|verify-optimize), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	cfg := defaultConfig(*seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if cfg.Trace {
		cfg.TracePath = filepath.Join(*outDir, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
	}
	res, err := runWorkload(runner, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	report(stderr, res, cfg)
	line, err := resultLine(res, cfg.Trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runWorkload checks the host facts, runs the workload and records the
// peak RSS.
func runWorkload(runner func(Config) (*Result, error), cfg Config) (*Result, error) {
	if err := hostFacts(cfg, cfg.Clients).check(); err != nil {
		return nil, err
	}
	res, err := runner(cfg)
	if err != nil {
		return nil, err
	}
	res.Metrics["peak_rss_mb"] = peakRSSMB()
	if res.tracer != nil {
		res.op(writeTrace(res.tracer, cfg.TracePath))
	}
	if res.Attempted > 0 {
		res.Detail["error_rate"] = float64(res.Failed) / float64(res.Attempted)
	}
	return res, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the final JSON line with exactly the catalog's
// metrics for the run kind. A layer the workload leaves idle reports 0;
// a missing end-to-end metric is a benchmark bug.
func resultLine(res *Result, traced bool) ([]byte, error) {
	ms := map[string]metricValue{}
	for _, m := range metricsFor(traced) {
		v, ok := res.Metrics[m.Name]
		if !ok && m.EndToEnd {
			return nil, fmt.Errorf("workload did not measure end-to-end metric %s", m.Name)
		}
		ms[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Failed == 0 && res.Attempted > 0, res.Attempted, res.Failed, ms})
}

// report prints the readable summary: host facts, outcome, every
// measured metric and the workload's own named figures.
func report(w io.Writer, res *Result, cfg Config) {
	h := res.Host
	fmt.Fprintf(w, "workload %s seed %d window %v traced %t\n", res.Workload, cfg.Seed, cfg.Window, cfg.Trace)
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d go=%s clients=%d workers=%d\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Clients, h.Workers)
	fmt.Fprintf(w, "ops: attempted=%d failed=%d\n", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	for _, m := range catalog {
		if v, ok := res.Metrics[m.Name]; ok {
			fmt.Fprintf(w, "  %-28s %14.4f %-6s (%s is better)\n", m.Name, v, m.Unit, m.Better)
		}
	}
	for _, k := range sortedKeys(res.Detail) {
		fmt.Fprintf(w, "  %-28s %14.4f\n", k, res.Detail[k])
	}
	for _, k := range sortedKeys(res.Facts) {
		fmt.Fprintf(w, "  %-28s %s\n", k, res.Facts[k])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
