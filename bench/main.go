// Command bench is the repository's one benchmark: four workloads
// driven from outside against the production configuration of the draid
// server (durable FSSink shards, fsynced job log, audit ledger, eight
// tenants, a real loopback socket) by two closed-loop pkg/client SDK
// clients, with a verify phase that checks every streamed record before
// and after a server restart. See README.md.
//
//	bash bench/run.sh --workload warm_scan --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh -seed 1          # every workload, untraced then traced
//	bash bench/run.sh -check           # two untraced sets compared to the bounds, ~10 min
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

func main() {
	var (
		name     = flag.String("workload", "", "run one workload and print one result line; empty runs all four, untraced then traced")
		seed     = flag.Int64("seed", 1, "drives job seeds, job order, Zipf draws and cursor picks")
		seconds  = flag.Float64("seconds", runSeconds, "timed window; BENCHMARK.json fixes it, other values are for smoke runs")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end metrics")
		check    = flag.Bool("check", false, "run two untraced sets of three runs per workload (after one discarded pass) and compare their medians to the bounds; about ten minutes")
		out      = flag.String("out", filepath.Join(".bench_build", "out"), "directory for trace files, result files and the run's scratch data")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as the code defines it and exit")
	)
	flag.Parse()
	if *manifest {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	base := config{seed: *seed, seconds: *seconds, trace: *trace != 0, out: *out, scale: 1, reps: setupReps}
	switch {
	case *check:
		os.Exit(runCheck(ctx, base))
	case *name == "":
		os.Exit(runAll(ctx, base))
	}
	w, ok := workloadByName(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	base.workload = w
	res, err := run(ctx, base)
	if err != nil {
		fatal(err)
	}
	printResult(res)
	os.Stdout.Write(resultLine(res))
	if !res.correct() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// defsFor is the metric table a run reports from.
func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// resultLine is the contract's last line: correct, attempted, failed
// and every metric of the run's table with its unit.
func resultLine(res *result) []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	for _, d := range defsFor(res.cfg.trace) {
		metrics[d.Name] = value{res.metrics[d.Name], d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, metrics})
	if err != nil {
		fatal(err) // a NaN or Inf metric: a bug worth stopping on
	}
	return append(b, '\n')
}

// printResult prints the run header, every metric by name with its
// unit, and writes the same to <out>/<workload>.<mode>.json.
func printResult(res *result) {
	mode := "end_to_end"
	if res.cfg.trace {
		mode = "per_layer"
	}
	keys := make([]string, 0, len(res.info))
	for k := range res.info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("== %s (%s)\n", res.cfg.workload.name, mode)
	for _, k := range keys {
		fmt.Printf("#  %s=%v\n", k, res.info[k])
	}
	for _, d := range defsFor(res.cfg.trace) {
		line := fmt.Sprintf("%-48s %16.4f %s", d.Name, res.metrics[d.Name], d.Unit)
		if n, ok := res.samples[d.Name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Println(line)
	}
	fmt.Printf("%-48s %16.6f fraction  (%d failed of %d attempted)\n", "error_rate",
		float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted)
	for _, e := range res.errors {
		fmt.Println("!! ", e)
	}
	doc := map[string]any{"info": res.info, "metrics": res.metrics, "attempted": res.attempted,
		"failed": res.failed, "errors": res.errors}
	if b, err := json.MarshalIndent(doc, "", "  "); err == nil {
		path := filepath.Join(res.cfg.out, res.cfg.workload.name+"."+mode+".json")
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench: write result file:", err)
		}
	}
}

// runAll runs every workload untraced, then traced, printing every
// metric of both tables. Non-zero when any operation failed.
func runAll(ctx context.Context, base config) int {
	code := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := base
			cfg.workload, cfg.trace = w, traced
			res, err := run(ctx, cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", w.name, err)
				return 2
			}
			printResult(res)
			if !res.correct() {
				code = 1
			}
		}
	}
	return code
}

// checkRuns is how many runs, on consecutive seeds, make one set of
// -check; a set's value of a metric is their median.
const checkRuns = 3

// runCheck is the benchmark's self-agreement test, the driver's rule
// in small: two sets of runs of the same code, back to back, must agree
// within each metric's own bound on every workload, with no failed
// operation. Medians of three runs, not single runs: the bounds are
// meant for medians, and one set-up of identical work took 0.94 s and
// 1.53 s a few minutes apart. A first pass over the workloads is
// discarded because the sandbox is up to half again as fast for its
// first minute after idling, and both sets must see the loaded machine.
func runCheck(ctx context.Context, base config) int {
	code := 0
	var sets [2]map[string]map[string][]float64
	for s := -1; s < len(sets); s++ {
		runs := checkRuns
		if s < 0 {
			runs = 1 // the discarded pass
		} else {
			sets[s] = make(map[string]map[string][]float64)
		}
		for _, w := range workloads {
			values := make(map[string][]float64)
			for r := 0; r < runs; r++ {
				cfg := base
				cfg.workload, cfg.trace, cfg.seed = w, false, base.seed+int64(r)
				res, err := run(ctx, cfg)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", w.name, err)
					return 2
				}
				if !res.correct() {
					printResult(res)
					code = 1
				}
				for _, d := range endToEnd {
					values[d.Name] = append(values[d.Name], res.metrics[d.Name])
				}
			}
			if s >= 0 {
				sets[s][w.name] = values
			}
		}
	}
	for _, w := range workloads {
		fmt.Printf("== %s (medians of %d runs)\n%-28s %14s %14s %9s %7s\n", w.name, checkRuns, "metric", "first", "second", "diff", "bound")
		for _, d := range endToEnd {
			a, b := median(sets[0][w.name][d.Name]), median(sets[1][w.name][d.Name])
			diff := math.Abs(b-a) / math.Abs(a)
			verdict := ""
			if !(diff <= d.Bound) {
				verdict = "  DISAGREE"
				code = 1
			}
			fmt.Printf("%-28s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", d.Name, a, b, 100*diff, 100*d.Bound, verdict)
		}
	}
	return code
}
