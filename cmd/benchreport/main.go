// Command benchreport regenerates every paper artifact from running code:
// Figure 1 (the raw→AI-ready flow), Table 1 (the four domain archetype
// pipelines), Table 2 (the maturity matrix), and the quantitative claims
// C1 (parallel I/O scaling), C2 (curation-time share), and C3 (iterative
// feedback). It prints to stdout and writes no files. Performance of
// the draid service is measured by the benchmark in bench/, not here.
//
// Usage:
//
//	benchreport               # run everything
//	benchreport -exp table1   # one experiment: fig1|table1|table2|scaling|curation|feedback
//	benchreport -exp trace -trace-server http://host:8080   # dump a live server's slowest trace
//
// The trace experiment is the odd one out: it needs a running draid
// (-trace-server) instead of an in-process fixture, so it never runs
// under -exp all. It fetches the fleet-assembled span tree for
// -trace-id (default: the slowest trace the server lists) and prints
// it as an indented tree — the "where did the time go" view of one
// request.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/pkg/client"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all|fig1|table1|table2|scaling|curation|feedback|trace")
	seed := flag.Int64("seed", 1, "experiment seed")
	scaleMB := flag.Int("scale-mb", 16, "C1: megabytes to shard")
	shots := flag.Int("curation-shots", 8, "C2: shots in the curation comparison")
	traceServer := flag.String("trace-server", "http://localhost:8080", "trace: base URL of a running draid (any fleet member)")
	traceID := flag.String("trace-id", "", "trace: trace ID to dump (empty picks the server's slowest listed trace)")
	flag.Parse()
	log.SetFlags(0)

	if *exp == "trace" {
		if err := dumpTrace(*traceServer, *traceID); err != nil {
			log.Fatalf("benchreport trace: %v", err)
		}
		return
	}

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := fn(); err != nil {
			log.Fatalf("benchreport %s: %v", name, err)
		}
		fmt.Println()
	}

	run("fig1", func() error {
		res, err := experiments.RunFig1(24, 16, 32, *seed)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		return nil
	})

	run("table1", func() error {
		rows, err := experiments.RunTable1(*seed)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderTable1(rows))
		return nil
	})

	run("table2", func() error {
		res, err := experiments.RunTable2()
		if err != nil {
			return err
		}
		fmt.Printf("Table 2 reproduction — maturity matrix: %d populated cells, %d grey (N/A) cells, monotone=%t\n",
			res.PopulatedCells, res.GreyCells, res.Monotone)
		fmt.Println("Trajectory of a dataset advanced level by level (final state):")
		fmt.Print(res.Rendered[len(res.Rendered)-1])
		return nil
	})

	run("scaling", func() error {
		points, err := experiments.RunScaling(*scaleMB, []int{1, 2, 4, 8, 16}, 8)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderScaling(points, *scaleMB, 8))
		return nil
	})

	run("curation", func() error {
		res, err := experiments.RunCuration(*shots, *seed)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		return nil
	})

	run("feedback", func() error {
		res, err := experiments.RunFeedback(400, *seed)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		return nil
	})

	known := []string{"fig1", "table1", "table2", "scaling", "curation", "feedback"}
	if *exp != "all" && !slices.Contains(known, *exp) {
		log.Fatalf("benchreport: unknown experiment %q (want all|%s|trace)", *exp, strings.Join(known, "|"))
	}
}

// dumpTrace prints the fleet-assembled span tree for one trace from a
// live server: the named ID, or — when none is given — the slowest
// trace the server currently lists, preferring notable (tail-sampled)
// ones since those are the traces worth a human's attention.
func dumpTrace(baseURL, id string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cli := client.New(baseURL)
	if id == "" {
		sums, err := cli.Traces(ctx, client.TraceQuery{})
		if err != nil {
			return fmt.Errorf("list traces on %s: %w", baseURL, err)
		}
		if len(sums) == 0 {
			return fmt.Errorf("%s lists no traces yet — send it a request first", baseURL)
		}
		best := sums[0]
		for _, ts := range sums[1:] {
			if (ts.Notable && !best.Notable) ||
				(ts.Notable == best.Notable && ts.DurationMs > best.DurationMs) {
				best = ts
			}
		}
		id = best.TraceID
		fmt.Printf("picked %s: root %s on %s, %.2fms, notable=%t (of %d listed)\n",
			id, best.Root, best.Node, best.DurationMs, best.Notable, len(sums))
	}
	view, err := cli.Trace(ctx, id)
	if err != nil {
		return fmt.Errorf("fetch trace %s: %w", id, err)
	}
	fmt.Print(view.RenderTree())
	return nil
}
