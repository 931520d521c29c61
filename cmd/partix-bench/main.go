// Command partix-bench regenerates the paper's evaluation (Figure 7 and
// the headline scale-up claim): it builds the four test databases, deploys
// them centralized and fragmented, runs the workloads with the paper's
// timing methodology and prints one table per figure panel, followed by
// the panel's summed engine counters.
//
// Usage:
//
//	partix-bench -exp all
//	partix-bench -exp fig7a -scale 4 -repeats 10
//	partix-bench -exp fig7d               # prints both -T and -NT views
//	partix-bench -exp headline -format csv
//
// Experiments: fig7a, fig7b, fig7c, fig7d (the four Figure 7 panels),
// headline (the best fragmented-vs-centralized speedup over the Figure
// 7(a) and 7(b) databases), smalldb (the Figure 7(a) workload on a small
// database, where fragmentation should not pay off) and all. The
// production-path benchmark lives in the benchmark/ module.
//
// -cpuprofile and -memprofile write pprof profiles of the whole run for
// digging into where executor time and allocations go.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"partix/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "fig7a | fig7b | fig7c | fig7d | headline | smalldb | all")
		scaleF     = flag.Int("scale", 1, "multiply the default database sizes")
		repeats    = flag.Int("repeats", 3, "timed executions per query (after one discarded warm-up)")
		dir        = flag.String("dir", "", "working directory for node stores (default: temp)")
		noIdx      = flag.Bool("no-indexes", false, "disable index-assisted pruning on the nodes (scan-bound baseline)")
		format     = flag.String("format", "table", "table | csv")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile at exit to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "partix-bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "partix-bench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "partix-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush accumulated allocation samples
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "partix-bench:", err)
			}
		}()
	}

	scale := experiments.DefaultScale.Multiply(*scaleF)
	opts := experiments.Options{Dir: *dir, Repeats: *repeats, DisableIndexes: *noIdx}

	if *format == "csv" {
		printPanel = experiments.PrintCSV
		printPanelNT = func(io.Writer, *experiments.Panel) {} // rows carry both views
	}
	if err := run(*exp, scale, opts); err != nil {
		fmt.Fprintln(os.Stderr, "partix-bench:", err)
		os.Exit(1)
	}
}

// printPanel/printPanelNT are swapped for the CSV writers by -format csv.
var (
	printPanel   = experiments.PrintPanel
	printPanelNT = experiments.PrintPanelNT
)

func run(exp string, scale experiments.Scale, opts experiments.Options) error {
	out := os.Stdout
	runPanel := func(f func(experiments.Scale, experiments.Options) (*experiments.Panel, error), nt bool) error {
		var p *experiments.Panel
		res, err := experiments.MeasureResources(func() error {
			var err error
			p, err = f(scale, opts)
			return err
		})
		if err != nil {
			return err
		}
		printPanel(out, p)
		if nt {
			printPanelNT(out, p)
		}
		experiments.PrintEngineStats(out, p)
		experiments.PrintResources(out, res)
		return nil
	}

	switch exp {
	case "fig7a":
		return runPanel(experiments.RunFig7a, false)
	case "fig7b":
		return runPanel(experiments.RunFig7b, false)
	case "fig7c":
		return runPanel(experiments.RunFig7c, false)
	case "fig7d":
		return runPanel(experiments.RunFig7d, true)
	case "headline":
		return headline(scale, opts)
	case "smalldb":
		p, err := experiments.RunSmallDB(opts)
		if err != nil {
			return err
		}
		printPanel(out, p)
		experiments.PrintEngineStats(out, p)
		return nil
	case "all":
		for _, name := range []string{"fig7a", "fig7b", "fig7c", "fig7d", "smalldb", "headline"} {
			if err := run(name, scale, opts); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

func headline(scale experiments.Scale, opts experiments.Options) error {
	best, panels, err := experiments.RunHeadline(scale, opts)
	if err != nil {
		return err
	}
	for _, p := range panels {
		printPanel(os.Stdout, p)
		experiments.PrintEngineStats(os.Stdout, p)
	}
	fmt.Printf("Headline: best fragmented-vs-centralized speedup %.1fx (%s, %s, %s)\n",
		best.Speedup, best.Query, best.Config, best.Panel)
	fmt.Println("Paper reports up to a 72x scale-up factor for horizontal fragmentation.")
	return nil
}
