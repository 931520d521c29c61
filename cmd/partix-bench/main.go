// Command partix-bench regenerates the paper's evaluation (Figure 7 and
// the headline scale-up claim): it builds the four test databases, deploys
// them centralized and fragmented, runs the workloads with the paper's
// timing methodology and prints one table per figure panel.
//
// Usage:
//
//	partix-bench -exp all
//	partix-bench -exp fig7a -scale 4 -repeats 10
//	partix-bench -exp fig7d               # prints both -T and -NT views
//	partix-bench -exp obs -json BENCH_PR4.json
//	partix-bench -exp valueindex -json BENCH_PR5.json
//	partix-bench -exp planner -json BENCH_PR6.json
//	partix-bench -exp mixedrw -json BENCH_PR7.json
//	partix-bench -exp exec -json BENCH_PR8.json
//	partix-bench -exp telemetry -json BENCH_PR9.json
//	partix-bench -exp resultcache -json BENCH_PR10.json
//
// Experiments: fig7a, fig7b, fig7c, fig7d, headline, smalldb, obs,
// valueindex, planner, mixedrw, exec, telemetry, resultcache, all. obs
// measures the observability layer's overhead
// (metrics off vs on vs traced); valueindex sweeps a range predicate's
// selectivity with the path/value index on vs off and checks the
// index-only count()/exists() deciders; planner contrasts the
// statistics-driven coordinator (fragment skipping, plan cache) against
// the union-all baseline; mixedrw measures read-latency percentiles
// under a concurrent writer with snapshot-isolated reads vs the old
// lock-coupled write path; exec contrasts the compiled vectorized
// executor against the tree-walking interpreter (per-query CPU and
// allocations, plus a 10x streaming peak-heap panel); telemetry ablates
// the query flight recorder + workload profiler on the Fig 7(a) mix
// (overhead budget 2%) and checks the mined workload profile against
// the planner's routing of that mix; resultcache measures the
// coordinator result cache (hit vs cold-execution latency, staleness
// under concurrent fragment writes) and admission control (typed
// shedding under an overload burst). With -json the
// measured panels are also written machine-readable (durations in
// nanoseconds) so the perf trajectory is tracked across changes.
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
		exp        = flag.String("exp", "all", "fig7a | fig7b | fig7c | fig7d | headline | smalldb | obs | valueindex | planner | mixedrw | exec | telemetry | resultcache | all")
		scaleF     = flag.Int("scale", 1, "multiply the default database sizes")
		repeats    = flag.Int("repeats", 3, "timed executions per query (after one discarded warm-up)")
		dir        = flag.String("dir", "", "working directory for node stores (default: temp)")
		noIdx      = flag.Bool("no-indexes", false, "disable index-assisted pruning on the nodes (scan-bound baseline)")
		noVIdx     = flag.Bool("no-value-index", false, "disable only the path/value index (text indexes stay on)")
		format     = flag.String("format", "table", "table | csv")
		jsonPath   = flag.String("json", "", "also write the measurements to this file as JSON (e.g. BENCH_PR4.json)")
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
	opts := experiments.Options{Dir: *dir, Repeats: *repeats, DisableIndexes: *noIdx, DisableValueIndex: *noVIdx}

	if *format == "csv" {
		printPanel = experiments.PrintCSV
		printPanelNT = func(io.Writer, *experiments.Panel) {} // rows carry both views
	}
	col := &collector{}
	if err := run(*exp, scale, opts, col); err != nil {
		fmt.Fprintln(os.Stderr, "partix-bench:", err)
		os.Exit(1)
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, opts.Repeats, col); err != nil {
			fmt.Fprintln(os.Stderr, "partix-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}

// printPanel/printPanelNT are swapped for the CSV writers by -format csv.
var (
	printPanel   = experiments.PrintPanel
	printPanelNT = experiments.PrintPanelNT
)

// collector gathers every panel the run produced for the JSON report.
type collector struct {
	panels      []*experiments.Panel
	obs         *experiments.ObsCompare
	valueIndex  *experiments.ValueIndexCompare
	planner     *experiments.PlannerCompare
	mixedRW     *experiments.MixedRWCompare
	exec        *experiments.ExecCompare
	telemetry   *experiments.TelemetryCompare
	resultCache *experiments.ResultCacheCompare
}

func writeJSON(path string, repeats int, col *collector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	report := experiments.NewReport(repeats, col.panels)
	report.Obs = col.obs
	report.ValueIndex = col.valueIndex
	report.Planner = col.planner
	report.MixedRW = col.mixedRW
	report.Exec = col.exec
	report.Telemetry = col.telemetry
	report.ResultCache = col.resultCache
	if err := report.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(exp string, scale experiments.Scale, opts experiments.Options, col *collector) error {
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
		col.panels = append(col.panels, p)
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
		return headline(scale, opts, col)
	case "smalldb":
		p, err := experiments.RunSmallDB(opts)
		if err != nil {
			return err
		}
		col.panels = append(col.panels, p)
		printPanel(out, p)
		experiments.PrintEngineStats(out, p)
		return nil
	case "obs":
		c, err := experiments.RunObs(scale, opts)
		if err != nil {
			return err
		}
		col.obs = c
		experiments.PrintObs(out, c)
		return nil
	case "valueindex":
		c, err := experiments.RunValueIndex(scale, opts)
		if err != nil {
			return err
		}
		col.valueIndex = c
		experiments.PrintValueIndex(out, c)
		return nil
	case "planner":
		c, err := experiments.RunPlanner(scale, opts)
		if err != nil {
			return err
		}
		col.planner = c
		experiments.PrintPlanner(out, c)
		return nil
	case "mixedrw":
		c, err := experiments.RunMixedRW(scale, opts)
		if err != nil {
			return err
		}
		col.mixedRW = c
		experiments.PrintMixedRW(out, c)
		return nil
	case "exec":
		c, err := experiments.RunExec(scale, opts)
		if err != nil {
			return err
		}
		col.exec = c
		experiments.PrintExec(out, c)
		return nil
	case "telemetry":
		c, err := experiments.RunTelemetry(scale, opts)
		if err != nil {
			return err
		}
		col.telemetry = c
		experiments.PrintTelemetry(out, c)
		return nil
	case "resultcache":
		c, err := experiments.RunResultCache(scale, opts)
		if err != nil {
			return err
		}
		col.resultCache = c
		experiments.PrintResultCache(out, c)
		return nil
	case "all":
		for _, name := range []string{"fig7a", "fig7b", "fig7c", "fig7d", "smalldb", "obs", "valueindex", "planner", "mixedrw", "exec", "telemetry", "resultcache", "headline"} {
			if err := run(name, scale, opts, col); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

func headline(scale experiments.Scale, opts experiments.Options, col *collector) error {
	best, panels, err := experiments.RunHeadline(scale, opts)
	if err != nil {
		return err
	}
	for _, p := range panels {
		col.panels = append(col.panels, p)
		printPanel(os.Stdout, p)
		experiments.PrintEngineStats(os.Stdout, p)
	}
	fmt.Printf("Headline: best fragmented-vs-centralized speedup %.1fx (%s, %s, %s)\n",
		best.Speedup, best.Query, best.Config, best.Panel)
	fmt.Println("Paper reports up to a 72x scale-up factor for horizontal fragmentation.")
	return nil
}
