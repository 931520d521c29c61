// Command benchmark is the repository's one benchmark: five Figure-7
// style workloads over real wire.Server nodes on loopback TCP, reporting
// end-to-end metrics from an untraced run and a per-layer table from a
// traced one. See README.md in this directory.
//
// The driver's form runs one workload once and prints one JSON line:
//
//	bash benchmark/run.sh --workload horiz_small_point --seed 1 --seconds 10 --trace 0
//
// Without --workload it runs every workload, untraced and traced, prints
// every metric by name and writes benchmark/out/results.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

const (
	// defaultSeed is the seed results are quoted at; heldOutSeed is the
	// one a change claiming a gain must also hold on (it is pinned in
	// pins.json but never used while developing a change).
	defaultSeed = 1
	heldOutSeed = 2
)

// options are the command's flags.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	repeat    int
	selfcheck bool
	compare   bool
	printPins bool
	out       string
	workDir   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this workload once and print one JSON line (empty: run all five, untraced and traced)")
	flag.Int64Var(&o.seed, "seed", defaultSeed, fmt.Sprintf("input seed (held-out seed: %d)", heldOutSeed))
	flag.Float64Var(&o.seconds, "seconds", 0, "seconds the timed loop measures (0: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of the traced run")
	flag.IntVar(&o.repeat, "repeat", 0, "without -workload: runs per workload, with seeds seed, seed+1, ... (0: 1, or 3 per half with -selfcheck)")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run every workload 2×repeat times, reversing the order every round, and fail unless the two halves' medians of every end-to-end metric agree within its bound")
	flag.BoolVar(&o.compare, "compare", false, "compare two results files: -compare base.json new.json")
	flag.BoolVar(&o.printPins, "print-pins", false, "print pins.json for the default and held-out seeds and exit")
	flag.StringVar(&o.out, "out", "benchmark/out", "directory for results.json and the trace files")
	flag.StringVar(&o.workDir, "workdir", ".bench_build/work", "directory for the nodes' store files")
	flag.Parse()
	if err := o.run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func (o options) run() error {
	if o.printPins {
		return writePins(os.Stdout)
	}
	bf, err := loadBenchmarkFile()
	if err != nil {
		return err
	}
	if o.compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two results files")
		}
		return compareFiles(os.Stdout, bf, flag.Arg(0), flag.Arg(1))
	}
	if o.seconds <= 0 {
		o.seconds = float64(bf.RunSeconds)
	}
	dir, cleanup, err := newWorkDir(o.workDir)
	if err != nil {
		return err
	}
	defer cleanup()
	cfg := runConfig{seed: o.seed, seconds: o.seconds, scale: 1, workDir: dir, outDir: o.out}
	switch {
	case o.workload != "":
		return runOne(cfg, bf, o.workload, o.trace != 0)
	case o.selfcheck:
		// One run per half cannot tell the code from the machine: single
		// runs of unchanged code differ by up to 30 % on a shared VM.
		return selfCheck(os.Stdout, cfg, bf, orDefault(o.repeat, 3))
	default:
		return runAll(cfg, bf, orDefault(o.repeat, 1))
	}
}

func orDefault(n, def int) int {
	if n <= 0 {
		return def
	}
	return n
}

// runOne is the driver's form: one workload once, the table on stderr and
// the result as the last line of stdout.
func runOne(cfg runConfig, bf *benchmarkFile, name string, traced bool) error {
	cfg.w, cfg.trace = workloadByName(name), traced
	if cfg.w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := run(cfg, bf)
	if err != nil {
		return err
	}
	printResult(os.Stderr, res)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed or answered wrongly", name, res.Failed, res.Attempted)
	}
	return nil
}

// runAll runs every workload untraced and traced, repeat times with
// consecutive seeds, prints every metric and writes results.json.
func runAll(cfg runConfig, bf *benchmarkFile, repeat int) error {
	var all resultsFile
	failed := 0
	for r := 0; r < repeat; r++ {
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				c := cfg
				c.w, c.trace, c.seed = w, traced, cfg.seed+int64(r)
				res, err := run(c, bf)
				if err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
				printResult(os.Stdout, res)
				all.Runs = append(all.Runs, res)
				failed += res.Failed
			}
		}
	}
	if err := all.write(filepath.Join(cfg.outDir, "results.json")); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed or answered wrongly", failed)
	}
	return nil
}

// printResult prints every metric of a run by name with its unit, and the
// traced run's layer table.
func printResult(w io.Writer, res *runResult) {
	kind := "end-to-end"
	if res.Trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "\n%s seed=%d %s: attempted=%d failed=%d timed samples=%d\n",
		res.Workload, res.Seed, kind, res.Attempted, res.Failed, res.Samples)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, t := range res.Templates {
		fmt.Fprintf(w, "  template %-6s %6d samples, query_p95_ms taken at p%.1f\n", t.Name, t.Samples, t.TailPercentile)
	}
	if len(res.Layers) > 0 {
		fmt.Fprintf(w, "  %-32s %9s %12s %14s %6s\n", "span", "calls/op", "median us", "self us/op", "share")
		for _, l := range res.Layers {
			fmt.Fprintf(w, "  %-32s %9.2f %12.1f %14.1f %5.1f%%\n", l.Layer, l.CallsOp, l.MedianUs, l.SelfUsOp, l.SelfShare*100)
		}
	}
}

// writePins prints the input pins of every workload at the default and
// held-out seeds (full scale) and at the smoke test's seed and scale.
func writePins(w io.Writer) error {
	pins := map[string]inputPin{}
	for _, wl := range workloads {
		for _, at := range []struct {
			seed  int64
			scale float64
		}{{defaultSeed, 1}, {heldOutSeed, 1}, {defaultSeed, smokeScale}} {
			pins[pinKey(wl.name, at.seed, at.scale)] = pinOf(wl.generate(at.seed, at.scale))
		}
	}
	data, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

// smokeScale is the scale smoke_test.go runs at.
const smokeScale = 0.02
