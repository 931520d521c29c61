package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// resultsFile is what a run of every workload writes and -compare reads.
type resultsFile struct {
	Runs []*runResult `json:"runs"`
}

func (f *resultsFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values groups a file's runs: workload → metric → one value per run.
func (f *resultsFile) values() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// quartiles are the cut points Python's statistics.quantiles(v, n=4)
// returns (the exclusive method), which is what the driver computes
// spreads with. With one value all three are that value.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		// After clamping j, delta may fall outside 0..3: the cut point
		// is then extrapolated, as Python does.
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// worseBy is how much worse b is than a, as a share of a, for a metric
// whose better direction is given; negative when b is better.
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// BENCHMARK.json fixes no bound for per-layer metrics. A layer timing must
// change by layerTolerance to be called improved or regressed; a per-query
// mean of a counter by meanTolerance, because the time-bound loop reaches
// slightly different Zipf draws from run to run.
const (
	layerTolerance = 0.10
	meanTolerance  = 0.01
)

// verdict classifies new against base for one metric. End-to-end metrics
// and gated layer metrics use their bound, layer metrics counted in whole
// events compare exactly, the other layer metrics use the tolerances above. A base whose own
// spread exceeds the tolerance cannot resolve a change of that size.
func verdict(def metricDef, base, cur []float64) string {
	_, b, _ := quartiles(base)
	_, c, _ := quartiles(cur)
	tolerance := def.Bound
	if tolerance == 0 {
		switch def.Unit {
		case "count":
			tolerance = 0
		case "1/query", "B/query":
			tolerance = meanTolerance
		default:
			tolerance = layerTolerance
		}
	}
	if spread(base) > tolerance && tolerance > 0 {
		return "unresolved"
	}
	switch by := worseBy(def.Better, b, c); {
	case by > tolerance:
		return "regressed"
	case by < -tolerance, tolerance == 0 && by < 0:
		return "improved"
	default:
		return "unchanged"
	}
}

// gatedLayers are the per-layer metrics -compare holds to a bound like an
// end-to-end metric, although BENCHMARK.json may give a per-layer metric
// none. Write latency is what horiz_small_rw exists to show, but it is
// measured on that workload only and repeats too loosely on a shared
// machine for the driver's acceptance rule (see README.md), so it cannot
// be an end-to-end metric there.
var gatedLayers = map[string]float64{
	"rw.write_p50_ms": 0.25,
	"rw.write_p95_ms": 0.25,
}

// allDefs lists every metric, the gated layer metrics with their bound.
func allDefs(bf *benchmarkFile) []metricDef {
	defs := append([]metricDef(nil), bf.EndToEnd...)
	for _, def := range bf.PerLayer {
		def.Bound = gatedLayers[def.Name]
		defs = append(defs, def)
	}
	return defs
}

// compareFiles prints, per workload and metric, the base and new medians,
// their ratio and the verdict.
func compareFiles(w io.Writer, bf *benchmarkFile, basePath, newPath string) error {
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	cur, err := readResults(newPath)
	if err != nil {
		return err
	}
	bv, cv := base.values(), cur.values()
	regressed := 0
	for _, wl := range workloads {
		if bv[wl.name] == nil || cv[wl.name] == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s\n  %-40s %14s %14s %-8s %18s  %s\n", wl.name, "metric", "base", "new", "unit", "new/base", "verdict")
		for _, def := range allDefs(bf) {
			b, c := bv[wl.name][def.Name], cv[wl.name][def.Name]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			_, bm, _ := quartiles(b)
			_, cm, _ := quartiles(c)
			ratio := "-"
			if bm != 0 {
				ratio = fmt.Sprintf("%.3f of %.4g", cm/bm, bm)
			}
			v := verdict(def, b, c)
			if v == "regressed" && def.Bound > 0 {
				regressed++
			}
			fmt.Fprintf(w, "  %-40s %14.4f %14.4f %-8s %18s  %s\n", def.Name, bm, cm, def.Unit, ratio, v)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d bounded metrics regressed beyond their bound", regressed)
	}
	return nil
}

// selfCheck runs every workload 2×rounds times untraced, reversing the
// workload order every round, and compares the even rounds' medians with
// the odd rounds': every end-to-end metric must agree within its bound.
func selfCheck(w io.Writer, cfg runConfig, bf *benchmarkFile, rounds int) error {
	var halves [2]resultsFile
	failedOps := 0
	for round := 0; round < 2*rounds; round++ {
		order := append([]*workload(nil), workloads...)
		if round%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, wl := range order {
			c := cfg
			c.w, c.seed = wl, cfg.seed+int64(round/2)
			res, err := run(c, bf)
			if err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
			fmt.Fprintf(w, "round %d %s: %d samples, %d failed\n", round+1, wl.name, res.Samples, res.Failed)
			failedOps += res.Failed
			halves[round%2].Runs = append(halves[round%2].Runs, res)
		}
	}
	av, bv := halves[0].values(), halves[1].values()
	disagree := 0
	for _, wl := range workloads {
		fmt.Fprintf(w, "\n%s\n  %-24s %-6s %3s %12s %12s %12s %9s %7s\n", wl.name, "metric", "unit", "n", "q1", "median", "q3", "apart", "bound")
		for _, def := range bf.EndToEnd {
			a, b := av[wl.name][def.Name], bv[wl.name][def.Name]
			both := append(append([]float64(nil), a...), b...)
			q1, q2, q3 := quartiles(both)
			_, am, _ := quartiles(a)
			_, bm, _ := quartiles(b)
			apart := math.Max(worseBy(def.Better, am, bm), worseBy(def.Better, bm, am))
			mark := ""
			if apart > def.Bound {
				mark = "  DISAGREES"
				disagree++
			}
			fmt.Fprintf(w, "  %-24s %-6s %3d %12.4f %12.4f %12.4f %8.2f%% %6.1f%%%s\n",
				def.Name, def.Unit, len(both), q1, q2, q3, apart*100, def.Bound*100, mark)
		}
	}
	switch {
	case failedOps > 0:
		return fmt.Errorf("selfcheck: %d operations failed or answered wrongly", failedOps)
	case disagree > 0:
		return fmt.Errorf("selfcheck: %d end-to-end metrics disagree between two sets of runs of the same code", disagree)
	}
	return nil
}
