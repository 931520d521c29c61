package main

import (
	"io"
	"math"
	"path/filepath"
	"testing"
)

// TestSmoke runs all five workloads, untraced and traced, at 1/50 scale,
// so a refactor under internal/ that breaks the benchmark fails a test
// instead of the next measurement.
func TestSmoke(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, bf.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			cfg := runConfig{
				w: w, seed: defaultSeed, seconds: 0.3, trace: traced, scale: smokeScale,
				workDir: t.TempDir(), outDir: t.TempDir(),
			}
			res, err := run(cfg, bf)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", w.name, traced, res.Failed, res.Attempted)
			}
			defs := bf.EndToEnd
			if traced {
				defs = bf.PerLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json lists %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, def := range defs {
				m, ok := res.Metrics[def.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s not emitted", w.name, def.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s is %v", w.name, def.Name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, def.Name, m.Value)
				case m.Unit != def.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, def.Name, m.Unit, def.Unit)
				}
			}
			if traced && len(res.Layers) == 0 {
				t.Errorf("%s: the traced run produced no layer table", w.name)
			}
			if !traced && len(res.Templates) != len(w.templates) {
				t.Errorf("%s: %d template sample counts reported, the workload has %d templates", w.name, len(res.Templates), len(w.templates))
			}
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4),
// which the driver uses for spreads.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{9, 1, 4, 7, 3, 8, 2, 10, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 3})
	if q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("quartiles of {1,3} = %v %v %v, want 0.5 2 3.5", q1, q2, q3)
	}
}

// TestTailQuantile pins the rule behind query_p95_ms and rw.write_p95_ms: the
// 95th percentile, or the highest one with ten samples beyond it.
func TestTailQuantile(t *testing.T) {
	for n, want := range map[int]float64{1000: 0.95, 200: 0.95, 160: 0.9375, 40: 0.75, 12: 0.5, 1: 0.5} {
		if got := tailQuantile(n); got != want {
			t.Errorf("tailQuantile(%d) = %v, want %v", n, got, want)
		}
	}
}

// TestWriteLatencyGated checks that -compare fails on a write latency
// regression, which only a per-layer metric reports.
func TestWriteLatencyGated(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	file := func(p50 float64) string {
		f := resultsFile{Runs: []*runResult{{
			Workload: "horiz_small_rw", Trace: true,
			Metrics: map[string]metricValue{"rw.write_p50_ms": {Value: p50, Unit: "ms"}},
		}}}
		path := filepath.Join(t.TempDir(), "results.json")
		if err := f.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if err := compareFiles(io.Discard, bf, file(2), file(2.2)); err != nil {
		t.Errorf("a 10 %% slower write failed the comparison: %v", err)
	}
	if err := compareFiles(io.Discard, bf, file(2), file(3)); err == nil {
		t.Error("a 50 % slower write passed the comparison")
	}
}

func TestVerdict(t *testing.T) {
	latency := metricDef{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	rate := metricDef{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	count := metricDef{Name: "wire.retries", Unit: "count", Better: "lower"}
	for _, c := range []struct {
		def       metricDef
		base, cur []float64
		want      string
	}{
		{latency, []float64{10, 10.1, 9.9, 10}, []float64{10.5}, "unchanged"},
		{latency, []float64{10, 10.1, 9.9, 10}, []float64{11.5}, "regressed"},
		{latency, []float64{10, 10.1, 9.9, 10}, []float64{8}, "improved"},
		{latency, []float64{10, 14, 7, 12}, []float64{8}, "unresolved"},
		{rate, []float64{100}, []float64{85}, "regressed"},
		{rate, []float64{100}, []float64{120}, "improved"},
		{count, []float64{3}, []float64{3}, "unchanged"},
		{count, []float64{3}, []float64{4}, "regressed"},
		{count, []float64{3}, []float64{2}, "improved"},
	} {
		if got := verdict(c.def, c.base, c.cur); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.def.Name, c.base, c.cur, got, c.want)
		}
	}
}

func TestPinMismatch(t *testing.T) {
	w := workloads[0]
	pin := pinOf(w.generate(defaultSeed, smokeScale))
	if err := checkPin(w.name, defaultSeed, smokeScale, pin); err != nil {
		t.Errorf("recorded pin rejected: %v", err)
	}
	pin.XMLBytes++
	if err := checkPin(w.name, defaultSeed, smokeScale, pin); err == nil {
		t.Error("a changed collection passed the pin check")
	}
	if err := checkPin(w.name, 12345, smokeScale, pin); err != nil {
		t.Errorf("an unpinned seed was rejected: %v", err)
	}
}
