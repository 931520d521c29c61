package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadBenchmarkFile reads BENCHMARK.json from the checkout root (the
// command's working directory) or, under go test, from the parent of the
// package directory.
func loadBenchmarkFile() (*benchmarkFile, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var f benchmarkFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &f, nil
	}
	return nil, firstErr
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics under the names and units
// BENCHMARK.json declares; set panics on a name the file does not list,
// so a typo cannot silently drop a metric.
type metricSet struct {
	defs   map[string]metricDef
	values map[string]metricValue
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: map[string]metricDef{}, values: map[string]metricValue{}}
	for _, d := range defs {
		m.defs[d.Name] = d
		// Layers a workload does not exercise report zero.
		m.values[d.Name] = metricValue{Unit: d.Unit}
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	d, ok := m.defs[name]
	if !ok {
		panic("benchmark: metric " + name + " is not declared in BENCHMARK.json")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.values[name] = metricValue{Value: v, Unit: d.Unit}
}

func (m *metricSet) setDuration(name string, d time.Duration) {
	switch m.defs[name].Unit {
	case "us":
		m.set(name, float64(d)/float64(time.Microsecond))
	case "ms":
		m.set(name, float64(d)/float64(time.Millisecond))
	case "s":
		m.set(name, d.Seconds())
	default:
		panic("benchmark: metric " + name + " does not have a time unit")
	}
}

// quantile is the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func medianDuration(v []time.Duration) time.Duration {
	f := make([]float64, len(v))
	for i, d := range v {
		f[i] = float64(d)
	}
	return time.Duration(median(f))
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// mixQuantile summarizes latencies of a workload that mixes templates of
// different cost: the q-quantile is taken per template and the results
// are averaged with each template's share of the ops as weight. A plain
// quantile over the pooled sample would sit in the gap between two
// templates' clusters and jump from one to the other between runs.
//
// q gives the quantile to take from a template's sample count: at(0.5)
// for a median, tailQuantile for the tail.
func mixQuantile(byTemplate [][]float64, q func(n int) float64) float64 {
	total, sum := 0, 0.0
	for _, v := range byTemplate {
		total += len(v)
	}
	for _, v := range byTemplate {
		if len(v) > 0 {
			sum += float64(len(v)) / float64(total) * quantile(sortedCopy(v), q(len(v)))
		}
	}
	return sum
}

func at(q float64) func(int) float64 { return func(int) float64 { return q } }

// tailQuantile is the quantile a tail metric is taken at: the 95th
// percentile, or for fewer than 200 samples the highest one that still
// has ten samples beyond it (never below the median, for smoke runs).
func tailQuantile(n int) float64 {
	return math.Max(0.5, math.Min(0.95, 1-10/float64(n)))
}

func milliseconds(v []time.Duration) []float64 {
	out := make([]float64, len(v))
	for i, d := range v {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
