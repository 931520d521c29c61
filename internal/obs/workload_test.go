package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestProfilerTopKCounts(t *testing.T) {
	p := NewWorkloadProfiler(8)
	for i := 0; i < 5; i++ {
		p.ObserveQuery("items", []string{"/Item/Section"}, []string{`/Item/Section = "CD"`})
	}
	p.ObserveQuery("items", []string{"/Item/Name"}, nil)
	p.ObserveQuery("other", nil, []string{`/X = "1"`})

	prof := p.Profile()
	if prof.Version != WorkloadProfileVersion {
		t.Fatalf("version = %d", prof.Version)
	}
	if len(prof.Collections) != 2 {
		t.Fatalf("collections: %+v", prof.Collections)
	}
	items := prof.Collections[0] // sorted by name
	if items.Collection != "items" || items.Queries != 6 {
		t.Fatalf("items workload: %+v", items)
	}
	if items.Paths[0].Key != "/Item/Section" || items.Paths[0].Count != 5 {
		t.Fatalf("top path: %+v", items.Paths)
	}
	if items.Predicates[0].Key != `/Item/Section = "CD"` || items.Predicates[0].Count != 5 {
		t.Fatalf("top predicate: %+v", items.Predicates)
	}
}

// The space-saving sketch is bounded: flooding with distinct keys keeps
// it at topK entries while the heavy hitter survives with a count at
// least its true frequency.
func TestProfilerSketchBounded(t *testing.T) {
	p := NewWorkloadProfiler(4)
	for i := 0; i < 50; i++ {
		p.ObserveQuery("c", []string{"/Hot"}, nil)
	}
	for i := 0; i < 40; i++ {
		p.ObserveQuery("c", []string{fmt.Sprintf("/cold%d", i)}, nil)
	}
	c := p.Profile().Collections[0]
	if len(c.Paths) > 4 {
		t.Fatalf("sketch grew past topK: %d entries", len(c.Paths))
	}
	if c.Paths[0].Key != "/Hot" || c.Paths[0].Count < 50 {
		t.Fatalf("heavy hitter lost: %+v", c.Paths)
	}
}

func TestProfilerFragmentHeatAndP99(t *testing.T) {
	p := NewWorkloadProfiler(0)
	for i := 0; i < 99; i++ {
		p.ObserveFragment("items", "f0", 10, 1024, 0.001)
	}
	// Two tail observations: nearest-rank p99 of 101 samples is the
	// 100th, which lands in the tail's bucket.
	p.ObserveFragment("items", "f0", 10, 1024, 5.0)
	p.ObserveFragment("items", "f0", 10, 1024, 5.0)
	p.ObserveFragment("items", "f1", 1, 1, 0.0001)

	prof := p.Profile()
	if len(prof.Fragments) != 2 {
		t.Fatalf("fragments: %+v", prof.Fragments)
	}
	f0 := prof.Fragments[0]
	if f0.Fragment != "f0" || f0.Queries != 101 || f0.DocsDecoded != 1010 || f0.Bytes != 103424 {
		t.Fatalf("f0 heat: %+v", f0)
	}
	var sum int64
	for _, c := range f0.LatencyBuckets {
		sum += c
	}
	if sum != 101 {
		t.Fatalf("latency bucket sum = %d, want 101", sum)
	}
	// The p99 estimate must land at the tail observation's bucket, far
	// above the 1ms bulk.
	if f0.P99Seconds < 1.0 {
		t.Fatalf("p99 = %v, want the 5s tail's bucket", f0.P99Seconds)
	}
	if f1 := prof.Fragments[1]; f1.P99Seconds > 0.001 {
		t.Fatalf("f1 p99 = %v, want the sub-ms bucket", f1.P99Seconds)
	}
}

func TestMergeHeat(t *testing.T) {
	mk := func(node string, queries int64, bucket int) FragmentHeat {
		b := make([]int64, len(HeatLatencyBounds)+1)
		b[bucket] = queries
		return FragmentHeat{Collection: "items", Fragment: "f0", Node: node,
			Queries: queries, DocsDecoded: queries * 2, Bytes: queries * 10, LatencyBuckets: b}
	}
	merged := MergeHeat([]FragmentHeat{
		mk("n0", 10, 0),
		mk("n1", 5, 3),
		{Collection: "items", Fragment: "f1", Node: "n0", Queries: 1},
		{Collection: "a", Fragment: "", Node: "n0", Queries: 2},
	})
	if len(merged) != 3 {
		t.Fatalf("merged: %+v", merged)
	}
	// Sorted by collection then fragment: a::, items::f0, items::f1.
	if merged[0].Collection != "a" || merged[1].Fragment != "f0" || merged[2].Fragment != "f1" {
		t.Fatalf("order: %+v", merged)
	}
	f0 := merged[1]
	if f0.Queries != 15 || f0.DocsDecoded != 30 || f0.Bytes != 150 {
		t.Fatalf("summed counters: %+v", f0)
	}
	if f0.Node != "" {
		t.Fatalf("node kept despite disagreement: %q", f0.Node)
	}
	if f0.LatencyBuckets[0] != 10 || f0.LatencyBuckets[3] != 5 {
		t.Fatalf("buckets not elementwise-summed: %v", f0.LatencyBuckets)
	}
	if f0.P99Seconds != HeatLatencyBounds[3] {
		t.Fatalf("p99 not recomputed: %v", f0.P99Seconds)
	}
	if merged[2].Node != "n0" {
		t.Fatalf("unanimous node dropped: %+v", merged[2])
	}
}

func TestObserveLatencyBucket(t *testing.T) {
	if got := ObserveLatencyBucket(0); got != 0 {
		t.Fatalf("zero-latency bucket = %d", got)
	}
	if got := ObserveLatencyBucket(time.Hour); got != len(HeatLatencyBounds) {
		t.Fatalf("over-the-top bucket = %d, want the +Inf slot %d", got, len(HeatLatencyBounds))
	}
	for d := time.Microsecond; d < time.Minute; d *= 7 {
		i := ObserveLatencyBucket(d)
		if i < len(HeatLatencyBounds) && d.Seconds() > HeatLatencyBounds[i] {
			t.Fatalf("%v put above its bound %v", d, HeatLatencyBounds[i])
		}
		if i > 0 && d.Seconds() <= HeatLatencyBounds[i-1] {
			t.Fatalf("%v put past its bound: bucket %d", d, i)
		}
	}
}

func TestProfilerConcurrent(t *testing.T) {
	p := NewWorkloadProfiler(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				p.ObserveQuery("items", []string{"/Item/Section"}, []string{`/Item/Section = "CD"`})
				p.ObserveFragment("items", fmt.Sprintf("f%d", i%4), 1, 64, 0.001)
				if i%50 == 0 {
					p.Profile()
				}
			}
		}(w)
	}
	wg.Wait()
	prof := p.Profile()
	if prof.Collections[0].Queries != 8*300 {
		t.Fatalf("queries = %d", prof.Collections[0].Queries)
	}
	var frags int64
	for _, f := range prof.Fragments {
		frags += f.Queries
	}
	if frags != 8*300 {
		t.Fatalf("fragment observations = %d", frags)
	}
}

// TestTelemetryAllocsPerQuery pins the coordinator's per-query telemetry
// cost (a profiler query observation, one fragment observation per
// sub-query, the recorder's sampling decision and one record) to a
// constant number of allocations, whatever the fragment count: the
// record's own Fragments slice is one allocation at any size, and a
// fragment observation of a known fragment allocates nothing.
func TestTelemetryAllocsPerQuery(t *testing.T) {
	perQuery := map[int]float64{}
	for _, fragments := range []int{4, 40} {
		rec := NewFlightRecorder(0)
		rec.SetSlowThreshold(100 * time.Millisecond)
		prof := NewWorkloadProfiler(0)
		paths := []string{"/Item/Section"}
		preds := []string{`/Item/Section = "CD"`, `contains(/Item/Description, "good")`}
		names := make([]string, fragments)
		for i := range names {
			names[i] = fmt.Sprintf("items_f%d", i)
		}
		observeFragments := func() {
			for _, f := range names {
				prof.ObserveFragment("items", f, 0, 4096, 0.001)
			}
		}
		one := func() {
			prof.ObserveQuery("items", paths, preds)
			observeFragments()
			if !rec.ShouldRecord(4*time.Millisecond, false) {
				return
			}
			r := &QueryRecord{
				UnixNano:   time.Now().UnixNano(),
				Query:      `for $i in collection("items")/Item where $i/Section = "CD" return $i/Name`,
				Strategy:   "parallel",
				DurationNs: int64(4 * time.Millisecond),
				Items:      128,
				Fragments:  make([]FragmentTiming, 0, fragments),
			}
			for _, f := range names {
				r.Fragments = append(r.Fragments, FragmentTiming{Fragment: f, ElapsedNs: int64(time.Millisecond), Items: 32})
			}
			rec.Record(r)
		}
		one() // the profiler learns the collection and its fragments
		if a := testing.AllocsPerRun(100, observeFragments); a != 0 {
			t.Errorf("%d fragments: ObserveFragment allocates %.1f per query, want 0", fragments, a)
		}
		perQuery[fragments] = testing.AllocsPerRun(100, one)
	}
	if perQuery[4] != perQuery[40] {
		t.Fatalf("telemetry allocations per query: %.1f at 4 fragments, %.1f at 40; want equal", perQuery[4], perQuery[40])
	}
}
