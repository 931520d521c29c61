package partix

// System-level telemetry: queries feed the workload profiler and the
// flight recorder, the mined profile reflects how the planner actually
// routed the traffic, cluster aggregation folds in node-local heat, and
// the telemetry toggle restores the pre-telemetry hot path.

import (
	"testing"
)

func mustRun(t *testing.T, s *System, q string) *QueryResult {
	t.Helper()
	res, err := s.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

func TestWorkloadProfileMatchesRouting(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 24)
	s.Profiler().Reset()

	routed := `for $i in collection("items")/Item where $i/Section = "CD" return $i/Name`
	broadcast := `for $i in collection("items")/Item where contains($i/Description, "good") return $i`
	mustRun(t, s, routed)
	mustRun(t, s, broadcast)

	prof := s.WorkloadProfile()
	var items *struct {
		queries    int64
		predicates map[string]int64
		paths      map[string]int64
	}
	for _, cw := range prof.Collections {
		if cw.Collection != "items" {
			continue
		}
		items = &struct {
			queries    int64
			predicates map[string]int64
			paths      map[string]int64
		}{queries: cw.Queries, predicates: map[string]int64{}, paths: map[string]int64{}}
		for _, kc := range cw.Predicates {
			items.predicates[kc.Key] = kc.Count
		}
		for _, kc := range cw.Paths {
			items.paths[kc.Key] = kc.Count
		}
	}
	if items == nil {
		t.Fatalf("no workload mined for items: %+v", prof.Collections)
	}
	if items.queries != 2 {
		t.Fatalf("items queries = %d, want 2", items.queries)
	}
	if items.predicates[`/Item/Section = "CD"`] != 1 {
		t.Fatalf("equality predicate not mined: %+v", items.predicates)
	}
	if items.predicates[`contains(/Item/Description, "good")`] != 1 {
		t.Fatalf("contains predicate not mined: %+v", items.predicates)
	}

	// Fragment heat must match the planner's routing: the Section="CD"
	// query touches only Fcd, the contains query broadcasts to all three.
	want := map[string]int64{"Fcd": 2, "Fdvd": 1, "Frest": 1}
	got := map[string]int64{}
	for _, h := range prof.Fragments {
		if h.Collection == "items" {
			got[h.Fragment] = h.Queries
		}
	}
	for frag, n := range want {
		if got[frag] != n {
			t.Fatalf("fragment heat = %v, want %v", got, want)
		}
	}
}

func TestRecorderCapturesQueriesWithTraceTags(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 16)

	mustRun(t, s, `for $i in collection("items")/Item where $i/Section = "DVD" return $i/Code`)
	if _, err := s.Query(`for $i in`); err == nil {
		t.Fatal("malformed query succeeded")
	}

	var sawOK, sawErr bool
	for _, qr := range s.Recorder().Snapshot(0) {
		if qr.TraceID == "" {
			t.Fatalf("record without a trace tag: %+v", qr)
		}
		if qr.Error == "" && qr.Strategy != "" && len(qr.Fragments) > 0 {
			sawOK = true
		}
		if qr.Error != "" {
			sawErr = true
		}
	}
	if !sawOK {
		t.Fatal("successful query missing from the flight recorder")
	}
	if !sawErr {
		t.Fatal("failed query missing from the flight recorder")
	}
}

func TestClusterTelemetryAggregatesNodeHeat(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 24)
	mustRun(t, s, `for $i in collection("items")/Item return $i/Code`)

	ct := s.ClusterTelemetry()
	if len(ct.Nodes) != 3 {
		t.Fatalf("node statuses: %+v", ct.Nodes)
	}
	for _, ns := range ct.Nodes {
		if !ns.Supported || ns.Err != "" {
			t.Fatalf("in-process node reported unsupported or failed: %+v", ns)
		}
	}
	if len(ct.Metrics) == 0 {
		t.Fatal("aggregate carries no metric series")
	}
	if ct.Profile == nil {
		t.Fatal("aggregate carries no workload profile")
	}
	// Node-local heat is keyed by the serving node: Fcd lives on node0.
	nodeByFragment := map[string]string{}
	for _, h := range ct.NodeHeat {
		if h.Collection == "items" {
			nodeByFragment[h.Fragment] = h.Node
		}
	}
	want := map[string]string{"Fcd": "node0", "Fdvd": "node1", "Frest": "node2"}
	for frag, node := range want {
		if nodeByFragment[frag] != node {
			t.Fatalf("node heat placement = %v, want %v", nodeByFragment, want)
		}
	}
}
