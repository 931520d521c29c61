package partix

// Coordinator-side tracing: span-tree assembly, consistency with the
// QueryResult timings, the slow-query log, and the remote path where
// node spans travel back in the last frame of each node's answer.

import (
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"partix/internal/cluster"
	"partix/internal/engine"
	"partix/internal/obs"
	"partix/internal/wire"
)

// captureLogger records structured log calls for assertions.
type captureLogger struct {
	mu      sync.Mutex
	entries []string
}

func (c *captureLogger) Log(level obs.Level, msg string, keyvals ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	line := level.String() + " " + msg
	for i := 0; i+1 < len(keyvals); i += 2 {
		line += fmt.Sprintf(" %v=%v", keyvals[i], keyvals[i+1])
	}
	c.entries = append(c.entries, line)
}

func (c *captureLogger) all() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.entries...)
}

func TestTracedQueryAssemblesSpanTree(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 12)
	s.SetTracing(true)
	res, err := s.Query(`for $i in collection("items")/Item where contains($i/Description, "good") return $i/Code`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyUnion {
		t.Fatalf("strategy = %s, want union", res.Strategy)
	}
	if len(res.TraceID) != 16 {
		t.Fatalf("trace ID = %q, want 16 hex chars", res.TraceID)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("traced query has nil Trace")
	}
	if tr.Name != "query" || !strings.Contains(tr.Detail, "strategy=union") {
		t.Fatalf("root span = %q detail %q", tr.Name, tr.Detail)
	}
	// plan + one subquery per site + compose.
	if want := 2 + len(res.Sub); len(tr.Children) != want {
		t.Fatalf("root has %d children (%v), want %d", len(tr.Children), tr.Children, want)
	}
	if tr.Children[0].Name != "plan" || tr.Children[len(tr.Children)-1].Name != "compose" {
		t.Fatalf("children bracket = %q..%q, want plan..compose", tr.Children[0].Name, tr.Children[len(tr.Children)-1].Name)
	}
	for i, st := range res.Sub {
		sq := tr.Children[1+i]
		if sq.Name != "subquery" {
			t.Fatalf("child %d = %q, want subquery", 1+i, sq.Name)
		}
		// The subquery span IS the SubTiming, re-expressed as a span.
		if sq.Duration != st.Elapsed {
			t.Errorf("subquery span %d duration %v != SubTiming.Elapsed %v", i, sq.Duration, st.Elapsed)
		}
		if !strings.Contains(sq.Detail, "fragment="+st.Fragment) || !strings.Contains(sq.Detail, "node="+st.Node) {
			t.Errorf("subquery span detail %q misses fragment/node of %+v", sq.Detail, st)
		}
		// Local nodes report parse/plan/execute/serialize, as remote ones
		// do; their sum is measured inside the driver call, so it cannot
		// exceed the coordinator's outer measurement.
		names := make([]string, len(sq.Children))
		for j, c := range sq.Children {
			names[j] = c.Name
		}
		if fmt.Sprint(names) != "[parse plan execute serialize]" {
			t.Errorf("node spans of sub %d = %v, want [parse plan execute serialize]", i, names)
		}
		if sum := sq.Sum(); sum > st.Elapsed {
			t.Errorf("node spans of sub %d sum to %v > elapsed %v", i, sum, st.Elapsed)
		}
		if len(st.Spans) != len(sq.Children) {
			t.Errorf("SubTiming %d carries %d spans, tree has %d", i, len(st.Spans), len(sq.Children))
		}
	}
	if tr.Children[len(tr.Children)-1].Duration != res.ComposeTime {
		t.Errorf("compose span %v != ComposeTime %v", tr.Children[len(tr.Children)-1].Duration, res.ComposeTime)
	}
	if sum := tr.Sum(); sum > tr.Duration {
		t.Errorf("direct children sum %v exceeds root duration %v (sequential mode)", sum, tr.Duration)
	}
	out := tr.Format()
	for _, want := range []string{"query", "plan", "subquery", "compose", "├─", "└─"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted tree misses %q:\n%s", want, out)
		}
	}
}

// Traced results must be identical to untraced ones — tracing observes,
// never changes, the execution.
func TestTracedResultsMatchUntraced(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 12)
	q := `for $i in collection("items")/Item return $i/Code`
	plain, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil || plain.TraceID != "" {
		t.Fatalf("untraced query carries trace: id=%q trace=%v", plain.TraceID, plain.Trace)
	}
	s.SetTracing(true)
	traced, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, want := itemsAsStrings(traced.Items), itemsAsStrings(plain.Items)
	if len(got) != len(want) {
		t.Fatalf("traced %d items, untraced %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("item %d: traced %q, untraced %q", i, got[i], want[i])
		}
	}
}

// newWireSystem is newTestSystem over real wire servers on loopback TCP,
// each with its own flight recorder.
func newWireSystem(t *testing.T, n int) (*System, []*obs.FlightRecorder) {
	t.Helper()
	s := NewSystem(cluster.GigabitEthernet)
	recs := make([]*obs.FlightRecorder, n)
	for i := range recs {
		db, err := engine.Open(filepath.Join(t.TempDir(), fmt.Sprintf("remote%d.db", i)), engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		recs[i] = obs.NewFlightRecorder(0)
		srv := wire.NewServerLogger(db, nil, wire.ServerOptions{Recorder: recs[i]})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(l)
		t.Cleanup(func() { srv.Close() })
		client, err := wire.DialWith(fmt.Sprintf("node%d", i), l.Addr().String(), wire.ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		s.AddNode(client)
	}
	return s, recs
}

// A traced query over a wire-backed node carries the server's four spans
// (parse/plan/execute/serialize) home in the FrameEnd trailer.
func TestTracedQueryOverRemoteNode(t *testing.T) {
	s, _ := newWireSystem(t, 1)
	if err := s.Publish(itemsCollection(8), nil, map[string]string{"": "node0"}, PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	s.SetTracing(true)
	res, err := s.Query(`count(collection("items")/Item)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 || res.Items[0].(float64) != 8 {
		t.Fatalf("count = %v", res.Items)
	}
	if len(res.Sub) != 1 {
		t.Fatalf("sub timings: %+v", res.Sub)
	}
	names := make([]string, len(res.Sub[0].Spans))
	for i, sp := range res.Sub[0].Spans {
		names[i] = sp.Name
	}
	if fmt.Sprint(names) != "[parse plan execute serialize]" {
		t.Fatalf("remote node spans = %v", names)
	}
	var sum time.Duration
	for _, sp := range res.Sub[0].Spans {
		sum += sp.Duration
	}
	if sum > res.Sub[0].Elapsed {
		t.Fatalf("node spans sum %v exceeds wire round-trip %v", sum, res.Sub[0].Elapsed)
	}
}

// Tracing a query may not switch it onto a different execution path:
// traced and untraced runs of a multi-fragment and a single-fragment
// query over TCP nodes return identical items through the same streamed
// exchange — frames and a first-item latency on both — and every node
// that served a sub-query recorded the same thing for both runs.
func TestTracedQueryTakesTheServingPath(t *testing.T) {
	s, recs := newWireSystem(t, 3)
	s.SetConcurrent(true)
	publishHorizontal(t, s, 24)
	nodeRecords := func() (n int, last []obs.QueryRecord) {
		for _, rec := range recs {
			recorded, _ := rec.Stats()
			n += int(recorded)
			if snap := rec.Snapshot(1); len(snap) == 1 {
				last = append(last, obs.QueryRecord{Query: snap[0].Query, Items: snap[0].Items, Bytes: snap[0].Bytes})
			}
		}
		return n, last
	}
	for _, q := range []string{
		`collection("items")/Item/Code`,                                             // union over three fragments
		`for $i in collection("items")/Item where $i/Section = "CD" return $i/Code`, // routed to one
	} {
		var runs [2]*QueryResult
		var served [2]int
		var lasts [2][]obs.QueryRecord
		for i, traced := range []bool{false, true} {
			s.SetTracing(traced)
			before, _ := nodeRecords()
			res, err := s.Query(q)
			if err != nil {
				t.Fatalf("%s (traced=%t): %v", q, traced, err)
			}
			after, last := nodeRecords()
			runs[i], served[i], lasts[i] = res, after-before, last
			if res.Frames == 0 || res.FirstItemLatency == 0 {
				t.Fatalf("%s (traced=%t): frames=%d first-item=%v, want the streamed exchange",
					q, traced, res.Frames, res.FirstItemLatency)
			}
			if (res.Trace != nil) != traced {
				t.Fatalf("%s (traced=%t): trace = %v", q, traced, res.Trace)
			}
		}
		plain, traced := runs[0], runs[1]
		if fmt.Sprint(itemsAsStrings(plain.Items)) != fmt.Sprint(itemsAsStrings(traced.Items)) {
			t.Fatalf("%s: traced items %v, untraced %v", q, itemsAsStrings(traced.Items), itemsAsStrings(plain.Items))
		}
		if plain.Strategy != traced.Strategy || plain.Frames != traced.Frames || len(plain.Sub) != len(traced.Sub) {
			t.Fatalf("%s: traced %s/%d frames/%d subs, untraced %s/%d/%d", q,
				traced.Strategy, traced.Frames, len(traced.Sub), plain.Strategy, plain.Frames, len(plain.Sub))
		}
		if served[0] != len(plain.Sub) || served[1] != served[0] || fmt.Sprint(lasts[0]) != fmt.Sprint(lasts[1]) {
			t.Fatalf("%s: nodes recorded %d sub-queries %v untraced, %d %v traced, want %d identical",
				q, served[0], lasts[0], served[1], lasts[1], len(plain.Sub))
		}
		for _, st := range traced.Sub {
			if len(st.Spans) != 4 {
				t.Fatalf("%s: node %s returned spans %v, want parse/plan/execute/serialize", q, st.Node, st.Spans)
			}
		}
	}
}

func TestSlowQueryLog(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 12)
	logger := &captureLogger{}
	s.SetLogger(logger)
	s.SetSlowQueryThreshold(time.Nanosecond) // everything is slow
	s.SetTracing(true)
	before := obs.CoordSlowQueries.Value()
	if _, err := s.Query(`count(collection("items")/Item)`); err != nil {
		t.Fatal(err)
	}
	entries := logger.all()
	if len(entries) != 1 || !strings.Contains(entries[0], "slow query") {
		t.Fatalf("slow-query log entries = %v", entries)
	}
	if !strings.Contains(entries[0], "trace_id=") || !strings.Contains(entries[0], "strategy=aggregate") {
		t.Fatalf("slow-query entry misses fields: %q", entries[0])
	}
	if got := obs.CoordSlowQueries.Value(); got != before+1 {
		t.Fatalf("slow-query counter went %d -> %d, want +1", before, got)
	}

	// Above-threshold only: with a generous threshold nothing is logged.
	s.SetSlowQueryThreshold(time.Hour)
	if _, err := s.Query(`count(collection("items")/Item)`); err != nil {
		t.Fatal(err)
	}
	if got := logger.all(); len(got) != 1 {
		t.Fatalf("fast query logged as slow: %v", got)
	}
}

func TestSystemMetricsSnapshot(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 12)
	before := s.Metrics()["partix_coord_queries_total"]
	if _, err := s.Query(`count(collection("items")/Item)`); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if got := m["partix_coord_queries_total"]; got != before+1 {
		t.Fatalf("coord queries went %v -> %v, want +1", before, got)
	}
	for _, name := range []string{
		"partix_engine_queries_total",
		"partix_cluster_subqueries_total",
		"partix_coord_query_seconds_count",
	} {
		if _, ok := m[name]; !ok {
			t.Errorf("snapshot misses %s", name)
		}
	}
}
