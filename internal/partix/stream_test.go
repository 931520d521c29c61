package partix

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// streamedPair builds two identical fragmented deployments, one in the
// paper's sequential mode and one in concurrent (streaming) mode.
func streamedPair(t *testing.T, docs int) (seq, stream *System) {
	t.Helper()
	seq = newTestSystem(t, 3)
	publishHorizontal(t, seq, docs)
	stream = newTestSystem(t, 3)
	publishHorizontal(t, stream, docs)
	stream.SetConcurrent(true)
	return seq, stream
}

// Incremental composition produces exactly the centralized oracle's
// answer — the same query over the unfragmented collection on one node —
// for union and for every decomposable aggregate, under both in-flight
// policies. (A union is compared as a multiset: ∪ keeps fragment order,
// the oracle document order.)
func TestCompositionMatchesCentralizedOracle(t *testing.T) {
	central := newTestSystem(t, 1)
	if err := central.Publish(itemsCollection(24), nil, map[string]string{"": "node0"}, PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	seqSys, streamSys := streamedPair(t, 24)
	queries := []string{
		`for $i in collection("items")/Item where contains($i/Description, "good") return $i/Code`,
		`collection("items")/Item/Code`,
		`count(collection("items")/Item)`,
		`sum(collection("items")/Item/@id)`,
		`min(collection("items")/Item/@id)`,
		`max(collection("items")/Item/@id)`,
		`avg(collection("items")/Item/@id)`,
	}
	for _, q := range queries {
		want, err := central.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		ws := itemsAsStrings(want.Items)
		sort.Strings(ws)
		var strategy Strategy
		for name, sys := range map[string]*System{"sequential": seqSys, "concurrent": streamSys} {
			got, err := sys.Query(q)
			if err != nil {
				t.Fatalf("%s (%s): %v", q, name, err)
			}
			gs := itemsAsStrings(got.Items)
			sort.Strings(gs)
			if fmt.Sprint(ws) != fmt.Sprint(gs) {
				t.Fatalf("%s (%s):\ncomposed: %v\noracle:   %v", q, name, gs, ws)
			}
			if strategy != "" && strategy != got.Strategy {
				t.Fatalf("%s: strategy %s vs %s", q, got.Strategy, strategy)
			}
			strategy = got.Strategy
			if len(got.Items) > 0 && got.FirstItemLatency == 0 {
				t.Fatalf("%s (%s): first-item latency not measured", q, name)
			}
			if got.Frames == 0 || got.StreamedBytes == 0 {
				t.Fatalf("%s (%s): frame accounting missing: frames=%d bytes=%d", q, name, got.Frames, got.StreamedBytes)
			}
		}
	}
}

// exists()/empty() over fragments compose as a boolean fold (the OR/AND
// of the per-fragment verdicts), matching the centralized answer in both
// execution modes. A union composition would concatenate the booleans.
func TestDeciderComposition(t *testing.T) {
	central := newTestSystem(t, 1)
	if err := central.Publish(itemsCollection(24), nil, map[string]string{"": "node0"}, PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	seqSys, streamSys := streamedPair(t, 24)

	queries := []string{
		`exists(collection("items")/Item)`,
		`exists(for $i in collection("items")/Item where contains($i/Description, "nosuchtext") return $i)`,
		`empty(collection("items")/Item)`,
		`empty(for $i in collection("items")/Item where contains($i/Description, "nosuchtext") return $i)`,
	}
	for _, q := range queries {
		want, err := central.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for name, sys := range map[string]*System{"sequential": seqSys, "streamed": streamSys} {
			got, err := sys.Query(q)
			if err != nil {
				t.Fatalf("%s (%s): %v", q, name, err)
			}
			if len(got.Items) != 1 {
				t.Fatalf("%s (%s): %d items, want a single boolean (union leak?)", q, name, len(got.Items))
			}
			if got.Items[0] != want.Items[0] {
				t.Fatalf("%s (%s): %v, centralized says %v", q, name, got.Items[0], want.Items[0])
			}
			if got.Strategy != StrategyAggregate {
				t.Fatalf("%s (%s): strategy = %s, want aggregate", q, name, got.Strategy)
			}
		}
	}
}

// A decisive verdict cancels the remaining sub-queries: with one
// sub-query in flight, the first fragment's true decides exists() and
// the queued fragments never run.
func TestDeciderEarlyTermination(t *testing.T) {
	_, streamSys := streamedPair(t, 24)
	streamSys.SetConcurrent(false)
	res, err := streamSys.Query(`exists(collection("items")/Item)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 || res.Items[0] != true {
		t.Fatalf("items = %v, want [true]", res.Items)
	}
	cancelled := 0
	for _, sub := range res.Sub {
		if sub.Cancelled {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatalf("no sub-query cancelled after the verdict: %+v", res.Sub)
	}
}

// Sub-timings carry the streaming measurements.
func TestStreamedSubTimings(t *testing.T) {
	_, streamSys := streamedPair(t, 24)
	res, err := streamSys.Query(`collection("items")/Item/Code`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sub) != 3 {
		t.Fatalf("sub-queries = %d", len(res.Sub))
	}
	totalItems := 0
	for _, sub := range res.Sub {
		if sub.FirstFrame == 0 && sub.Items > 0 {
			t.Fatalf("sub %s: no first-frame latency", sub.Fragment)
		}
		totalItems += sub.Items
	}
	if totalItems != len(res.Items) {
		t.Fatalf("sub item counts sum to %d, result has %d", totalItems, len(res.Items))
	}
}

// A dead primary fails over to its replica mid-plan: the streamed union
// still matches the healthy sequential answer, with nothing delivered
// twice after the sink reset.
func TestStreamedFailoverNoDoubleDelivery(t *testing.T) {
	s, failer := replicatedSystem(t)
	q := `collection("items")/Item/Code`
	base, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want := itemsAsStrings(base.Items)
	if len(want) == 0 {
		t.Fatal("no items in fixture")
	}

	failer.down = true
	s.SetConcurrent(true)
	got, err := s.Query(q)
	if err != nil {
		t.Fatalf("streamed failover did not kick in: %v", err)
	}
	if fmt.Sprint(itemsAsStrings(got.Items)) != fmt.Sprint(want) {
		t.Fatalf("failover union differs:\nstreamed: %v\nhealthy:  %v", itemsAsStrings(got.Items), want)
	}
}

// Node items a wire client received are built on first use, once per
// frame, whoever asks first: two goroutines building the items of one
// TCP result concurrently, beside two more building a second query's,
// each get the same trees as their result's other builder, with the
// right content, and the race detector sees no conflict.
func TestReceivedNodesBuildOnce(t *testing.T) {
	s, _ := newWireSystem(t, 3)
	publishHorizontal(t, s, 24)
	q := `for $i in collection("items")/Item where $i/Section != "Book" return $i`
	results := make([]*QueryResult, 2)
	for r := range results {
		res, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		results[r] = res
	}
	if len(results[0].Items) < 2 || len(results[1].Items) != len(results[0].Items) {
		t.Fatalf("%d and %d items, want the same answer of at least 2", len(results[0].Items), len(results[1].Items))
	}
	built := make([][]*xmltree.Node, 4)
	var wg sync.WaitGroup
	for g := range built {
		items := results[g%2].Items
		wg.Add(1)
		go func() {
			defer wg.Done()
			built[g] = make([]*xmltree.Node, len(items))
			for i, it := range items {
				built[g][i], _ = xquery.NodeOf(it)
			}
		}()
	}
	wg.Wait()
	for g := range built {
		for i, n := range built[g] {
			if n == nil || n.Name != "Item" || n.Child("Section").Text() == "Book" {
				t.Fatalf("goroutine %d: item %d builds to %v", g, i, n)
			}
			if other := built[(g+2)%4][i]; other != n {
				t.Fatalf("item %d of result %d: two goroutines built two trees", i, g%2)
			}
		}
	}
}
