package partix

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"partix/internal/cluster"
	"partix/internal/engine"
	"partix/internal/wire"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// queryItems runs q and checks its item count, reporting the fragments it
// skipped and whether its plan was cached when the count is wrong.
func queryItems(t *testing.T, s *System, q string, items int) *QueryResult {
	t.Helper()
	r, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Items) != items {
		t.Fatalf("%s: %d items (skipped %v, plan cached %v), want %d",
			q, len(r.Items), r.SkippedFragments, r.PlanCached, items)
	}
	return r
}

func skipped(r *QueryResult, fragment string) bool {
	for _, f := range r.SkippedFragments {
		if f == fragment {
			return true
		}
	}
	return false
}

// TestNodeWriteVisibleWithoutInvalidate: a write made on a node behind the
// coordinator's back — into a fragment the planner skips by its id range,
// then by its code membership — and its delete are visible to the very
// next query, from a cached plan, with no call to InvalidatePlans: the
// node reports each commit before it returns.
func TestNodeWriteVisibleWithoutInvalidate(t *testing.T) {
	s := newTestSystem(t, 4)
	publishQuartile(t, s, 32) // FS1 holds ids 8..15, codes P008..P015
	node1 := s.Node("node1")
	db1 := node1.(*wire.LocalNode).DB()

	byID := `for $i in collection("pitems")/Item where $i/@id < 4 return $i/Code`
	queryItems(t, s, byID, 4)
	if r := queryItems(t, s, byID, 4); !skipped(r, "FS1") || !r.PlanCached {
		t.Fatalf("repeat query: skipped %v, plan cached %v; want FS1 skipped from a cached entry", r.SkippedFragments, r.PlanCached)
	}
	err := node1.StoreDocument("pitems::FS1", xmltree.MustParseString("extra",
		`<Item id="2"><Code>PX</Code><Section>S1</Section></Item>`))
	if err != nil {
		t.Fatal(err)
	}
	if r := queryItems(t, s, byID, 5); skipped(r, "FS1") {
		t.Fatalf("after the write: skipped %v", r.SkippedFragments)
	}
	queryItems(t, s, byID, 5)
	if err := db1.DeleteDocument("pitems::FS1", "extra"); err != nil {
		t.Fatal(err)
	}
	queryItems(t, s, byID, 4)
	queryItems(t, s, byID, 4)

	// P010A sorts inside FS1's code range, so only membership skips it.
	byCode := `for $i in collection("pitems")/Item where $i/Code = "P010A" return $i/@id`
	queryItems(t, s, byCode, 0)
	if r := queryItems(t, s, byCode, 0); len(r.SkippedFragments) != 4 {
		t.Fatalf("absent code: skipped %v, want all four fragments", r.SkippedFragments)
	}
	err = node1.StoreDocument("pitems::FS1", xmltree.MustParseString("extra",
		`<Item id="10"><Code>P010A</Code><Section>S1</Section></Item>`))
	if err != nil {
		t.Fatal(err)
	}
	if r := queryItems(t, s, byCode, 1); skipped(r, "FS1") || len(r.SkippedFragments) != 3 {
		t.Fatalf("stored code: skipped %v, want FS0, FS2, FS3", r.SkippedFragments)
	}
	queryItems(t, s, byCode, 1)
	if err := db1.DeleteDocument("pitems::FS1", "extra"); err != nil {
		t.Fatal(err)
	}
	queryItems(t, s, byCode, 0)
}

// watchSwitch is an in-process node whose statistics watch a test can cut
// and restore: while it is cut, the node's commits are not reported.
type watchSwitch struct {
	*wire.LocalNode
	mu   sync.Mutex
	sink cluster.WatchSink
	cut  bool
}

func (n *watchSwitch) Watch(sink cluster.WatchSink) (func(), error) {
	n.mu.Lock()
	n.sink = sink
	n.mu.Unlock()
	sink.Up()
	return n.DB().OnCommit(func(collection string, gen uint64) {
		n.mu.Lock()
		defer n.mu.Unlock()
		if !n.cut {
			sink.Bump(collection, gen)
		}
	}), nil
}

func (n *watchSwitch) setCut(cut bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut = cut
	if cut {
		n.sink.Down()
	} else {
		n.sink.Up()
	}
}

// TestWatchDownKeepsEveryFragment: while a node's watch is down, writes to
// it go unreported, so the coordinator must not trust what it knows of the
// node: every answer stays right, none of the node's fragments is skipped
// and no cached plan is served. Once the watch is back, skipping and plan
// caching resume.
func TestWatchDownKeepsEveryFragment(t *testing.T) {
	s := NewSystem(cluster.GigabitEthernet)
	var node1 *watchSwitch
	for i := 0; i < 4; i++ {
		db, err := engine.Open(fmt.Sprintf("%s/n%d.db", t.TempDir(), i), engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		local := wire.NewLocalNode(fmt.Sprintf("node%d", i), db)
		if i == 1 {
			node1 = &watchSwitch{LocalNode: local}
			s.AddNode(node1)
		} else {
			s.AddNode(local)
		}
	}
	publishQuartile(t, s, 32)
	q := `for $i in collection("pitems")/Item where $i/@id < 4 return $i/Code`
	queryItems(t, s, q, 4)
	if r := queryItems(t, s, q, 4); !r.PlanCached || !skipped(r, "FS1") {
		t.Fatalf("repeat query: plan cached %v, skipped %v", r.PlanCached, r.SkippedFragments)
	}

	node1.setCut(true)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writes land while the watch is down, unreported
		defer wg.Done()
		for k := 0; k < 8; k++ {
			doc := xmltree.MustParseString(fmt.Sprintf("w%d", k),
				fmt.Sprintf(`<Item id="%d"><Code>W%d</Code><Section>S1</Section></Item>`, k%2+2, k))
			if err := node1.StoreDocument("pitems::FS1", doc); err != nil {
				t.Error(err)
			}
		}
	}()
	for k := 0; k < 4; k++ {
		r, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if r.PlanCached || skipped(r, "FS1") {
			t.Fatalf("watch down: plan cached %v, skipped %v", r.PlanCached, r.SkippedFragments)
		}
	}
	wg.Wait()
	for k := 0; k < 2; k++ {
		if r := queryItems(t, s, q, 12); r.PlanCached || skipped(r, "FS1") || !skipped(r, "FS2") {
			t.Fatalf("watch down: plan cached %v, skipped %v", r.PlanCached, r.SkippedFragments)
		}
	}

	node1.setCut(false)
	queryItems(t, s, q, 12)
	if r := queryItems(t, s, q, 12); !r.PlanCached {
		t.Fatal("no plan-cache hit once the watch is back")
	}
	absent := `for $i in collection("pitems")/Item where $i/Code = "P010A" return $i`
	queryItems(t, s, absent, 0)
	if r := queryItems(t, s, absent, 0); !skipped(r, "FS1") {
		t.Fatalf("watch back: skipped %v, want FS1 skipped again", r.SkippedFragments)
	}
}

// raceDetector is set by race_test.go in a -race build.
var raceDetector bool

// TestColdPlanAllocsIndependentOfCollectionSize: planning an HQ2-shaped
// point query from cached statistics — parse, fragment pruning, the range
// and membership checks that skip every fragment but one — allocates the
// same at n and 10n documents.
func TestColdPlanAllocsIndependentOfCollectionSize(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not stable under the race detector; verify.sh runs this gate without it")
	}
	q := `for $i in collection("items")/Item where $i/Code = "I007" return $i`
	allocs := func(docs int) float64 {
		s := newTestSystem(t, 3)
		publishHorizontal(t, s, docs)
		plan := func() {
			e, err := xquery.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			p, err := s.planQuery(e)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.steps) != 1 || len(p.skipped) != 2 {
				t.Fatalf("%d steps, skipped %v; want one step, two fragments skipped", len(p.steps), p.skipped)
			}
		}
		plan() // fetches and caches the statistics
		return testing.AllocsPerRun(50, plan)
	}
	small, large := allocs(40), allocs(400)
	t.Logf("cold plan: %.0f allocations at 40 documents, %.0f at 400", small, large)
	if large != small {
		t.Fatalf("cold plan allocates %.0f at 40 documents, %.0f at 400: not independent of size", small, large)
	}
}

// TestConcurrentWritesKeepPointQueriesRight: over TCP nodes, point
// queries run from several goroutines while a writer stores documents
// into every fragment behind the coordinator's back, so bumps evict
// statistics and outdate cached plans under the readers. No
// answer about the published documents changes, and every written code
// becomes visible once its bump is delivered.
func TestConcurrentWritesKeepPointQueriesRight(t *testing.T) {
	s, _ := newWireSystem(t, 4)
	s.SetConcurrent(true)
	publishQuartile(t, s, 32)
	byCode := `for $i in collection("pitems")/Item where $i/Code = "%s" return $i/@id`
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 40; k++ {
			f := k % 4
			doc := xmltree.MustParseString(fmt.Sprintf("n%03d", k), fmt.Sprintf(
				`<Item id="%d"><Code>N%03d</Code><Section>S%d</Section></Item>`, 100+k, k, f))
			if err := s.Node(fmt.Sprintf("node%d", f)).StoreDocument(fmt.Sprintf("pitems::FS%d", f), doc); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 60; k++ {
				q, want := fmt.Sprintf(byCode, fmt.Sprintf("P%03d", (k*7+r)%32)), 1
				if k%3 == 0 {
					q, want = `for $i in collection("pitems")/Item where $i/@id < 4 return $i/Code`, 4
				}
				res, err := s.Query(q)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Items) != want {
					t.Errorf("%s: %d items (skipped %v), want %d", q, len(res.Items), res.SkippedFragments, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	for k := 0; k < 40; k++ {
		q := fmt.Sprintf(byCode, fmt.Sprintf("N%03d", k))
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			res, err := s.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Items) == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d items 5 s after the write, want 1", q, len(res.Items))
			}
		}
	}
}
