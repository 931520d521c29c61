package partix

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"partix/internal/cluster"
	"partix/internal/obs"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// newCachedSystem is newTestSystem with the result cache enabled and
// statistics refetched per query (immediate invalidation).
func newCachedSystem(t *testing.T, nodes int, budget int64) *System {
	t.Helper()
	s := newTestSystem(t, nodes)
	s.SetResultCacheBytes(budget)
	s.SetStatsTTL(0)
	return s
}

func TestResultCacheHitServesFromMemory(t *testing.T) {
	s := newCachedSystem(t, 3, 1<<20)
	publishHorizontal(t, s, 12)
	q := `for $i in collection("items")/Item where $i/Section = "CD" return $i/Code`

	first, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first execution served from an empty cache")
	}
	hits0 := obs.CoordResultCacheHits.Value()
	second, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeat not served from the result cache")
	}
	if obs.CoordResultCacheHits.Value() != hits0+1 {
		t.Fatal("hit not counted")
	}
	if fmt.Sprint(itemStrings(second.Items)) != fmt.Sprint(itemStrings(first.Items)) {
		t.Fatalf("cached items differ:\n%v\n%v", itemStrings(second.Items), itemStrings(first.Items))
	}
	// A hit re-executes nothing and replays nothing: no sub-timings, no
	// trace spans, but a fresh trace ID so the flight recorder and logs
	// can still distinguish the serving event.
	if len(second.Sub) != 0 || second.Trace != nil {
		t.Fatalf("hit replayed execution detail: sub=%d trace=%v", len(second.Sub), second.Trace)
	}
	if second.TraceID == "" || second.TraceID == first.TraceID {
		t.Fatalf("hit trace ID not fresh: %q vs %q", second.TraceID, first.TraceID)
	}
	if second.Strategy != first.Strategy {
		t.Fatalf("hit strategy %s, executed strategy %s", second.Strategy, first.Strategy)
	}
	// Normalization applies: a re-spelled query is the same key.
	third, err := s.Query("for  $i in collection('items')/Item\n where $i/Section = 'CD'  return $i/Code")
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached {
		t.Fatal("reformatted spelling missed the result cache")
	}
}

func TestResultCacheInvalidatedByFragmentWrite(t *testing.T) {
	s := newCachedSystem(t, 3, 1<<20)
	publishHorizontal(t, s, 12)
	q := `for $i in collection("items")/Item where $i/Section = "CD" return $i/Code`
	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}
	if r, err := s.Query(q); err != nil || !r.Cached {
		t.Fatalf("prime failed: cached=%v err=%v", r != nil && r.Cached, err)
	}

	inv0 := obs.CoordResultCacheInvalidations.Value()
	err := s.Node("node0").StoreDocument("items::Fcd", xmltree.MustParseString("extra",
		`<Item id="99"><Code>I099</Code><Section>CD</Section></Item>`))
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cached {
		t.Fatal("stale result served after a fragment write")
	}
	if obs.CoordResultCacheInvalidations.Value() == inv0 {
		t.Fatal("invalidation not counted")
	}
	if len(r.Items) != 4 {
		t.Fatalf("items after write = %d, want 4", len(r.Items))
	}
	// The recomputed result repopulates the cache and serves again.
	if r, err := s.Query(q); err != nil || !r.Cached {
		t.Fatalf("repopulated entry not served: cached=%v err=%v", r != nil && r.Cached, err)
	}
}

// A write to a fragment statistics skipped changes the answer, so it must
// invalidate the cached result just as a write to a contacted fragment
// does: the entry carries the plan's stamps for the skipped fragments.
func TestResultCacheInvalidatedBySkippedFragmentWrite(t *testing.T) {
	s := newCachedSystem(t, 4, 1<<20)
	publishQuartile(t, s, 32) // FS0 holds ids 0..7, FS1..FS3 ids 8..31
	q := `for $i in collection("pitems")/Item where $i/@id < 4 return $i/Code`
	first, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(first.SkippedFragments) != "[FS1 FS2 FS3]" || len(first.Items) != 4 {
		t.Fatalf("skipped %v with %d items, want [FS1 FS2 FS3] and 4", first.SkippedFragments, len(first.Items))
	}
	if r, err := s.Query(q); err != nil || !r.Cached {
		t.Fatalf("prime failed: cached=%v err=%v", r != nil && r.Cached, err)
	}

	err = s.Node("node2").StoreDocument("pitems::FS2", xmltree.MustParseString("low",
		`<Item id="1"><Code>PY</Code><Section>S2</Section></Item>`))
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cached || len(r.Items) != 5 {
		t.Fatalf("after a write to skipped FS2: cached=%t items=%v, want a fresh 5-item answer",
			r.Cached, itemStrings(r.Items))
	}
}

func TestResultCacheInvalidatedByCatalogChange(t *testing.T) {
	s := newCachedSystem(t, 3, 1<<20)
	publishHorizontal(t, s, 12)
	q := `for $i in collection("items")/Item where $i/Section = "DVD" return $i/Code`
	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}
	if r, err := s.Query(q); err != nil || !r.Cached {
		t.Fatalf("prime failed: cached=%v err=%v", r != nil && r.Cached, err)
	}
	// Registering any collection moves the catalog version; every cached
	// result predates the new catalog.
	err := s.Catalog().Register(&CollectionMeta{Name: "other", Placement: map[string]string{"": "node0"}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cached {
		t.Fatal("result survived a catalog version bump")
	}
}

// TestResultCacheRandomizedReadWriteDifferential interleaves randomized
// fragment writes with the query mix on two coordinators sharing the same
// node engines — one with the cache on, one reference without — and
// requires every cache-system answer to equal the reference's fresh
// execution: zero stale results under writes, whether the sub-queries run
// one at a time or concurrently. Here fragments are pruned only by their
// fragmentation predicates, which do not depend on the data.
func TestResultCacheRandomizedReadWriteDifferential(t *testing.T) {
	sections := map[string]string{"Fcd": "CD", "Fdvd": "DVD", "Frest": "Book"}
	fx := differentialFixture{
		nodes:      3,
		collection: "items",
		publish:    func(t *testing.T, s *System) { publishHorizontal(t, s, 24) },
		queries: func(rng *rand.Rand) string {
			return []string{
				`for $i in collection("items")/Item where $i/Section = "CD" return $i/Code`,
				`for $i in collection("items")/Item where contains($i/Description, "good") return $i/Code`,
				`collection("items")/Item/Code`,
				`for $i in collection("items")/Item where $i/Section = "DVD" return $i`,
			}[rng.Intn(4)]
		},
		write: func(rng *rand.Rand, frag string, op int) string {
			return fmt.Sprintf(`<Item id="%d"><Code>W%04d</Code><Description>a good write</Description><Section>%s</Section></Item>`,
				1000+op, op, sections[frag])
		},
	}
	for _, concurrent := range []bool{false, true} {
		t.Run(fmt.Sprintf("concurrent=%t", concurrent), func(t *testing.T) {
			resultCacheDifferential(t, concurrent, fx)
		})
	}
}

// TestResultCacheStatisticsSkippingDifferential is the differential over
// the quartile fixture, where statistics skip the fragments holding no
// low ids: the writes put low-id documents into every fragment, skipped
// ones included, so a cached answer that ignores a skipped fragment's
// write is caught.
func TestResultCacheStatisticsSkippingDifferential(t *testing.T) {
	fx := differentialFixture{
		nodes:      4,
		collection: "pitems",
		publish:    func(t *testing.T, s *System) { publishQuartile(t, s, 32) },
		queries: func(rng *rand.Rand) string {
			op := []string{"<", "="}[rng.Intn(2)]
			return fmt.Sprintf(`for $i in collection("pitems")/Item where $i/@id %s %d return $i/Code`, op, 1+rng.Intn(4))
		},
		write: func(rng *rand.Rand, frag string, op int) string {
			return fmt.Sprintf(`<Item id="%d"><Code>W%04d</Code><Section>S%s</Section></Item>`,
				rng.Intn(4), op, frag[len("FS"):])
		},
	}
	for _, concurrent := range []bool{false, true} {
		t.Run(fmt.Sprintf("concurrent=%t", concurrent), func(t *testing.T) {
			resultCacheDifferential(t, concurrent, fx)
		})
	}
}

// differentialFixture is one collection the result-cache differential
// runs over: how to publish it, how to draw a query, and the document a
// write stores into a fragment.
type differentialFixture struct {
	nodes      int
	collection string
	publish    func(t *testing.T, s *System)
	queries    func(rng *rand.Rand) string
	write      func(rng *rand.Rand, frag string, op int) string
}

func resultCacheDifferential(t *testing.T, concurrent bool, fx differentialFixture) {
	s := newCachedSystem(t, fx.nodes, 1<<20)
	s.SetConcurrent(concurrent)
	fx.publish(t, s)
	ref := NewSystem(cluster.GigabitEthernet)
	for _, name := range s.Nodes() {
		ref.AddNode(s.Node(name))
	}
	meta := s.Catalog().Lookup(fx.collection)
	err := ref.Catalog().Register(&CollectionMeta{
		Name: fx.collection, Scheme: meta.Scheme, Placement: meta.Placement, Mode: meta.Mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref.SetStatsTTL(0)
	var frags []string
	for _, f := range meta.Scheme.Fragments {
		frags = append(frags, f.Name)
	}

	rng := rand.New(rand.NewSource(42))
	hits0 := obs.CoordResultCacheHits.Value()
	for op := 0; op < 120; op++ {
		if rng.Intn(4) == 0 { // ~25% writes
			frag := frags[rng.Intn(len(frags))]
			doc := xmltree.MustParseString(fmt.Sprintf("w%04d", op), fx.write(rng, frag, op))
			if err := s.Node(meta.Placement[frag]).StoreDocument(meta.NodeCollection(frag), doc); err != nil {
				t.Fatalf("op %d write: %v", op, err)
			}
			continue
		}
		q := fx.queries(rng)
		got, err := s.Query(q)
		if err != nil {
			t.Fatalf("op %d cached system: %v", op, err)
		}
		want, err := ref.Query(q)
		if err != nil {
			t.Fatalf("op %d reference: %v", op, err)
		}
		if fmt.Sprint(itemStrings(got.Items)) != fmt.Sprint(itemStrings(want.Items)) {
			t.Fatalf("op %d: stale result served (cached=%t)\nquery: %s\ngot:  %v\nwant: %v",
				op, got.Cached, q, itemStrings(got.Items), itemStrings(want.Items))
		}
	}
	if obs.CoordResultCacheHits.Value() == hits0 {
		t.Fatal("the cache never served a hit — the differential proved nothing")
	}
}

func TestResultCacheEvictionAndByteAccounting(t *testing.T) {
	rc := newResultCache()
	rc.setBudget(10_000)
	ev0 := obs.CoordResultCacheEvictions.Value()
	rc.put("a", &resultEntry{}, 4000)
	rc.put("b", &resultEntry{}, 4000)
	if rc.used() != 8000 || rc.len() != 2 || obs.CoordResultCacheBytes.Value() != 8000 {
		t.Fatalf("used=%d len=%d gauge=%d, want 8000/2/8000", rc.used(), rc.len(), obs.CoordResultCacheBytes.Value())
	}
	// Touch a so b becomes the LRU victim.
	if _, ok := rc.get("a"); !ok {
		t.Fatal("a missing")
	}
	rc.put("c", &resultEntry{}, 4000) // 12000 > 10000: evict b
	if _, ok := rc.get("b"); ok {
		t.Fatal("b not evicted (LRU order violated)")
	}
	_, okA := rc.get("a")
	_, okC := rc.get("c")
	if !okA || !okC {
		t.Fatal("wrong victim evicted")
	}
	if rc.used() != 8000 || rc.len() != 2 {
		t.Fatalf("after eviction used=%d len=%d, want 8000/2", rc.used(), rc.len())
	}
	if obs.CoordResultCacheEvictions.Value() != ev0+1 {
		t.Fatalf("evictions counted = %d, want 1", obs.CoordResultCacheEvictions.Value()-ev0)
	}
	// Replacing a key must not double-count its bytes.
	rc.put("a", &resultEntry{}, 2000)
	if rc.used() != 6000 || rc.len() != 2 {
		t.Fatalf("after replace used=%d len=%d, want 6000/2", rc.used(), rc.len())
	}
	// A single entry over the whole budget is not kept.
	rc.put("huge", &resultEntry{}, 20_000)
	if _, ok := rc.get("huge"); ok || rc.used() > 10_000 {
		t.Fatalf("over-budget entry kept: used=%d", rc.used())
	}
	// Shrinking the budget evicts down to it.
	rc.put("a", &resultEntry{}, 2000)
	rc.setBudget(2500)
	if rc.used() > 2500 || obs.CoordResultCacheBytes.Value() != rc.used() {
		t.Fatalf("used %d (gauge %d) exceeds shrunk budget", rc.used(), obs.CoordResultCacheBytes.Value())
	}
	// Budget 0 disables and drops everything.
	rc.setBudget(0)
	if rc.used() != 0 || rc.len() != 0 || rc.enabled() || obs.CoordResultCacheBytes.Value() != 0 {
		t.Fatalf("disabled cache not empty: used=%d len=%d", rc.used(), rc.len())
	}
	rc.put("a", &resultEntry{}, 1)
	if rc.len() != 0 {
		t.Fatal("disabled cache accepted an entry")
	}
}

// A result over budget/16 executes normally but is never cached.
func TestResultCachePerEntryCapRejectsLargeResults(t *testing.T) {
	s := newCachedSystem(t, 3, 1<<10) // per-entry cap = 64 bytes, smaller than any real result
	publishHorizontal(t, s, 12)
	q := `for $i in collection("items")/Item where $i/Section = "CD" return $i`
	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}
	if n := s.resultCache.len(); n != 0 {
		t.Fatalf("oversized result cached (%d entries)", n)
	}
	r, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cached {
		t.Fatal("oversized result served from cache")
	}
}

// TestResultCacheSingleflightDogpile sends a burst of identical queries
// at an empty cache: the singleflight must collapse the dogpile so at
// least one caller is served from the leader's populated entry, and every
// caller gets the same correct answer.
func TestResultCacheSingleflightDogpile(t *testing.T) {
	s := newCachedSystem(t, 3, 1<<20)
	publishHorizontal(t, s, 24)
	q := `for $i in collection("items")/Item where contains($i/Description, "good") return $i/Code`
	want, err := s.Query(q) // reference answer; then reset to an empty cache
	if err != nil {
		t.Fatal(err)
	}
	s.SetResultCacheBytes(0)
	s.SetResultCacheBytes(1 << 20)

	const burst = 8
	var wg sync.WaitGroup
	var executed, served atomic.Int64
	errs := make(chan error, burst)
	for g := 0; g < burst; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Query(q)
			if err != nil {
				errs <- err
				return
			}
			if res.Cached {
				served.Add(1)
			} else {
				executed.Add(1)
			}
			if fmt.Sprint(itemStrings(res.Items)) != fmt.Sprint(itemStrings(want.Items)) {
				errs <- fmt.Errorf("burst result differs: %v", itemStrings(res.Items))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if executed.Load()+served.Load() != burst {
		t.Fatalf("executed %d + served %d != %d", executed.Load(), served.Load(), burst)
	}
	if executed.Load() == burst {
		t.Fatal("every caller executed upstream — singleflight collapsed nothing")
	}
}

// Cache eligibility is a property of the result, not of the route that
// produced it. The memory guarantee: a broadcast answer over the
// per-entry cap leaves the cache byte count untouched. The serving
// guarantee: a small multi-fragment answer composed from concurrent
// sub-queries is cached like any other.
func TestResultCacheEligibilityIsPerResult(t *testing.T) {
	s := newCachedSystem(t, 3, 1<<14) // per-entry cap = budget/16 = 1 KiB
	s.SetConcurrent(true)
	publishHorizontal(t, s, 120)

	big := `collection("items")/Item` // full broadcast return, far over the cap
	for i := 0; i < 2; i++ {
		res, err := s.Query(big)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached || len(res.Sub) != 3 {
			t.Fatalf("run %d: over-cap broadcast cached=%t over %d sub-queries", i, res.Cached, len(res.Sub))
		}
		if n, b := s.resultCache.len(), s.resultCache.used(); n != 0 || b != 0 {
			t.Fatalf("over-cap result inflated the cache: %d entries, %d bytes", n, b)
		}
	}

	small := `count(collection("items")/Item)`
	first, err := s.Query(small)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || len(first.Sub) != 3 || first.Frames == 0 {
		t.Fatalf("first run: cached=%t sub=%d frames=%d, want a 3-fragment execution", first.Cached, len(first.Sub), first.Frames)
	}
	again, err := s.Query(small)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || fmt.Sprint(again.Items) != fmt.Sprint(first.Items) {
		t.Fatalf("repeat of a small concurrent multi-fragment result: cached=%t items=%v, want %v from the cache",
			again.Cached, again.Items, first.Items)
	}
}

// Exists/empty deciders stay out of the cache: they are index-only fast
// and their early-cancelled executions must rerun, not be replayed.
func TestDeciderQueriesBypassResultCache(t *testing.T) {
	s := newCachedSystem(t, 3, 1<<20)
	publishHorizontal(t, s, 12)
	q := `exists(collection("items")/Item/Code)`
	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}
	if n := s.resultCache.len(); n != 0 {
		t.Fatalf("decider cached (%d entries)", n)
	}
	r, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cached {
		t.Fatal("decider served from cache")
	}
}

func TestPublishClearsResultCache(t *testing.T) {
	s := newCachedSystem(t, 3, 1<<20)
	publishHorizontal(t, s, 12)
	q := `for $i in collection("items")/Item where $i/Section = "CD" return $i/Code`
	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}
	if s.resultCache.len() != 1 {
		t.Fatalf("entries = %d, want 1", s.resultCache.len())
	}
	other := xmltree.NewCollection("other")
	other.Add(xmltree.MustParseString("o1", `<Item id="1"><Code>O1</Code></Item>`))
	if err := s.Publish(other, nil, map[string]string{"": "node0"}, PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	if s.resultCache.len() != 0 {
		t.Fatalf("publish left %d cached results", s.resultCache.len())
	}
}

// Node items a wire client received are built on first use, once per
// frame, whoever asks first: two goroutines building the items of one
// query concurrently with those of a second query served the first one's
// result-cache entry all get the same trees, with the right content, and
// the race detector sees no conflict.
func TestCachedReceivedNodesBuildOnce(t *testing.T) {
	s, _ := newWireSystem(t, 3)
	s.SetResultCacheBytes(1 << 20)
	s.SetStatsTTL(0)
	publishHorizontal(t, s, 24)
	q := `for $i in collection("items")/Item where $i/Section != "Book" return $i`
	first, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || !second.Cached || len(first.Items) != len(second.Items) || len(first.Items) < 2 {
		t.Fatalf("cached=%v,%v with %d and %d items: want the repeat served from the cache",
			first.Cached, second.Cached, len(first.Items), len(second.Items))
	}
	built := make([][]*xmltree.Node, 4)
	var wg sync.WaitGroup
	for g := range built {
		items := []xquery.Seq{first.Items, second.Items}[g%2]
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
	for i := range first.Items {
		n := built[0][i]
		if n == nil || n.Name != "Item" || n.Child("Section").Text() == "Book" {
			t.Fatalf("item %d builds to %v", i, n)
		}
		for g := 1; g < len(built); g++ {
			if built[g][i] != n {
				t.Fatalf("item %d: goroutine %d built another tree", i, g)
			}
		}
	}
}
