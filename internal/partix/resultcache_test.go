package partix

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"partix/internal/cluster"
	"partix/internal/obs"
	"partix/internal/xmltree"
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
// one at a time or concurrently.
func TestResultCacheRandomizedReadWriteDifferential(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		t.Run(fmt.Sprintf("concurrent=%t", concurrent), func(t *testing.T) {
			resultCacheDifferential(t, concurrent)
		})
	}
}

func resultCacheDifferential(t *testing.T, concurrent bool) {
	s := newCachedSystem(t, 3, 1<<20)
	s.SetConcurrent(concurrent)
	publishHorizontal(t, s, 24)
	ref := NewSystem(cluster.GigabitEthernet)
	for _, name := range s.Nodes() {
		ref.AddNode(s.Node(name))
	}
	meta := s.Catalog().Lookup("items")
	err := ref.Catalog().Register(&CollectionMeta{
		Name: "items", Scheme: meta.Scheme, Placement: meta.Placement, Mode: meta.Mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref.SetStatsTTL(0)

	queries := []string{
		`for $i in collection("items")/Item where $i/Section = "CD" return $i/Code`,
		`for $i in collection("items")/Item where contains($i/Description, "good") return $i/Code`,
		`collection("items")/Item/Code`,
		`for $i in collection("items")/Item where $i/Section = "DVD" return $i`,
	}
	frags := []struct{ frag, node, section string }{
		{"Fcd", "node0", "CD"},
		{"Fdvd", "node1", "DVD"},
		{"Frest", "node2", "Book"},
	}
	rng := rand.New(rand.NewSource(42))
	hits0 := obs.CoordResultCacheHits.Value()
	for op := 0; op < 120; op++ {
		if rng.Intn(4) == 0 { // ~25% writes
			f := frags[rng.Intn(len(frags))]
			doc := xmltree.MustParseString(fmt.Sprintf("w%04d", op), fmt.Sprintf(
				`<Item id="%d"><Code>W%04d</Code><Description>a good write</Description><Section>%s</Section></Item>`,
				1000+op, op, f.section))
			if err := s.Node(f.node).StoreDocument("items::"+f.frag, doc); err != nil {
				t.Fatalf("op %d write: %v", op, err)
			}
			continue
		}
		q := queries[rng.Intn(len(queries))]
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
	rc.setMaxEntry(10_000) // lift the budget/16 cap; sizing is explicit here
	entry := func(key string, n int64) *resultEntry {
		return &resultEntry{key: key, bytes: n}
	}
	ev0 := obs.CoordResultCacheEvictions.Value()
	rc.put(entry("a", 4000))
	rc.put(entry("b", 4000))
	if rc.usage() != 8000 || rc.size() != 2 {
		t.Fatalf("usage=%d size=%d, want 8000/2", rc.usage(), rc.size())
	}
	// Touch a so b becomes the LRU victim.
	if rc.get("a") == nil {
		t.Fatal("a missing")
	}
	rc.put(entry("c", 4000)) // 12000 > 10000: evict b
	if rc.get("b") != nil {
		t.Fatal("b not evicted (LRU order violated)")
	}
	if rc.get("a") == nil || rc.get("c") == nil {
		t.Fatal("wrong victim evicted")
	}
	if rc.usage() != 8000 || rc.size() != 2 {
		t.Fatalf("after eviction usage=%d size=%d, want 8000/2", rc.usage(), rc.size())
	}
	if obs.CoordResultCacheEvictions.Value() != ev0+1 {
		t.Fatalf("evictions counted = %d, want 1", obs.CoordResultCacheEvictions.Value()-ev0)
	}
	// Replacing a key must not double-count its bytes.
	rc.put(entry("a", 2000))
	if rc.usage() != 6000 || rc.size() != 2 {
		t.Fatalf("after replace usage=%d size=%d, want 6000/2", rc.usage(), rc.size())
	}
	// Shrinking the budget evicts down to it.
	rc.setBudget(2500)
	if rc.usage() > 2500 {
		t.Fatalf("usage %d exceeds shrunk budget", rc.usage())
	}
	// Budget 0 disables and drops everything.
	rc.setBudget(0)
	if rc.usage() != 0 || rc.size() != 0 || rc.enabled() {
		t.Fatalf("disabled cache not empty: usage=%d size=%d", rc.usage(), rc.size())
	}
}

func TestResultCachePerEntryCapRejectsLargeResults(t *testing.T) {
	s := newCachedSystem(t, 3, 1<<20)
	s.SetResultCacheMaxEntry(64) // smaller than any real result
	publishHorizontal(t, s, 12)
	q := `for $i in collection("items")/Item where $i/Section = "CD" return $i`
	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}
	if n := s.ResultCacheSize(); n != 0 {
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
		if n, b := s.ResultCacheSize(), s.ResultCacheBytes(); n != 0 || b != 0 {
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
	if n := s.ResultCacheSize(); n != 0 {
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

func TestAdmissionQueueShedsWithTypedError(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 24)
	s.SetMaxInflight(1)
	s.SetMaxQueued(1)
	s.SetQueueTimeout(10 * time.Millisecond)

	q := `for $i in collection("items")/Item where contains($i/Description, "good") return $i/Code`
	// Hold the only execution slot so the burst deterministically
	// overloads the coordinator: one query can queue (and times out), the
	// rest find the queue full and shed immediately.
	release, err := s.admission.acquire()
	if err != nil {
		t.Fatal(err)
	}
	const burst = 5
	var wg sync.WaitGroup
	var shed, untyped atomic.Int64
	for g := 0; g < burst; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Query(q)
			switch {
			case errors.Is(err, ErrOverloaded):
				shed.Add(1)
			case err != nil:
				untyped.Add(1)
			}
		}()
	}
	wg.Wait()
	if untyped.Load() != 0 {
		t.Fatalf("%d rejections were not typed ErrOverloaded", untyped.Load())
	}
	if shed.Load() != burst {
		t.Fatalf("shed %d of %d while the slot was held", shed.Load(), burst)
	}
	if s.QueuedQueries() != 0 {
		t.Fatalf("queue not drained: %d waiters", s.QueuedQueries())
	}
	// Releasing the slot readmits queries.
	release()
	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}
	// With admission off everything is served without queuing.
	s.SetMaxInflight(0)
	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}
}

func TestTenantQuotaSheds(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 12)
	s.SetTenantQuota(0.001, 2) // 2-query burst, effectively no refill
	q := `for $i in collection("items")/Item where $i/Section = "CD" return $i/Code`

	for i := 0; i < 2; i++ {
		if _, err := s.QueryAs("alice", q); err != nil {
			t.Fatalf("query %d within burst: %v", i, err)
		}
	}
	_, err := s.QueryAs("alice", q)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("exhausted tenant not shed with ErrOverloaded: %v", err)
	}
	// Another tenant has its own bucket.
	if _, err := s.QueryAs("bob", q); err != nil {
		t.Fatalf("unrelated tenant shed: %v", err)
	}
	// Disabling the policy readmits everyone.
	s.SetTenantQuota(0, 0)
	if _, err := s.QueryAs("alice", q); err != nil {
		t.Fatal(err)
	}
}

// Cache hits bypass the admission queue: with zero execution slots a
// primed query is still answered.
func TestCacheHitBypassesAdmission(t *testing.T) {
	s := newCachedSystem(t, 3, 1<<20)
	publishHorizontal(t, s, 12)
	q := `for $i in collection("items")/Item where $i/Section = "CD" return $i/Code`
	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}
	s.SetMaxInflight(1)
	s.SetMaxQueued(0)
	// Saturate the only slot.
	release, err := s.admission.acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	res, err := s.Query(q)
	if err != nil {
		t.Fatalf("cache hit was throttled: %v", err)
	}
	if !res.Cached {
		t.Fatal("expected a cache hit")
	}
	// The same query uncached is shed.
	s.InvalidatePlans()
	if _, err := s.Query(q); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("uncached query under a saturated slot: %v", err)
	}
}

func TestPublishClearsResultCache(t *testing.T) {
	s := newCachedSystem(t, 3, 1<<20)
	publishHorizontal(t, s, 12)
	q := `for $i in collection("items")/Item where $i/Section = "CD" return $i/Code`
	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}
	if s.ResultCacheSize() != 1 {
		t.Fatalf("entries = %d, want 1", s.ResultCacheSize())
	}
	other := xmltree.NewCollection("other")
	other.Add(xmltree.MustParseString("o1", `<Item id="1"><Code>O1</Code></Item>`))
	if err := s.Publish(other, nil, map[string]string{"": "node0"}, PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	if s.ResultCacheSize() != 0 {
		t.Fatalf("publish left %d cached results", s.ResultCacheSize())
	}
}
