package partix

import (
	"fmt"
	"sync"
	"testing"

	"partix/internal/engine"
	"partix/internal/obs"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// TestStatsCacheCurrent pins the rule a cached plan's fragment stamps are
// revalidated by: every stamp must describe its node's watch epoch and a
// snapshot no older than what the watch has reported since.
func TestStatsCacheCurrent(t *testing.T) {
	sc := newStatsCache()
	sc.nodes["n"] = &nodeStats{
		up:    true,
		epoch: 2,
		gens:  map[string]uint64{"c": 5},
		stats: map[string]*engine.CollectionStatistics{"c": {Generation: 5}, "none": nil},
	}
	sc.nodes["down"] = &nodeStats{epoch: 1, gens: map[string]uint64{}, stats: map[string]*engine.CollectionStatistics{}}

	fresh := genStamp{node: "n", collection: "c", epoch: 2, gen: 5, has: true}
	cases := []struct {
		name   string
		stamps []genStamp
		want   bool
	}{
		{"no stamps", nil, true},
		{"snapshot as new as the reports", []genStamp{fresh}, true},
		{"generation reported past the snapshot", []genStamp{{node: "n", collection: "c", epoch: 2, gen: 4, has: true}}, false},
		{"earlier watch epoch", []genStamp{{node: "n", collection: "c", epoch: 1, gen: 5, has: true}}, false},
		{"node still provides no statistics", []genStamp{{node: "n", collection: "none", epoch: 2}}, true},
		{"snapshot appeared where none was", []genStamp{{node: "n", collection: "c", epoch: 2}}, false},
		{"no-statistics entry evicted by a report", []genStamp{{node: "n", collection: "gone", epoch: 2}}, false},
		{"node keeping no statistics", []genStamp{{node: "plain", collection: "c"}}, true},
		{"node forgotten after its watch started", []genStamp{{node: "plain", collection: "c", epoch: 1}}, false},
		{"watch down", []genStamp{{node: "down", collection: "c", epoch: 1}}, false},
		{"one stale stamp outdates the set", []genStamp{fresh, {node: "n", collection: "c", epoch: 2, gen: 4, has: true}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := sc.current(tc.stamps); got != tc.want {
				t.Fatalf("current(%+v) = %t, want %t", tc.stamps, got, tc.want)
			}
		})
	}
}

// A write into a fragment statistics skipped changes the answer, so it
// must outdate the cached plan just as a write to a contacted fragment
// does: the plan carries stamps for the fragments it skipped too.
func TestPlanCacheInvalidatedBySkippedFragmentWrite(t *testing.T) {
	s := newTestSystem(t, 4)
	publishQuartile(t, s, 32) // FS0 holds ids 0..7, FS1..FS3 ids 8..31
	q := `for $i in collection("pitems")/Item where $i/@id < 4 return $i/Code`
	first := queryItems(t, s, q, 4)
	if fmt.Sprint(first.SkippedFragments) != "[FS1 FS2 FS3]" {
		t.Fatalf("skipped %v, want [FS1 FS2 FS3]", first.SkippedFragments)
	}
	if r := queryItems(t, s, q, 4); !r.PlanCached {
		t.Fatal("repeat query did not hit the plan cache")
	}

	inv := obs.CoordPlanCacheInvalidations.Value()
	err := s.Node("node2").StoreDocument("pitems::FS2", xmltree.MustParseString("low",
		`<Item id="1"><Code>PY</Code><Section>S2</Section></Item>`))
	if err != nil {
		t.Fatal(err)
	}
	r := queryItems(t, s, q, 5)
	if r.PlanCached || skipped(r, "FS2") {
		t.Fatalf("after a write to skipped FS2: plan cached %t, skipped %v; want a fresh plan contacting FS2",
			r.PlanCached, r.SkippedFragments)
	}
	if obs.CoordPlanCacheInvalidations.Value() == inv {
		t.Fatal("invalidation not counted")
	}
	// The fresh plan is cached in turn and serves the new answer.
	if r := queryItems(t, s, q, 5); !r.PlanCached {
		t.Fatal("replanned entry not served on the next query")
	}
}

// Registering catalog metadata alone, with no documents published,
// outdates every cached plan.
func TestPlanCacheInvalidatedByCatalogRegister(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 12)
	q := `for $i in collection("items")/Item where $i/Section = "DVD" return $i/Code`
	queryItems(t, s, q, 3)
	if r := queryItems(t, s, q, 3); !r.PlanCached {
		t.Fatal("repeat query did not hit the plan cache")
	}
	err := s.Catalog().Register(&CollectionMeta{Name: "other", Placement: map[string]string{"": "node0"}})
	if err != nil {
		t.Fatal(err)
	}
	if r := queryItems(t, s, q, 3); r.PlanCached {
		t.Fatal("plan survived a catalog version bump")
	}
	if r := queryItems(t, s, q, 3); !r.PlanCached {
		t.Fatal("plan stamped with the new catalog version not served")
	}
}

// A plan-cache hit skips only parsing and planning: the plan still runs
// its sub-queries over every fragment it names.
func TestPlanCacheHitStillExecutes(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 12)
	q := `collection("items")/Item/Code`
	first := queryItems(t, s, q, 12)
	second := queryItems(t, s, q, 12)
	if first.PlanCached || !second.PlanCached {
		t.Fatalf("plan cached: first %t, second %t; want false, true", first.PlanCached, second.PlanCached)
	}
	for i, r := range []*QueryResult{first, second} {
		if len(r.Sub) != 3 || r.Frames == 0 {
			t.Fatalf("run %d: %d sub-queries, %d frames; want 3 fragments executed", i, len(r.Sub), r.Frames)
		}
	}
	if first.Strategy != second.Strategy {
		t.Fatalf("strategy %s from a fresh plan, %s from the cached one", first.Strategy, second.Strategy)
	}
	if a, b := itemStrings(first.Items), itemStrings(second.Items); !equalStrings(a, b) {
		t.Fatalf("cached plan changed the answer: %v vs %v", a, b)
	}
}

// A burst of identical queries at a cold cache: every caller gets the
// right answer, each counts as exactly one hit or miss, and the cache
// ends with the one entry.
func TestPlanCacheConcurrentColdBurst(t *testing.T) {
	s := newTestSystem(t, 3)
	s.SetConcurrent(true)
	publishHorizontal(t, s, 24)
	q := `for $i in collection("items")/Item where contains($i/Description, "good") return $i/Code`
	e, err := xquery.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.QueryExpr(e) // plans afresh and leaves the cache cold
	if err != nil {
		t.Fatal(err)
	}
	want := itemStrings(ref.Items)
	if s.planCache.Len() != 0 {
		t.Fatal("QueryExpr filled the plan cache")
	}

	const burst = 8
	hits, misses := obs.CoordPlanCacheHits.Value(), obs.CoordPlanCacheMisses.Value()
	var wg sync.WaitGroup
	errs := make(chan error, burst)
	for g := 0; g < burst; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := s.Query(q)
			if err != nil {
				errs <- err
				return
			}
			if got := itemStrings(r.Items); !equalStrings(got, want) {
				errs <- fmt.Errorf("burst answer %v, want %v", got, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	dh, dm := obs.CoordPlanCacheHits.Value()-hits, obs.CoordPlanCacheMisses.Value()-misses
	if dh+dm != burst || dm == 0 {
		t.Fatalf("burst moved hits by %d and misses by %d, want %d lookups with at least one miss", dh, dm, burst)
	}
	if n := s.planCache.Len(); n != 1 {
		t.Fatalf("plan cache holds %d entries, want 1", n)
	}
	if r := queryItems(t, s, q, len(want)); !r.PlanCached {
		t.Fatal("query after the burst missed the plan cache")
	}
}

// InvalidatePlans empties the plan cache outright: the next query is a
// plain miss, not a stale entry discarded on lookup.
func TestInvalidatePlansEmptiesPlanCache(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 12)
	queries := []string{
		`for $i in collection("items")/Item where $i/Section = "CD" return $i/Code`,
		`collection("items")/Item/Code`,
	}
	for _, q := range queries {
		if _, err := s.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.planCache.Len(); n != 2 {
		t.Fatalf("plan cache holds %d entries, want 2", n)
	}
	s.InvalidatePlans()
	if n := s.planCache.Len(); n != 0 {
		t.Fatalf("InvalidatePlans left %d entries", n)
	}
	inv := obs.CoordPlanCacheInvalidations.Value()
	if r := queryItems(t, s, queries[1], 12); r.PlanCached {
		t.Fatal("plan served after InvalidatePlans")
	}
	if obs.CoordPlanCacheInvalidations.Value() != inv {
		t.Fatal("a lookup in an emptied cache counted an invalidation")
	}
	if r := queryItems(t, s, queries[1], 12); !r.PlanCached {
		t.Fatal("replanned entry not served on the next query")
	}
}

// With statistics-driven planning off, a plan consults no statistics and
// carries no stamps: it depends on the catalog alone, so a node write
// leaves it cached, and since it skips nothing its answer stays right.
// Switching statistics back on drops it; setting the mode it already has
// drops nothing.
func TestUnstampedPlanSurvivesNodeWrite(t *testing.T) {
	s := newTestSystem(t, 4)
	publishQuartile(t, s, 32)
	s.SetPlannerStats(false)
	q := `for $i in collection("pitems")/Item where $i/@id < 4 return $i/Code`
	if r := queryItems(t, s, q, 4); len(r.SkippedFragments) != 0 || len(r.Sub) != 4 {
		t.Fatalf("statistics off: skipped %v over %d sub-queries, want none skipped", r.SkippedFragments, len(r.Sub))
	}
	if _, p, _, err := s.cachedPlan(xquery.NormalizeQueryText(q), q); err != nil || len(p.stamps) != 0 {
		t.Fatalf("statistics-blind plan: err=%v, want no stamps", err)
	}
	err := s.Node("node0").StoreDocument("pitems::FS0", xmltree.MustParseString("extra",
		`<Item id="2"><Code>PX</Code><Section>S0</Section></Item>`))
	if err != nil {
		t.Fatal(err)
	}
	if r := queryItems(t, s, q, 5); !r.PlanCached {
		t.Fatal("a node write outdated a plan that consulted no statistics")
	}

	s.SetPlannerStats(true)
	if n := s.planCache.Len(); n != 0 {
		t.Fatalf("switching statistics on left %d cached plans", n)
	}
	r := queryItems(t, s, q, 5)
	if r.PlanCached || fmt.Sprint(r.SkippedFragments) != "[FS1 FS2 FS3]" {
		t.Fatalf("statistics on: plan cached %t, skipped %v; want a fresh plan skipping FS1..FS3",
			r.PlanCached, r.SkippedFragments)
	}
	s.SetPlannerStats(true)
	if r := queryItems(t, s, q, 5); !r.PlanCached {
		t.Fatal("setting the current mode dropped the cached plan")
	}
}

// The plan cache holds planCacheCap plans: past it the least recently
// used plan falls out, counted as an eviction, and plans again on its
// next query.
func TestPlanCacheCapacity(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 12)
	query := func(i int) string {
		return fmt.Sprintf(`for $i in collection("items")/Item where $i/@id = %d return $i/Code`, i)
	}
	ev := obs.CoordPlanCacheEvictions.Value()
	const n = planCacheCap + 2
	for i := 0; i < n; i++ {
		if _, err := s.Query(query(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.planCache.Len(); got != planCacheCap {
		t.Fatalf("plan cache holds %d entries, want %d", got, planCacheCap)
	}
	if got := obs.CoordPlanCacheEvictions.Value() - ev; got != n-planCacheCap {
		t.Fatalf("evictions counted = %d, want %d", got, n-planCacheCap)
	}
	if r, err := s.Query(query(n - 1)); err != nil || !r.PlanCached {
		t.Fatalf("most recent plan not served: err=%v", err)
	}
	if r, err := s.Query(query(0)); err != nil || r.PlanCached {
		t.Fatalf("least recently used plan survived the cap: err=%v", err)
	}
}

// Count, exists and empty folds answered from a cached plan that skipped
// every fragment must be replanned once a write makes a fragment
// relevant: replaying the cached plan would compose the identity over
// nothing and give the old answer.
func TestDeciderQueriesReplanAfterSkippedFragmentWrite(t *testing.T) {
	cases := []struct {
		fn            string
		before, after string
	}{
		{"count", "0", "1"},
		{"exists", "false", "true"},
		{"empty", "true", "false"},
	}
	for _, tc := range cases {
		t.Run(tc.fn, func(t *testing.T) {
			s := newTestSystem(t, 4)
			publishQuartile(t, s, 32) // ids 0..31: id 100 is nowhere
			q := fmt.Sprintf(`%s(collection("pitems")/Item[@id = 100])`, tc.fn)
			check := func(want string, cached bool, skips int) {
				t.Helper()
				r := queryItems(t, s, q, 1)
				if got := xquery.ItemString(r.Items[0]); got != want {
					t.Fatalf("%s = %s, want %s", q, got, want)
				}
				if r.PlanCached != cached || len(r.SkippedFragments) != skips {
					t.Fatalf("%s: plan cached %t, skipped %v; want cached %t with %d skipped",
						q, r.PlanCached, r.SkippedFragments, cached, skips)
				}
			}
			check(tc.before, false, 4)
			check(tc.before, true, 4)
			err := s.Node("node2").StoreDocument("pitems::FS2", xmltree.MustParseString("hundred",
				`<Item id="100"><Code>P100</Code><Section>S2</Section></Item>`))
			if err != nil {
				t.Fatal(err)
			}
			check(tc.after, false, 3)
			check(tc.after, true, 3)
		})
	}
}
